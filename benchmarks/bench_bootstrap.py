"""Bootstrap cost (§4.4): how long a new subscriber takes to join as a
function of the publisher's dataset size, and the payoff of partial
(model-scoped) bootstraps (§4.3)."""

from __future__ import annotations

import time

from benchmarks.common import emit, format_table
from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model

SIZES = [500, 2000, 8000]


def build(n_objects: int):
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"])
    class User(Model):
        name = Field(str)

    @pub.model(publish=["label"])
    class Widget(Model):
        label = Field(str)

    for i in range(n_objects):
        User.create(name=f"u{i}")
    for i in range(n_objects // 10):
        Widget.create(label=f"w{i}")

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="User")
    class SubUser(Model):
        name = Field(str)

    @sub.model(subscribe={"from": "pub", "fields": ["label"]}, name="Widget")
    class SubWidget(Model):
        label = Field(str)

    return eco, pub, sub


def test_bootstrap_scales_linearly(benchmark):
    rows = []
    rates = []
    for size in SIZES:
        eco, pub, sub = build(size)
        start = time.perf_counter()
        applied = len(bootstrap_subscriber(sub))
        elapsed = time.perf_counter() - start
        rate = applied / elapsed
        rates.append(rate)
        rows.append([size, applied, f"{elapsed * 1000:.1f}", f"{rate:,.0f}"])
        assert sub.registry["User"].count() == size
    emit(format_table(
        "Bootstrap cost vs publisher dataset size (§4.4)",
        ["objects (users)", "bulk-applied", "elapsed ms", "objects/s"],
        rows,
    ))
    # Roughly linear: the per-object rate stays within 4x across a 16x
    # dataset growth.
    assert max(rates) < 4 * min(rates)

    eco, pub, sub = build(500)
    benchmark(lambda: bootstrap_subscriber(sub))


def test_partial_bootstrap_is_cheaper(benchmark):
    eco, pub, sub = build(4000)
    start = time.perf_counter()
    applied_partial = len(bootstrap_subscriber(sub, scope={("pub", "Widget"): None}))
    partial_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    applied_full = len(bootstrap_subscriber(sub))
    full_elapsed = time.perf_counter() - start
    emit([
        "== Partial vs full bootstrap (4000 users + 400 widgets) ==",
        f"  partial (Widget only): {applied_partial} objects in "
        f"{partial_elapsed * 1000:.1f} ms",
        f"  full:                  {applied_full} objects in "
        f"{full_elapsed * 1000:.1f} ms",
    ])
    assert applied_partial < applied_full
    assert partial_elapsed < full_elapsed

    benchmark(lambda: bootstrap_subscriber(sub, scope={("pub", "Widget"): None}))
