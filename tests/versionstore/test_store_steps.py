"""One version-store step over one message = one script per shard.

``register_operation``, ``satisfied`` and ``apply_counts`` group a
message's keys by owning shard and run one ``eval`` per shard, while
every key stays its own ``hget``/``hset`` *inside* the script — so the
engine statistics and fault plans see exactly the per-key operations
they saw when each key was its own round trip.
"""

from __future__ import annotations

import pytest

from repro.core import Ecosystem
from repro.core.delivery import GLOBAL_OBJECT
from repro.databases.document import MongoLike
from repro.databases.kv import RedisLike
from repro.errors import FaultInjected
from repro.orm import Field, Model
from repro.runtime.interleave import install_hook, uninstall_hook
from repro.versionstore import (
    PublisherVersionStore,
    ShardedKV,
    SubscriberVersionStore,
)


def make_kv(n_shards):
    return ShardedKV([RedisLike(f"shard{i}") for i in range(n_shards)])


def totals(kv):
    return (
        sum(shard.stats.reads for shard in kv.shards),
        sum(shard.stats.writes for shard in kv.shards),
        sum(shard.script_calls for shard in kv.shards),
    )


def touched_shards(kv, keys):
    return len({kv.shard_for(key).name for key in keys})


READS = ["pub/users/1", "pub/posts/7"]
WRITES = ["pub/comments/3", "pub/users/2", "pub/posts/9"]


@pytest.mark.parametrize("n_shards", [1, 3])
def test_register_is_one_script_per_shard_with_per_key_operations(n_shards):
    kv = make_kv(n_shards)
    store = PublisherVersionStore(kv)
    versions = store.register_operation(READS, WRITES)
    assert versions == {**dict.fromkeys(READS, 0), **dict.fromkeys(WRITES, 0)}
    # A read dep is hget ops, hset ops, hget version; a write dep is
    # hget ops, hset ops, hset version — as when each was its own eval.
    reads, writes, scripts = totals(kv)
    assert (reads, writes) == (2 * len(READS) + len(WRITES), len(READS) + 2 * len(WRITES))
    assert scripts == touched_shards(kv, [f"v:{dep}" for dep in READS + WRITES])
    assert scripts == 1 or n_shards > 1
    # Second operation: the Fig 8 arithmetic is unchanged.
    again = store.register_operation(READS[:1], WRITES[:1])
    assert again == {READS[0]: 0, WRITES[0]: 1}
    assert store.current(WRITES[0]) == (2, 2) and store.current(READS[0]) == (2, 0)


@pytest.mark.parametrize("n_shards", [1, 3])
def test_check_and_apply_are_one_script_per_shard_with_per_key_operations(n_shards):
    kv = make_kv(n_shards)
    store = SubscriberVersionStore(kv)
    deps = {dep: 0 for dep in READS + WRITES}
    keys = [f"s:{dep}" for dep in deps]

    assert store.satisfied(deps)
    assert totals(kv) == (len(deps), 0, touched_shards(kv, keys))
    assert store.satisfied({})  # nothing to ask: no script at all
    assert totals(kv)[2] == touched_shards(kv, keys)

    before = totals(kv)
    store.apply_counts({**dict.fromkeys(deps, 1), READS[0]: 3, WRITES[0]: 0})
    reads, writes, scripts = (now - was for now, was in zip(totals(kv), before))
    bumped = [dep for dep in deps if dep != WRITES[0]]  # a zero bump is skipped
    assert (reads, writes) == (len(bumped), len(bumped))
    assert scripts == touched_shards(kv, [f"s:{dep}" for dep in bumped])
    assert store.snapshot() == {**dict.fromkeys(bumped, 1), READS[0]: 3}

    assert not store.satisfied({READS[1]: 2})
    assert store.satisfied({READS[0]: 3, READS[1]: 1})


def test_one_failed_key_write_fails_one_key_and_registration_recovers():
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"], name="Doc")
    class Doc(Model):
        name = Field(str)

    sub = eco.service("sub", database=MongoLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="Doc")
    class SubDoc(Model):
        name = Field(str)

    with pub.controller():
        first = Doc.create(name="before")
    (shard,) = pub.publisher_version_store.kv.shards
    writes_before = shard.stats.writes
    shard.faults.fail_next_writes = 1
    with pub.controller():
        second = Doc.create(name="after")
    # Exactly one hset was refused; the publisher bumped its generation
    # and registered the operation again on the flushed store.
    assert shard.faults.fail_next_writes == 0
    assert pub.current_generation() == 2
    assert shard.stats.writes - writes_before == 2  # ops + version of the retry
    assert sub.subscriber.drain() == 2
    assert {SubDoc.find(first.id).name, SubDoc.find(second.id).name} == {
        "before", "after",
    }
    # Without recovery the fault surfaces from inside the script.
    store = PublisherVersionStore(make_kv(1))
    store.kv.shards[0].faults.fail_next_writes = 1
    with pytest.raises(FaultInjected):
        store.register_operation(["a"], ["b"])
    assert store.kv.shards[0].faults.fail_next_writes == 0


def test_gate_counter_shard_runs_last_on_a_sharded_store():
    """Global mode passes its gate counter last; with several shards
    the gate's *shard* must go last too, even when it also owns an
    earlier key — once the gate opens, every other bump has landed."""
    kv = make_kv(3)
    store = SubscriberVersionStore(kv)
    gate_shard = kv.shard_for(f"s:{GLOBAL_OBJECT}")
    deps = [f"pub/items/{i}" for i in range(12)]
    sharing = [dep for dep in deps if kv.shard_for(f"s:{dep}") is gate_shard]
    assert sharing and len(sharing) < len(deps)
    counts = dict.fromkeys([sharing[0], *deps, GLOBAL_OBJECT], 1)
    assert list(counts)[0] == sharing[0] and list(counts)[-1] == GLOBAL_OBJECT

    order = []

    def hook(label, info, pause):
        if label == "counter.bumped":
            order.append(info["dep"])

    install_hook(hook)
    try:
        store.apply_counts(counts)
    finally:
        uninstall_hook(hook)
    assert order[-1] == GLOBAL_OBJECT and sorted(order) == sorted(counts)
    gate_shard_keys = [dep for dep in order if dep in sharing or dep == GLOBAL_OBJECT]
    assert order[-len(gate_shard_keys):] == gate_shard_keys
    assert sum(shard.script_calls for shard in kv.shards) == 3


@pytest.mark.parametrize("record_only", [False, True])
def test_bumped_values_are_reported_from_inside_the_script(record_only):
    """``counter.bumped`` is record-only and emitted in the step that
    made the value: reported a step later, another worker's newer bump
    could be reported first and trip ``counters.monotone``."""
    store = SubscriberVersionStore(make_kv(1))
    store.apply_counts({"a": 2})
    events = []

    def hook(label, info, pause):
        if label.startswith("counter."):
            current = store.kv.shards[0]._data.get(f"s:{info['dep']}", {}).get("ops", 0)
            events.append((label, info["dep"], info.get("value"), pause, current))

    install_hook(hook)
    try:
        store.apply_counts({"a": 1, "b": 4}, record_only=record_only)
    finally:
        uninstall_hook(hook)
    pauses = not record_only
    assert events == [
        ("counter.bump", "a", None, pauses, 2),
        ("counter.bump", "b", None, pauses, 0),
        ("counter.bumped", "a", 3, False, 3),
        # ``b`` not yet written when ``a`` was reported, written now.
        ("counter.bumped", "b", 4, False, 4),
    ]
