"""Encode-once invariants: a published message is serialised exactly
once, and those bytes are what the broker fan-out and every WAL record
reuse — without changing a byte on disk.

Each test fails with its half of the mechanism reverted: the
single-pass ``encode_record`` (format drift), ``Message.rewrite``
dropping the cached body (stale ``coal`` records), ``from_wire`` not
trusting foreign bytes (CRC-failing ``pub`` records), the trace staying
out of the cached body, and the per-publish encode/decode counts (one
encode, and — every queue being local — no decode at all).
"""

from __future__ import annotations

import json
import types
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.broker.message as message_mod
from repro.broker.message import WIRE_VERSION, Message, canonical_json
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.durability.wal import WAL_WIRE_VERSION, decode_record, encode_record
from repro.errors import DurabilityError
from repro.orm import Field, Model
from repro.repair.digest import publisher_model_digest, subscriber_model_digest
from repro.runtime.flow import FlowConfig
from repro.runtime.tracing import STAGE_WAL, Trace


def build_pipeline(data_dir=None, subscribers=("sub",), mode="causal", flow=None):
    """One publisher fanned out to ``subscribers``; durability armed
    into ``data_dir`` when given."""
    eco = Ecosystem()
    if flow is not None:
        eco.enable_flow(flow)
    pub = eco.service("pub", database=MongoLike("pub-db"), delivery_mode=mode)

    @pub.model(publish=["name", "value"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        value = Field(int, default=0)

    subs = []
    for sub_name in subscribers:
        sub = eco.service(sub_name, database=PostgresLike(f"{sub_name}-db"))

        @sub.model(
            subscribe={"from": "pub", "fields": ["name", "value"], "mode": mode},
            name="Doc",
        )
        class SubDoc(Model):
            name = Field(str)
            value = Field(int, default=0)

        subs.append(sub)
    manager = None
    if data_dir is not None:
        manager = eco.enable_durability(data_dir=str(data_dir))
    return eco, pub, subs, manager, PubDoc


def replicas_in_sync(pub, sub):
    spec = next(iter(sub.subscriber.specs.values()))
    mine = subscriber_model_digest(sub, spec)
    theirs = publisher_model_digest(pub, "Doc", sorted(spec.fields))
    return mine.root == theirs.root


def wal_records(manager):
    manager.wal.sync()
    return [rec for _, rec in manager.wal.replay()]


def plain(value):
    """``value`` as a JSON round trip leaves it (what replay sees)."""
    return json.loads(json.dumps(value))


# -- (a) the single-pass encoder is byte-identical to the reference ----------

def reference_line(rec):
    """The envelope as the format defines it: CRC over the canonical
    record, then the canonical envelope — two full ``json.dumps``."""
    canonical = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    envelope = {
        "v": WAL_WIRE_VERSION,
        "crc": zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF,
        "rec": rec,
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
#: Header keys on both sides of ``"m"`` in sort order (and around it).
header_keys = st.sampled_from(
    ["", "a", "app", "absorbed", "cur", "l", "lz", "m0", "ma", "n", "q",
     "svc", "t", "uid", "vs", "é"]
) | st.text(max_size=4).filter(lambda key: key != "m")
headers = st.dictionaries(header_keys, json_values, max_size=5)
bodies = st.dictionaries(st.text(max_size=6), json_values, max_size=5)


@settings(max_examples=300, deadline=None)
@given(header=headers, body=st.none() | bodies)
def test_encode_record_matches_reference_envelope(header, body):
    if body is None:  # a record without a message (ack, defer, shed, ...)
        full = header
        line = encode_record(header)
    else:
        full = dict(header, m=body)
        line = encode_record(header, canonical_json(body))
        assert encode_record(full) == line
    assert line == reference_line(full)
    assert decode_record(line) == full


def test_encode_record_refuses_two_bodies():
    with pytest.raises(DurabilityError):
        encode_record({"t": "pub", "m": {}}, "{}")


# -- (b) coalescing drops the cached body -------------------------------------

def test_coalesced_survivor_is_relogged_post_merge(tmp_path):
    flow = FlowConfig(capacity=64)
    eco, pub, (sub,), manager, PubDoc = build_pipeline(
        tmp_path, mode="weak", flow=flow
    )
    with pub.controller():
        doc = PubDoc.create(name="doc", value=0)
    for value in (1, 2):  # each folds into the queued create
        with pub.controller():
            doc.value = value
            doc.save()
    assert eco.metrics.value("flow.sub.coalesced") == 2
    (survivor,) = sub.subscriber.queue.peek_all()
    coals = [rec for rec in wal_records(manager) if rec["t"] == "coal"]
    assert len(coals) == 2
    assert coals[-1]["m"] == plain(survivor.to_wire())
    assert coals[-1]["m"]["operations"][0]["attributes"]["value"] == 2
    assert coals[0]["m"] != coals[-1]["m"]
    # Kill: the process stops existing with the survivor still queued.

    eco_b, pub_b, (sub_b,), manager_b, _ = build_pipeline(
        tmp_path, mode="weak", flow=flow
    )
    report = manager_b.restore()
    assert not report.unrecoverable
    assert report.requeued == 1
    sub_b.subscriber.drain()
    assert replicas_in_sync(pub_b, sub_b)


# -- (c) foreign bytes are re-encoded, not trusted ----------------------------

def test_foreign_payload_is_logged_canonically(tmp_path):
    eco, pub, (sub,), manager, _ = build_pipeline(tmp_path)
    foreign = json.dumps(
        {
            "uid": "pub:900",
            "repair": False,
            "published_at": 12.5,
            "operations": [{
                "types": ["Doc"], "operation": "create", "id": 41,
                "attributes": {"value": 7, "name": "café"},
            }],
            "generation": 1,
            "external_dependencies": {},
            "dependencies": {},
            "bootstrap": False,
            "app": "pub",
        },
        indent=2,
        ensure_ascii=False,
    )
    assert "wire_version" not in foreign
    eco.broker.deliver_remote("sub", foreign)
    (queued,) = sub.subscriber.queue.peek_all()
    manager.wal.sync()

    eco_b, _, (sub_b,), manager_b, _ = build_pipeline(tmp_path)
    report = manager_b.restore()
    assert not report.unrecoverable, report.error
    assert report.requeued == 1
    (restored,) = sub_b.subscriber.queue.peek_all()
    assert restored.to_wire() == queued.to_wire()
    assert restored.to_wire()["wire_version"] == WIRE_VERSION


# -- (d) the trace rides to_json, never the cached body -----------------------

def test_trace_is_spliced_onto_the_body_not_cached():
    trace = Trace(app="pub", trace_id="pub:1")
    trace.add("publisher.intercept", 1.0, 0.5)
    message = Message(
        app="pub", operations=[], dependencies={"h": 1}, published_at=1.0,
        uid="pub:1", trace=trace,
    )
    body = message.body()
    assert "trace" not in json.loads(body)
    wire = json.loads(message.to_json())
    assert len(wire.pop("trace")["spans"]) == 1
    assert wire == json.loads(body)
    trace.add("broker.route", 2.0, 0.25)
    assert message.body() is body
    assert len(json.loads(message.to_json())["trace"]["spans"]) == 2
    assert Message.from_json(message.to_json()).trace.stages() == [
        "publisher.intercept", "broker.route",
    ]


def test_traced_message_logs_no_trace_and_times_its_appends(tmp_path):
    eco, pub, (sub,), manager, PubDoc = build_pipeline(tmp_path)
    eco.enable_tracing()
    with pub.controller():
        PubDoc.create(name="doc", value=1)
    sub.subscriber.drain()
    carried = [rec for rec in wal_records(manager) if "m" in rec]
    assert [rec["t"] for rec in carried] == ["out", "pub", "apply"]
    assert all("trace" not in rec["m"] for rec in carried)
    # out (publisher side, carried over the wire), pub, apply; the ack
    # record lands on the already-finished trace object as well.
    stages = eco.tracer.last().stages()
    assert stages.count(STAGE_WAL) == 4


# -- the count guard: one encode per publish, whatever the fan-out ------------

class CodecCounts:
    """Counts message-body encodes and message decodes by shimming the
    two codec entry points ``repro.broker.message`` uses."""

    def __init__(self, monkeypatch):
        self.encodes = 0
        self.decodes = 0

        def counting_encode(data):
            self.encodes += 1
            return canonical_json(data)

        def counting_loads(payload):
            self.decodes += 1
            return json.loads(payload)

        monkeypatch.setattr(message_mod, "canonical_json", counting_encode)
        monkeypatch.setattr(
            message_mod, "json",
            types.SimpleNamespace(loads=counting_loads, dumps=json.dumps),
        )

    def take(self):
        counts = (self.encodes, self.decodes)
        self.encodes = self.decodes = 0
        return counts


FANOUT = ("sub_a", "sub_b", "sub_c")


def test_durable_fanout_encodes_once_per_publish(tmp_path, monkeypatch):
    eco, pub, subs, manager, PubDoc = build_pipeline(tmp_path, FANOUT)
    counts = CodecCounts(monkeypatch)
    docs = []
    for i in range(4):
        appends = eco.metrics.value("durability.wal.appends")
        with pub.controller():
            if i < 2:
                docs.append(PubDoc.create(name=f"doc-{i}", value=i))
            else:
                docs[0].value = i
                docs[0].save()
        for sub in subs:
            assert sub.subscriber.drain() == 1
        # out + 3 x (pub, apply, ack); every body from the one encode,
        # and no local queue parses it back.
        assert eco.metrics.value("durability.wal.appends") - appends == 10
        assert counts.take() == (1, 0)
    for sub in subs:
        assert replicas_in_sync(pub, sub)


def test_plain_fanout_encodes_once_per_publish(monkeypatch):
    eco, pub, subs, _, PubDoc = build_pipeline(None, FANOUT)
    counts = CodecCounts(monkeypatch)
    for i in range(3):
        with pub.controller():
            PubDoc.create(name=f"doc-{i}", value=i)
        for sub in subs:
            assert sub.subscriber.drain() == 1
        assert counts.take() == (1, 0)
