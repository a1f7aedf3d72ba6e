"""Encode-at-most-once invariants: a published message is serialised
on first use — by the WAL or the forwarder to another shard, never by a
local queue — and those bytes are what every later consumer reuses,
without changing a byte on disk.

Each test fails with its half of the mechanism reverted: the
single-pass ``encode_record`` (format drift), ``Message.rewrite``
dropping the cached body (stale ``coal`` records), ``from_wire`` not
trusting foreign bytes (CRC-failing ``pub`` records), the trace staying
out of the cached body, the body cell every delivery of one publish
shares, and the per-publish encode/decode counts (no encode when
nothing is logged or shipped, one otherwise, and — every queue being
local — no decode at all).
"""

from __future__ import annotations

import json
import types
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_replicated_pair
import repro.broker.message as message_mod
from repro.broker.message import WIRE_VERSION, Message, canonical_json
from repro.core import Ecosystem
from repro.durability.wal import WAL_WIRE_VERSION, decode_record, encode_record
from repro.errors import DurabilityError
from repro.runtime.flow import FlowConfig
from repro.runtime.tracing import STAGE_WAL, Trace


def build_pipeline(data_dir=None, subscribers=("sub",), mode="causal", flow=None):
    """One publisher fanned out to ``subscribers``; durability armed
    into ``data_dir`` when given."""
    eco = Ecosystem()
    if flow is not None:
        eco.enable_flow(flow)
    subs = []
    for sub_name in subscribers:
        _, pub, sub, PubDoc = build_replicated_pair(
            eco, {"name": str, "value": int}, mode=mode, sub=sub_name
        )
        subs.append(sub)
    manager = None
    if data_dir is not None:
        manager = eco.enable_durability(data_dir=str(data_dir))
    return eco, pub, subs, manager, PubDoc


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
    assert sub_b.audit_replication().in_sync


# -- (c) foreign bytes are re-encoded, not trusted ----------------------------

def test_foreign_payload_is_logged_canonically(tmp_path):
    eco, pub, (sub,), manager, _ = build_pipeline(tmp_path)
    foreign = json.dumps(
        {
            "uid": "pub:900",
            "published_at": 12.5,
            "operations": [{
                "types": ["Doc"], "operation": "create", "id": 41,
                "attributes": {"value": 7, "name": "café"},
            }],
            "generation": 1,
            "external_dependencies": {},
            "dependencies": {},
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
    assert [rec["t"] for rec in carried] == ["out", "apply"]
    assert all("trace" not in rec["m"] for rec in carried)
    # out (publisher side, carried over the wire), apply; the ack
    # record lands on the already-finished trace object as well.
    stages = eco.tracer.last().stages()
    assert stages.count(STAGE_WAL) == 3


# -- the count guards: at most one encode per publish, on first use ------------

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


def place_remotely(eco, *remote):
    """Put the queues named ``remote`` on another shard; returns the
    list the forwarder appends ``(subscriber, payload)`` to."""
    shipped = []
    eco.broker.attach(placement=(
        lambda sub: sub not in remote,
        lambda sub, payload: shipped.append((sub, payload)),
    ))
    return shipped


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
        # out (naming the 3 queues) + 3 x (apply, ack); every body from
        # the one encode (the ``out`` record's), and no local queue
        # parses it back.
        assert eco.metrics.value("durability.wal.appends") - appends == 7
        assert counts.take() == (1, 0)
    for sub in subs:
        assert sub.audit_replication().in_sync


def test_plain_fanout_never_encodes(monkeypatch):
    """Every queue local, nothing logged: nobody reads bytes, so none
    are made — publish, apply and ack included."""
    eco, pub, subs, _, PubDoc = build_pipeline(None, FANOUT)
    counts = CodecCounts(monkeypatch)
    for i in range(3):
        with pub.controller():
            PubDoc.create(name=f"doc-{i}", value=i)
        for sub in subs:
            assert sub.subscriber.drain() == 1
        assert counts.take() == (0, 0)


@pytest.mark.parametrize("durable", [False, True])
@pytest.mark.parametrize("remote", [("sub_c",), ("sub_b", "sub_c")])
def test_remote_targets_share_the_one_encode(tmp_path, monkeypatch, durable, remote):
    """The forwarder is the other consumer of bytes: one encode however
    many queues are remote, and still one when the WAL asked first."""
    eco, pub, subs, _, PubDoc = build_pipeline(
        tmp_path if durable else None, FANOUT
    )
    shipped = place_remotely(eco, *remote)
    counts = CodecCounts(monkeypatch)
    with pub.controller():
        PubDoc.create(name="doc", value=1)
    assert counts.take() == (1, 0)
    assert [sub for sub, _ in shipped] == list(remote)
    assert len({payload for _, payload in shipped}) == 1
    (local,) = subs[0].subscriber.queue.peek_all()
    assert shipped[0][1] == local.body()
    assert subs[0].subscriber.drain() == 1
    assert counts.take() == (0, 0)


def test_coalesce_with_wal_reencodes_the_survivor_once_per_merge(
    tmp_path, monkeypatch
):
    eco, pub, (sub,), manager, PubDoc = build_pipeline(
        tmp_path, mode="weak", flow=FlowConfig(capacity=64)
    )
    counts = CodecCounts(monkeypatch)
    with pub.controller():
        doc = PubDoc.create(name="doc", value=0)
    assert counts.take() == (1, 0)
    for value in (1, 2):
        with pub.controller():
            doc.value = value
            doc.save()
        # The absorbed message's ``out`` record, then the ``coal``
        # record of the survivor ``rewrite`` handed an empty cell.
        assert counts.take() == (2, 0)
    assert eco.metrics.value("flow.sub.coalesced") == 2
    assert sub.subscriber.drain() == 1  # pub/apply/ack reuse the coal body
    assert counts.take() == (0, 0)


# -- the shared cell: whoever asks first fills it for every delivery ------------

def test_first_body_fills_the_cell_for_every_delivery(monkeypatch):
    eco, pub, subs, _, PubDoc = build_pipeline(None, FANOUT)
    counts = CodecCounts(monkeypatch)
    with mock.patch.object(
        eco.broker, "publish", wraps=eco.broker.publish
    ) as publish:
        with pub.controller():
            PubDoc.create(name="doc", value=1)
    (published,), _ = publish.call_args
    m1, m2, m3 = (sub.subscriber.queue.peek_all()[0] for sub in subs)
    assert counts.take() == (0, 0)
    body = m2.body()  # any one delivery: say the middle queue's
    assert counts.take() == (1, 0)
    assert m1.body() is body and m3.body() is body
    assert published.body() is body
    assert m1.delivery().body() is body  # a redelivery made later, too
    assert counts.take() == (0, 0)
    assert json.loads(body) == plain(m1.to_wire())


def test_rewrite_on_one_queue_leaves_the_others_body_alone(monkeypatch):
    """Coalescing rewrites one queue's survivor: it gets an empty cell
    of its own, the deliveries still sharing the old one keep theirs."""
    eco, pub, (sub_a, sub_b), _, PubDoc = build_pipeline(
        None, ("sub_a", "sub_b"), mode="weak", flow=FlowConfig(capacity=64)
    )
    with pub.controller():
        doc = PubDoc.create(name="doc", value=0)
    (first_a,) = sub_a.subscriber.queue.peek_all()
    (first_b,) = sub_b.subscriber.queue.peek_all()
    before = first_b.body()
    assert first_a.body() is before
    assert sub_b.subscriber.drain() == 1  # only sub_a still has it queued
    with pub.controller():
        doc.value = 9
        doc.save()
    assert eco.metrics.value("flow.sub_a.coalesced") == 1
    assert eco.metrics.value("flow.sub_b.coalesced") == 0
    assert sub_a.subscriber.queue.peek_all() == [first_a]
    assert first_b.body() is before
    merged = json.loads(first_a.body())
    assert merged["operations"][0]["attributes"]["value"] == 9
    assert merged == plain(first_a.to_wire())
    assert json.loads(before)["operations"][0]["attributes"]["value"] == 0
