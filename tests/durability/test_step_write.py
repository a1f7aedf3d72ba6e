"""The WAL lays its hot records out instead of encoding them, and the
records of one pipeline step reach the kernel in one write.

Pinned here, each failing with its half of the mechanism reverted:

(a) every record type the manager emits is, on disk, byte for byte the
    two-``json.dumps`` reference envelope of its decoded record — for
    service names (which become ``app``/``q``/``svc`` and the head of
    every uid) full of quotes, backslashes, control and non-ASCII
    characters;
(b) under fsync ``off`` a publish whose ``save()`` returned, and a
    drained message, are in the segment file — read through a second
    handle, no ``sync()``, no ``close()`` — and a step is one write;
(c) with threads in overlapping steps the file is append order, and a
    restored queue's order is the order of the ``out`` records naming
    it — which the live order matches up to the swap of two publishes
    that overlapped in time;
(d) a forwarder is never handed a message whose ``out`` record is not
    in the file yet, not even from a publish nested in another step;
(e) a process SIGKILLed inside a step leaves a log of whole lines that
    holds every publish whose ``save()`` had returned;
(f) ``SegmentedWAL.append`` and ``wal.encode_record`` stay the
    per-record entry points (benchmarks/e2e/trace.py counts on them);
(g) ``interval`` still loses exactly its unsynced tail and ``always``
    still fsyncs every record: steps change neither.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.durability.wal as wal_mod
from repro.broker.message import Message
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.durability.wal import (
    WAL_WIRE_VERSION,
    SegmentedWAL,
    decode_record,
    encode_record,
)
from repro.orm import Field, Model
from repro.runtime.conformance.scenarios import durability_kill_restart_scenario
from repro.runtime.flow import FlowConfig
from repro.runtime.interleave import QUEUE_RECOMMISSIONED
from repro.runtime.tracing import STAGE_WAL_FLUSH


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


def lines_on_disk(manager):
    """Every line of every segment, through handles of our own — what a
    process starting now over the same directory would read."""
    lines = []
    for sid in manager.wal.segment_ids():
        with open(manager.wal.segment_path(sid), encoding="utf-8") as fh:
            lines.extend(line.rstrip("\n") for line in fh)
    return lines


def records_on_disk(manager):
    return [decode_record(line) for line in lines_on_disk(manager)]


def build_pipeline(
    data_dir, pub_name="pub", subscribers=("sub",), mode="causal",
    flow=None, fsync="off", **durability
):
    """One publisher fanned out to ``subscribers``, durability armed."""
    eco = Ecosystem()
    if flow is not None:
        eco.enable_flow(flow)
    pub = eco.service(
        pub_name, database=PostgresLike("pub-db"), delivery_mode=mode
    )

    @pub.model(publish=["name", "value"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        value = Field(int, default=0)

    subs = []
    for sub_name in subscribers:
        sub = eco.service(sub_name, database=MongoLike(f"{sub_name}-db"))

        @sub.model(
            subscribe={"from": pub_name, "fields": ["name", "value"],
                       "mode": mode},
            name="Doc",
        )
        class SubDoc(Model):
            name = Field(str)
            value = Field(int, default=0)

        subs.append(sub)
    manager = eco.enable_durability(
        data_dir=str(data_dir), fsync=fsync, **durability
    )
    return eco, pub, subs, manager, PubDoc


# -- (a) every record type, byte for byte -------------------------------------

ALL_RECORD_TYPES = {
    "out", "pub", "coal", "shed", "defer", "ack", "decom", "recom",
    "apply", "gen", "pubgen", "obx", "cdc",
}


def drive_every_record_type(data_dir, pub_name, sub_name):
    """One pipeline through flow control, CDC, a generation bump and a
    decommission/recommission: every durable transition is logged."""
    eco, pub, (sub,), manager, PubDoc = build_pipeline(
        data_dir, pub_name, (sub_name,), mode="weak",
        flow=FlowConfig(capacity=6),
    )
    pub.enable_outbox()
    queue = sub.subscriber.queue
    with pub.controller():  # out, pub; the update folds in: coal
        doc = PubDoc.create(name="doc", value=0)
        doc.value = 1
        doc.save()
    queue.defer(queue.pop())  # defer
    sub.subscriber.drain()  # apply, ack
    with pub.controller():  # past the high watermark: shed
        for i in range(12):
            PubDoc.create(name=f"flood-{i}", value=i)
    sub.subscriber.drain()
    pub.raw_session().insert(PubDoc, {"name": "raw", "value": 5})  # obx
    pub.cdc_poller.poll()  # out with cur, cdc
    sub.subscriber.drain()
    pub.recover_publisher_version_store()  # pubgen
    with pub.controller():
        PubDoc.create(name="second-generation")
    sub.subscriber.drain()  # gen
    queue.max_size = 1
    with pub.controller():  # one too many: decom
        PubDoc.create(name="fits")
        PubDoc.create(name="kills")
    queue.recommission()  # recom
    # Forwarded by another shard, whose log holds its out record: pub.
    eco.broker.deliver_remote(sub_name, Message(
        app=pub_name, operations=[], dependencies={}, published_at=0.0,
        uid=f"{pub_name}:far",
    ).to_json())
    return manager


def assert_reference_lines(manager):
    """Each line is the reference envelope of what it decodes to;
    returns the record types seen."""
    seen = set()
    for line in lines_on_disk(manager):
        rec = decode_record(line)
        assert line == reference_line(rec)
        seen.add(rec["t"])
    return seen


#: Quotes, backslashes, control characters, non-ASCII (BMP and beyond).
awkward_names = st.text(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f :%{}[],é☃\U0001f600ab'),
    min_size=1, max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(pub_name=awkward_names, sub_name=awkward_names)
def test_every_record_type_is_its_reference_envelope(pub_name, sub_name):
    if pub_name == sub_name:
        sub_name += "'"
    with tempfile.TemporaryDirectory() as data_dir:
        manager = drive_every_record_type(data_dir, pub_name, sub_name)
        try:
            assert assert_reference_lines(manager) == ALL_RECORD_TYPES
        finally:
            manager.close()


def test_plain_names_too(tmp_path):
    manager = drive_every_record_type(tmp_path, "pub", "sub")
    assert assert_reference_lines(manager) == ALL_RECORD_TYPES
    cdc_out = [
        rec for rec in records_on_disk(manager)
        if rec["t"] == "out" and "cur" in rec
    ]
    assert len(cdc_out) == 1 and cdc_out[0]["m"]["cdc"] == cdc_out[0]["cur"]


@pytest.mark.parametrize("layout, broken", [
    # An escape forgotten: the name goes in raw.
    ("ack_record",
     lambda queue_name, uid: f'{{"q":"{queue_name}","t":"ack","uid":"{uid}"}}'),
    # Two keys swapped: ``cur`` sorts between ``app`` and ``m``.
    ("out_record",
     lambda app, body, counters, cursor=None, queues=(): (
         f'{{"app":{json.dumps(app)},"m":{body},'
         + ("" if cursor is None else f'"cur":{json.dumps(cursor)},')
         + f'"q":{json.dumps(list(queues))},"t":"out",'
         + f'"vs":{json.dumps(counters, sort_keys=True, separators=(",", ":"))}}}'
     )),
])
def test_the_property_catches_a_broken_layout(
    tmp_path, monkeypatch, layout, broken
):
    monkeypatch.setattr(wal_mod, layout, broken)
    manager = drive_every_record_type(tmp_path, 'p"ub', "sub")
    with pytest.raises(Exception):  # WALCorrupt (unparseable) or a diff
        assert_reference_lines(manager)


# -- (b) a step is in the file when its caller is answered, in one write -----

def test_returned_publish_and_drained_message_are_in_the_file(tmp_path):
    eco, pub, subs, manager, PubDoc = build_pipeline(
        tmp_path, subscribers=("sub_a", "sub_b", "sub_c")
    )
    flushes = lambda: eco.metrics.value("durability.wal.flushes")  # noqa: E731
    with pub.controller():
        PubDoc.create(name="doc", value=1)
    # No sync(), no close(): save() returned, so its out record, naming
    # the three queues it was delivered to, is there.
    assert [(rec["t"], rec["q"]) for rec in records_on_disk(manager)] == [
        ("out", ["sub_a", "sub_b", "sub_c"]),
    ]
    assert flushes() == 1
    for count, sub in enumerate(subs, start=1):
        assert sub.subscriber.drain() == 1
        tail = records_on_disk(manager)[-2:]
        assert [rec["t"] for rec in tail] == ["apply", "ack"]
        assert tail[0]["svc"] == tail[1]["q"] == sub.name
        assert flushes() == 1 + count
    assert eco.metrics.value("durability.wal.appends") == 7


@pytest.mark.parametrize("flow, tail", [
    # Batches of one: apply, ack, apply, ack ... — still one step.
    (None, ["apply", "ack"] * 5),
    (FlowConfig(batch_max=8), ["apply"] * 5 + ["ack"] * 5),
])
def test_what_one_drain_round_popped_is_one_step(tmp_path, flow, tail):
    eco, pub, (sub,), manager, PubDoc = build_pipeline(tmp_path, flow=flow)
    with pub.controller():
        for i in range(5):
            PubDoc.create(name=f"doc-{i}", value=i)
    before = eco.metrics.value("durability.wal.flushes")
    assert sub.subscriber.drain() == 5
    # Five applies and the five acks that settle them: one write.
    assert eco.metrics.value("durability.wal.flushes") == before + 1
    assert [rec["t"] for rec in records_on_disk(manager)[-10:]] == tail


def test_a_long_step_is_written_a_group_at_a_time(tmp_path):
    """The buffer is bounded by ``group_max`` whatever holds it."""
    eco, pub, (sub,), manager, PubDoc = build_pipeline(tmp_path, group_max=4)
    with manager.step:
        for logged in range(1, 10):
            manager.log_transition(QUEUE_RECOMMISSIONED, ("sub",))
            assert len(lines_on_disk(manager)) == logged // 4 * 4
    assert len(lines_on_disk(manager)) == 9


def test_append_outside_a_step_is_written_at_once(tmp_path):
    eco, pub, (sub,), manager, PubDoc = build_pipeline(tmp_path)
    with pub.controller():
        PubDoc.create(name="doc")
    queue = sub.subscriber.queue
    message = queue.pop()
    assert sub.subscriber.process_message(message)
    assert records_on_disk(manager)[-1]["t"] == "apply"
    queue.ack(message)
    assert records_on_disk(manager)[-1]["t"] == "ack"


def test_the_step_write_is_a_span_on_the_message_trace(tmp_path):
    eco, pub, (sub,), manager, PubDoc = build_pipeline(tmp_path)
    eco.enable_tracing()
    with pub.controller():
        PubDoc.create(name="doc")
    sub.subscriber.drain()
    # The publish step's write and the drain step's.
    assert eco.tracer.last().stages().count(STAGE_WAL_FLUSH) == 2


# -- (c) overlapping steps: append order, queue order -------------------------

def two_publishers_two_subscribers(data_dir):
    """``pub_a`` and ``pub_b`` each fanned out to ``sub_1`` and
    ``sub_2``, durability armed."""
    eco = Ecosystem()
    publishers = []
    for name in ("pub_a", "pub_b"):
        pub = eco.service(name, database=MongoLike(f"{name}-db"))

        @pub.model(publish=["name"], name=f"Doc_{name}")
        class PubDoc(Model):
            name = Field(str)

        publishers.append((pub, PubDoc))
    for sub_name in ("sub_1", "sub_2"):
        sub = eco.service(sub_name, database=MongoLike(f"{sub_name}-db"))
        for pub, _ in publishers:

            @sub.model(
                subscribe={"from": pub.name, "fields": ["name"]},
                name=f"Doc_{pub.name}",
            )
            class SubDoc(Model):
                name = Field(str)

    return eco, publishers, eco.enable_durability(data_dir=str(data_dir))


def test_overlapping_steps_keep_append_order_and_queue_order(
    tmp_path, monkeypatch
):
    eco, publishers, manager = two_publishers_two_subscribers(tmp_path)
    appended = {}
    real_append = SegmentedWAL.append

    def recording_append(self, rec, *args, **kwargs):
        position = real_append(self, rec, *args, **kwargs)
        appended[position] = rec
        return position

    monkeypatch.setattr(SegmentedWAL, "append", recording_append)
    writes = 150
    errors = []

    def publish(pub, model):
        try:
            for i in range(writes):
                with pub.controller():
                    model.create(name=f"{pub.name}-{i}")
        except Exception as exc:  # pragma: no cover - the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=publish, args=pair) for pair in publishers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)

    lines = lines_on_disk(manager)
    assert len(lines) == len(appended) == 2 * writes  # one out each
    # The file is append order: line i is the record given position i.
    assert lines == [
        encode_record(appended[position]) for position in sorted(appended)
    ]
    records = [decode_record(line) for line in lines]
    assert {rec["t"] for rec in records} == {"out"}
    manager.close()
    eco_b, _, manager_b = two_publishers_two_subscribers(tmp_path)
    assert manager_b.restore().requeued == 2 * 2 * writes
    for sub_name in ("sub_1", "sub_2"):
        logged = [rec["m"]["uid"] for rec in records if sub_name in rec["q"]]
        assert len(logged) == 2 * writes
        # A restored queue is in the order of the out records naming it.
        restored = eco_b.broker.queue_for(sub_name).peek_all()
        assert [message.uid for message in restored] == logged
        # Live, two publishes that overlapped in time (one per thread)
        # may have reached the queue the other way round: dependencies,
        # not queue position, decide apply order. One thread's own
        # publishes never overlap, so each keeps its out-record order.
        live = [m.uid for m in eco.broker.queue_for(sub_name).peek_all()]
        assert sorted(live) == sorted(logged)
        for pub, _ in publishers:
            mine = lambda uids: [uid for uid in uids if uid.startswith(pub.name)]  # noqa: E731
            assert mine(live) == mine(logged)


# -- (d) flushed before forwarded ---------------------------------------------

def test_forwarder_finds_the_out_record_in_the_file(tmp_path):
    eco, pub, subs, manager, PubDoc = build_pipeline(
        tmp_path, subscribers=("near", "far")
    )
    forwarded = []

    def forwarder(subscriber, payload):
        uid = json.loads(payload)["uid"]
        on_disk = [
            (rec["t"], rec.get("q")) for rec in records_on_disk(manager)
            if rec.get("m", {}).get("uid") == uid
        ]
        forwarded.append((subscriber, on_disk))

    eco.broker.attach(placement=(lambda sub: sub != "far", forwarder))
    with pub.controller():
        PubDoc.create(name="plain")
    # Nested in a step somebody else holds open (a callback's publish
    # inside a drain step): its records still go out before the forward.
    with manager.step:
        with pub.controller():
            PubDoc.create(name="nested")
    assert forwarded == [
        ("far", [("out", ["near"])]),
        ("far", [("out", ["near"])]),
    ]


# -- (e) SIGKILL inside a step -------------------------------------------------

def test_sigkill_inside_a_step_keeps_every_returned_publish():
    """The kill-restart scenario's child dies on its ninth append — the
    ``out`` record of its ninth publish, held in the step's buffer. The
    scenario checks the orphaned log line by line and counts the
    publishes that had returned against what restore brings back."""
    violations = durability_kill_restart_scenario()
    assert violations == [], [str(v) for v in violations]


def test_kill_restart_scenario_notices_a_late_step_write(monkeypatch):
    """Its teeth: with the step's write put off past the caller's
    return (here: never made), returned publishes are missing."""
    real_init = SegmentedWAL.__init__

    def roomy_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.group_max = 64  # the scenario's 4 would write every 2nd step

    monkeypatch.setattr(SegmentedWAL, "__init__", roomy_init)
    monkeypatch.setattr(SegmentedWAL, "flush", lambda self: False)
    violations = durability_kill_restart_scenario()
    assert any("returned" in str(v) for v in violations), violations


# -- (f) one append, one encode per record ------------------------------------

def test_append_and_encode_record_run_once_per_record(tmp_path, monkeypatch):
    eco, pub, subs, manager, PubDoc = build_pipeline(
        tmp_path, subscribers=("sub_a", "sub_b", "sub_c")
    )
    calls = {"append": 0, "encode": 0, "bytes": 0}
    real_append, real_encode = SegmentedWAL.append, wal_mod.encode_record

    def counting_append(*args, **kwargs):
        calls["append"] += 1
        return real_append(*args, **kwargs)

    def counting_encode(*args, **kwargs):
        calls["encode"] += 1
        line = real_encode(*args, **kwargs)
        calls["bytes"] += len(line) + 1
        return line

    # The way benchmarks/e2e/trace.py wraps them: by name, on the class
    # and on the module.
    monkeypatch.setattr(SegmentedWAL, "append", counting_append)
    monkeypatch.setattr(wal_mod, "encode_record", counting_encode)
    with pub.controller():
        PubDoc.create(name="doc", value=1)
    for sub in subs:
        sub.subscriber.drain()
    lines = lines_on_disk(manager)
    assert calls["append"] == calls["encode"] == len(lines) == 7
    assert calls["bytes"] == sum(len(line) + 1 for line in lines)


# -- (g) the other two policies are as they were ------------------------------

def test_interval_loses_exactly_its_unsynced_tail(tmp_path):
    eco, pub, (sub,), manager, PubDoc = build_pipeline(
        tmp_path, fsync="interval", group_max=8
    )
    with pub.controller():
        for i in range(3):
            PubDoc.create(name=f"doc-{i}", value=i)
    sub.subscriber.drain()
    appends = eco.metrics.value("durability.wal.appends")
    assert appends == 3 * 3  # out, apply, ack
    # Steps ended, nothing was synced: only the full group is in the
    # file, and it was fsynced.
    assert len(lines_on_disk(manager)) == 8
    assert eco.metrics.value("durability.wal.fsyncs") == 1
    assert manager.wal.drop_buffered_tail() == appends - 8
    assert manager.wal.position() == (1, 8)


def test_always_fsyncs_every_record(tmp_path):
    eco, pub, (sub,), manager, PubDoc = build_pipeline(tmp_path, fsync="always")
    real_flush = manager.wal._flush_buffer_locked
    seen = []

    def watching_flush():
        seen.append(len(manager.wal._buffer))
        return real_flush()

    manager.wal._flush_buffer_locked = watching_flush
    with pub.controller():
        PubDoc.create(name="doc")
    sub.subscriber.drain()
    assert eco.metrics.value("durability.wal.appends") == 3
    assert eco.metrics.value("durability.wal.fsyncs") == 3
    assert seen == [1, 1, 1]  # never more than the record just appended
    assert len(lines_on_disk(manager)) == 3
