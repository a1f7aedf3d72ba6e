"""Restore and audit read a subscription the way the live apply does.

The field map (§3.1) lands a remote attribute on a same-named, a renamed
(``as:``) or a virtual local attribute. Every scenario here runs one
live process, abandons it without a snapshot (a crash) and restores a
second process over the same data dir: rows, counters and the dedup
window must equal the live process's — whatever the mapping, the engine
and the delivery class of the logged applies. The last class pins what
the WAL tail does *not* restore (docs/durability.md).
"""

from __future__ import annotations

import pytest

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model, VirtualField, before_save
from repro.runtime import interleave

ENGINES = {"postgres": PostgresLike, "mongo": MongoLike}


def _subscriber_model(sub, mapping, mode):
    if mapping == "virtual":
        fields = {"name": "shout", "value": "value"}
    elif mapping == "rename":
        fields = {"name": "title", "value": "value"}
    else:
        fields = ["name", "value"]

    @sub.model(subscribe={"from": "pub", "fields": fields, "mode": mode}, name="Doc")
    class SubDoc(Model):
        if mapping == "virtual":
            #: Stored upper-cased; the wire carries the publisher's form.
            upper = Field(str)
            shout = VirtualField()

            def shout_set(self, value):
                self.upper = value.upper()

            def shout_get(self):
                return self.upper.lower()
        elif mapping == "rename":
            title = Field(str)
        else:
            name = Field(str)
        value = Field(int, default=0)

    return SubDoc


def build(data_dir, engine="postgres", mapping="plain", mode="causal"):
    if mapping == "pair":
        # The apps builder's pair (MongoLike -> PostgresLike, same names).
        eco, pub, sub, PubDoc = build_replicated_pair(
            fields={"name": str, "value": int}, mode=mode
        )
        manager = eco.enable_durability(data_dir=str(data_dir), fsync="off")
        return eco, pub, sub, manager, PubDoc, sub.registry["Doc"]
    eco = Ecosystem()
    pub = eco.service("pub", database=PostgresLike("pub-db"), delivery_mode=mode)

    @pub.model(publish=["name", "value"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        value = Field(int, default=0)

    sub = eco.service("sub", database=ENGINES[engine]("sub-db"))
    SubDoc = _subscriber_model(sub, mapping, mode)
    manager = eco.enable_durability(data_dir=str(data_dir), fsync="off")
    return eco, pub, sub, manager, PubDoc, SubDoc


# -- one live run per delivery class ------------------------------------------


def run_causal(eco, pub, sub, PubDoc, SubDoc):
    with pub.controller():
        docs = [PubDoc.create(name=f"doc{i}", value=i) for i in range(3)]
    with pub.controller():
        docs[0].update(name="renamed", value=10)
        docs[2].destroy()
    assert sub.subscriber.drain() == 5


def run_weak_stale(eco, pub, sub, PubDoc, SubDoc):
    """The update overtakes its create: the late create is discarded."""
    doc = PubDoc.create(name="old", value=1)
    doc.update(name="new", value=2)
    queue = sub.subscriber.queue
    create, update = queue.pop_many(2)
    for message in (update, create):
        assert sub.subscriber.process_message(message)
        queue.ack(message)
    assert eco.metrics.value("subscriber.sub.stale_discarded") == 1


def run_repair(eco, pub, sub, PubDoc, SubDoc):
    """A lost update and a corrupted row, both healed by targeted repair."""
    with pub.controller():
        docs = [PubDoc.create(name=f"doc{i}", value=i) for i in range(3)]
    sub.subscriber.drain()
    eco.broker.drop_next(1)
    with pub.controller():
        docs[1].update(name="lost", value=11)
    SubDoc.__mapper__._do_update(docs[2].id, {"value": 99})
    result = sub.repair_replication()
    assert result.verified_in_sync
    assert eco.metrics.snapshot("repair.")["repair.sub.applied_objects"] == 2


def run_bootstrap_forced_weak(eco, pub, sub, PubDoc, SubDoc):
    """Causal messages applied while bootstrapping: no wait, full bump."""
    eco.broker.drop_next(1)
    with pub.controller():
        PubDoc.create(name="lost", value=0)
    with pub.controller():
        PubDoc.create(name="kept", value=1).update(value=2)
    sub.subscriber.bootstrapping = True
    assert sub.subscriber.drain() == 2


def run_transaction(eco, pub, sub, PubDoc, SubDoc):
    """One ``begin()`` block is one three-operation message."""
    with pub.controller(), pub.database.begin():
        first = PubDoc.create(name="a", value=1)
        PubDoc.create(name="b", value=2)
        first.update(name="a2")
    assert len(sub.subscriber.queue.peek_all()[0].operations) == 3
    assert sub.subscriber.drain() == 1


DELIVERY_CLASSES = {
    "causal": ("causal", run_causal),
    "weak-stale": ("weak", run_weak_stale),
    "repair": ("causal", run_repair),
    "bootstrap-forced-weak": ("causal", run_bootstrap_forced_weak),
    "transaction": ("causal", run_transaction),
}


def raw_rows(model_cls, ids=range(1, 5)):
    return {i: model_cls.__mapper__._do_find(i) for i in ids}


def crash_and_restore(tmp_path, run, **shape):
    """Live process A, then process B restored from A's WAL: the tail
    alone, or after a repair the checkpoint it took (its transfer
    bypasses the per-message log) plus the tail."""
    eco_a, pub_a, sub_a, mgr_a, PubDocA, SubDocA = build(tmp_path, **shape)
    run(eco_a, pub_a, sub_a, PubDocA, SubDocA)
    mgr_a.wal.sync()
    eco_b, pub_b, sub_b, mgr_b, PubDocB, SubDocB = build(tmp_path, **shape)
    report = mgr_b.restore()
    assert not report.unrecoverable
    assert (report.snapshot_id is not None) == (run is run_repair)
    return (eco_a, pub_a, sub_a, mgr_a, SubDocA), (eco_b, pub_b, sub_b, mgr_b, SubDocB)


SHAPES = [
    pytest.param(engine, mapping, delivery, id=f"{engine}-{mapping}-{delivery}")
    for engine in sorted(ENGINES)
    for mapping in ["virtual", "rename", "plain"]
    for delivery in sorted(DELIVERY_CLASSES)
] + [
    # ``build_replicated_pair``; its document-store publisher has no
    # ``begin()``, so no transaction class.
    pytest.param("postgres", "pair", delivery, id=f"pair-{delivery}")
    for delivery in sorted(set(DELIVERY_CLASSES) - {"transaction"})
]


@pytest.mark.parametrize("engine,mapping,delivery", SHAPES)
def test_restore_equals_the_live_process(tmp_path, engine, mapping, delivery):
    mode, run = DELIVERY_CLASSES[delivery]
    live, restored = crash_and_restore(
        tmp_path, run, engine=engine, mapping=mapping, mode=mode
    )
    _, _, sub_a, mgr_a, SubDocA = live
    _, _, sub_b, mgr_b, SubDocB = restored
    assert raw_rows(SubDocB) == raw_rows(SubDocA)
    assert any(row is not None for row in raw_rows(SubDocA).values())
    # Rows of both services, both version stores and generations.
    state_a = mgr_a.capture_state()["services"]
    assert mgr_b.capture_state()["services"] == state_a
    assert state_a["sub"]["svs"]
    assert sub_b.audit_replication().in_sync == sub_a.audit_replication().in_sync


def test_virtual_setter_lands_on_its_column_after_restore(tmp_path):
    """Bug (1): replay wrote the *local attribute name* as a column."""
    _, (_, _, _, _, SubDoc) = crash_and_restore(
        tmp_path, run_causal, engine="mongo", mapping="virtual"
    )
    assert SubDoc.__mapper__._do_find(1) == {"id": 1, "upper": "RENAMED", "value": 10}


def test_replay_fires_nothing_but_the_restore_counter(tmp_path):
    """Replay is the live step with a raw persist: no subscriber
    interleave event, no live-apply metric, no callback."""
    eco_a, pub_a, sub_a, mgr_a, PubDocA, SubDocA = build(tmp_path, mapping="rename")
    run_causal(eco_a, pub_a, sub_a, PubDocA, SubDocA)
    mgr_a.wal.sync()
    eco_b, pub_b, sub_b, mgr_b, _, _ = build(tmp_path, mapping="rename")
    labels = []

    def hook(label, info, pause):
        labels.append(label)

    interleave.install_hook(hook)
    try:
        report = mgr_b.restore()
    finally:
        interleave.uninstall_hook(hook)
    assert report.applied == 5
    assert [label for label in labels if not label.startswith("counter.")] == []
    counters = eco_b.metrics.snapshot("subscriber.sub.")
    assert counters["subscriber.sub.processed"] == 0
    assert counters["subscriber.sub.apply"]["count"] == 0
    assert eco_b.metrics.snapshot("durability.")["durability.restore.applied"] == 5


# -- bug (2): a published virtual attribute is not a column -------------------


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_publisher_virtual_attribute_is_not_restored_as_a_column(tmp_path, engine):
    def build_pub(data_dir):
        eco = Ecosystem()
        pub = eco.service("pub", database=ENGINES[engine]("pub-db"))

        @pub.model(publish=["name", "shout"], name="Doc")
        class PubDoc(Model):
            name = Field(str)
            shout = VirtualField(getter=lambda doc: doc.name.upper())

        _, pub, sub, _ = build_replicated_pair(eco, {"name": str, "shout": str})
        return eco, pub, sub, eco.enable_durability(data_dir=str(data_dir)), PubDoc

    eco_a, pub_a, sub_a, mgr_a, PubDocA = build_pub(tmp_path)
    PubDocA.create(name="ada").update(name="bob")
    sub_a.subscriber.drain()
    mgr_a.wal.sync()
    eco_b, pub_b, sub_b, mgr_b, PubDocB = build_pub(tmp_path)
    assert not mgr_b.restore().unrecoverable
    assert PubDocB.__mapper__._do_find(1) == PubDocA.__mapper__._do_find(1)
    assert set(PubDocB.__mapper__._do_find(1)) == {"id", "name"}
    assert sub_b.audit_replication().in_sync


# -- bug (3): the digest reads the field map through the model ----------------


class TestAuditOfMappedSubscriptions:
    def _replicated(self, tmp_path, mapping):
        eco, pub, sub, _, PubDoc, SubDoc = build(tmp_path, mapping=mapping)
        with pub.controller():
            for i in range(4):
                PubDoc.create(name=f"doc{i}", value=i)
        sub.subscriber.drain()
        return sub, SubDoc

    @pytest.mark.parametrize("mapping", ["virtual", "rename", "plain"])
    def test_in_sync_and_a_corrupted_row_is_found_and_healed(self, tmp_path, mapping):
        sub, SubDoc = self._replicated(tmp_path, mapping)
        assert sub.audit_replication().in_sync
        column = {"virtual": "upper", "rename": "title", "plain": "name"}[mapping]
        SubDoc.__mapper__._do_update(3, {column: "CORRUPT"})
        report = sub.audit_replication()
        assert report.divergent_for("pub", "Doc") == [3]
        assert sub.repair_replication(report=report).verified_in_sync
        assert SubDoc.__mapper__._do_find(3)[column].lower() == "doc2"

    def test_a_getterless_virtual_local_is_left_out_on_both_sides(self, tmp_path):
        eco = Ecosystem()
        pub = eco.service("pub", database=MongoLike("pub-db"))

        @pub.model(publish=["name", "value"], name="Doc")
        class PubDoc(Model):
            name = Field(str)
            value = Field(int)

        sub = eco.service("sub", database=PostgresLike("sub-db"))

        @sub.model(
            subscribe={"from": "pub", "fields": {"name": "shout", "value": "value"}},
            name="Doc",
        )
        class SubDoc(Model):
            upper = Field(str)
            value = Field(int)
            shout = VirtualField(setter=lambda doc, v: setattr(doc, "upper", v.upper()))

        PubDoc.create(name="ada", value=1)
        sub.subscriber.drain()
        report = sub.audit_replication()
        assert report.in_sync
        assert [audit.fields for audit in report.models] == [["value"]]
        SubDoc.__mapper__._do_update(1, {"value": 5})
        assert sub.audit_replication().divergent_for("pub", "Doc") == [1]


# -- what the WAL tail does not restore (docs/durability.md) ------------------


def build_local_state(data_dir):
    """A publisher with an unpublished column and an unpublished model,
    a subscriber with a callback-computed column."""
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        secret = Field(str)

    @pub.model(name="Note")
    class Note(Model):
        text = Field(str)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="Doc")
    class SubDoc(Model):
        name = Field(str)
        upper = Field(str)

        @before_save
        def compute_upper(self):
            self.upper = self.name.upper()

    manager = eco.enable_durability(data_dir=str(data_dir))
    return pub, sub, manager, PubDoc, Note, SubDoc


class TestWhatTheTailRestores:
    """One test per row of the table in docs/durability.md: local-only
    state is ``None``/absent after a tail-only restore (replay re-fires
    no callback and only carries what rode the wire) and whole once a
    snapshot holds it."""

    def _crash_and_restore(self, tmp_path, snapshot):
        pub_a, sub_a, mgr_a, PubDoc, Note, _ = build_local_state(tmp_path)
        PubDoc.create(name="ada", secret="s3cret")
        Note.create(text="local only")
        sub_a.subscriber.drain()
        if snapshot:
            mgr_a.snapshot()
        PubDoc.create(name="bob", secret="hush")
        sub_a.subscriber.drain()
        mgr_a.wal.sync()
        restored = build_local_state(tmp_path)
        assert not restored[2].restore().unrecoverable
        return restored

    @pytest.mark.parametrize("snapshot", [False, True])
    def test_replicated_attributes_always(self, tmp_path, snapshot):
        pub, sub, _, PubDoc, _, SubDoc = self._crash_and_restore(tmp_path, snapshot)
        assert [PubDoc.__mapper__._do_find(i)["name"] for i in (1, 2)] == ["ada", "bob"]
        assert [SubDoc.__mapper__._do_find(i)["name"] for i in (1, 2)] == ["ada", "bob"]
        assert sub.audit_replication().in_sync

    def test_callback_computed_column_needs_the_snapshot(self, tmp_path):
        *_, SubDoc = self._crash_and_restore(tmp_path, snapshot=False)
        assert SubDoc.__mapper__._do_find(1)["upper"] is None

    def test_callback_computed_column_whole_after_snapshot(self, tmp_path):
        *_, SubDoc = self._crash_and_restore(tmp_path, snapshot=True)
        assert SubDoc.__mapper__._do_find(1)["upper"] == "ADA"
        # ... and the post-snapshot tail still cannot compute it.
        assert SubDoc.__mapper__._do_find(2)["upper"] is None

    def test_unpublished_column_needs_the_snapshot(self, tmp_path):
        _, _, _, PubDoc, _, _ = self._crash_and_restore(tmp_path, snapshot=False)
        assert PubDoc.__mapper__._do_find(1).get("secret") is None

    def test_unpublished_column_whole_after_snapshot(self, tmp_path):
        _, _, _, PubDoc, _, _ = self._crash_and_restore(tmp_path, snapshot=True)
        assert PubDoc.__mapper__._do_find(1)["secret"] == "s3cret"
        assert PubDoc.__mapper__._do_find(2).get("secret") is None

    def test_unpublished_model_needs_the_snapshot(self, tmp_path):
        _, _, _, _, Note, _ = self._crash_and_restore(tmp_path, snapshot=False)
        assert Note.__mapper__._do_where({}, None, None) == []

    def test_unpublished_model_whole_after_snapshot(self, tmp_path):
        _, _, _, _, Note, _ = self._crash_and_restore(tmp_path, snapshot=True)
        assert [row["text"] for row in Note.__mapper__._do_where({}, None, None)] == [
            "local only"
        ]
