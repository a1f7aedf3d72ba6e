"""The transactional outbox: atomic raw writes on both engine classes,
commit-order sequencing, and the golden row format (docs/cdc.md).

The row format is a restart contract like the WAL and wire formats:
snapshots carry outbox rows verbatim and a future poller reads them, so
the exact shape is pinned here as a literal dict.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.apps import build_replicated_pair
from repro.cdc import (
    OUTBOX_MODEL_NAME,
    OUTBOX_VERSION,
    check_entry_version,
    entry_row,
)
from repro.core import Ecosystem
from repro.databases.document import TokuMXLike
from repro.databases.relational import PostgresLike
from repro.errors import CdcError
from repro.orm import Field, Model


def build_pipeline(pub_db=None, mode="causal"):
    """One pub -> sub pipeline with the outbox armed on the publisher."""
    eco = Ecosystem()
    if pub_db is not None:
        eco.service("pub", database=pub_db, delivery_mode=mode)
    _, pub, sub, PubDoc = build_replicated_pair(
        eco, {"name": str, "value": int}, mode=mode
    )

    # Local-only model: raw writes to it must not leave outbox entries,
    # mirroring the ORM path where unpublished writes are not intercepted.
    @pub.model(name="Note")
    class Note(Model):
        body = Field(str)

    pub.enable_outbox()
    return eco, pub, sub, PubDoc, sub.registry["Doc"]


def outbox_rows(pub):
    return pub.outbox.mapper._do_where({}, None, None)


class TestGoldenRowFormat:
    def test_row_exact_shape(self):
        eco, pub, sub, PubDoc, _ = build_pipeline()
        row = pub.raw_session().insert(PubDoc, {"name": "ada", "value": 3})
        (stored,) = outbox_rows(pub)
        entry = dict(stored)
        committed_at = entry.pop("committed_at")
        assert isinstance(committed_at, float)
        assert entry == {
            "id": 1,
            "seq": 1,
            "v": 1,
            "kind": "create",
            "model": "Doc",
            "row_id": row["id"],
            "attributes": json.dumps(
                {"name": "ada", "value": 3}, sort_keys=True
            ),
        }
        # Attributes are canonical JSON (sorted keys): writer and WAL
        # replayer derive identical rows regardless of dict order.
        assert entry["attributes"] == json.dumps(
            json.loads(entry["attributes"]), sort_keys=True
        )
        assert entry_row(stored) == {
            "id": row["id"], "name": "ada", "value": 3,
        }

    def test_sequence_is_monotonic_across_kinds(self):
        eco, pub, sub, PubDoc, _ = build_pipeline()
        raw = pub.raw_session()
        row = raw.insert(PubDoc, {"name": "a", "value": 1})
        raw.update(PubDoc, row["id"], {"value": 2})
        raw.delete(PubDoc, row["id"])
        entries = sorted(outbox_rows(pub), key=lambda e: e["seq"])
        assert [e["seq"] for e in entries] == [1, 2, 3]
        assert [e["id"] for e in entries] == [1, 2, 3]  # id == seq: PK dedup
        assert [e["kind"] for e in entries] == ["create", "update", "delete"]

    def test_outbox_model_is_registry_bound(self):
        # The registry binding is what makes snapshots capture the
        # outbox with no extra durability code.
        eco, pub, sub, _, _ = build_pipeline()
        assert pub.registry.get(OUTBOX_MODEL_NAME) is pub.outbox.model_cls

    def test_newer_version_refused_legacy_accepted(self):
        with pytest.raises(CdcError, match="newer"):
            check_entry_version({"seq": 4, "v": OUTBOX_VERSION + 1})
        check_entry_version({"seq": 4, "v": OUTBOX_VERSION})
        check_entry_version({"seq": 4})          # legacy: missing v
        check_entry_version({"seq": 4, "v": None})

    def test_poller_refuses_newer_format_rows(self):
        eco, pub, sub, PubDoc, _ = build_pipeline()
        pub.raw_session().insert(PubDoc, {"name": "a", "value": 1})
        (entry,) = outbox_rows(pub)
        pub.outbox.mapper._do_update(entry["id"], {"v": OUTBOX_VERSION + 1})
        with pytest.raises(CdcError, match="newer"):
            pub.cdc_poller.poll()
        assert pub.cdc_poller.cursor == 0  # nothing consumed past the refusal


class TestAtomicity:
    def test_transactional_engine_rolls_back_both(self):
        """Relational engine: data write and outbox insert share one
        engine transaction, so a failed append undoes the data write."""
        eco, pub, sub, PubDoc, _ = build_pipeline(
            pub_db=PostgresLike("pub-db")
        )
        assert pub.database.supports_transactions

        def boom():
            raise RuntimeError("seq allocator down")

        pub.outbox._allocate_seq = boom
        with pytest.raises(RuntimeError, match="seq allocator"):
            pub.raw_session().insert(PubDoc, {"name": "a", "value": 1})
        assert PubDoc.__mapper__._do_where({}, None, None) == []
        assert outbox_rows(pub) == []

    def test_nontransactional_engine_undoes_create(self):
        eco, pub, sub, PubDoc, _ = build_pipeline()  # MongoLike: no txns
        assert not pub.database.supports_transactions

        def boom(kind, model_cls, row):
            raise CdcError("outbox full")

        pub.outbox._append_entry = boom
        with pytest.raises(CdcError, match="outbox full"):
            pub.raw_session().insert(PubDoc, {"name": "a", "value": 1})
        assert PubDoc.__mapper__._do_where({}, None, None) == []
        assert outbox_rows(pub) == []

    def test_nontransactional_engine_restores_prior_on_update(self):
        eco, pub, sub, PubDoc, _ = build_pipeline()
        raw = pub.raw_session()
        row = raw.insert(PubDoc, {"name": "a", "value": 1})

        def boom(kind, model_cls, written):
            raise CdcError("outbox full")

        pub.outbox._append_entry = boom
        with pytest.raises(CdcError, match="outbox full"):
            raw.update(PubDoc, row["id"], {"value": 99})
        (data,) = PubDoc.__mapper__._do_where({}, None, None)
        assert data["value"] == 1          # prior row restored
        assert len(outbox_rows(pub)) == 1  # only the create's entry

    def test_unpublished_model_skips_outbox(self):
        eco, pub, sub, _, _ = build_pipeline()
        row = pub.raw_session().insert("Note", {"body": "local only"})
        notes = pub.registry.get("Note").__mapper__._do_where({}, None, None)
        assert [note["id"] for note in notes] == [row["id"]]
        assert outbox_rows(pub) == []
        assert eco.cdc.idle()


class TestCommittedTail:
    """On a transactional engine an entry is visible before it is
    committed; the poller may only ever read committed ones."""

    @pytest.mark.parametrize("engine", [PostgresLike, TokuMXLike])
    @pytest.mark.parametrize("outcome", ["abort", "commit"])
    def test_poll_waits_out_an_open_transaction(self, engine, outcome):
        eco, pub, sub, PubDoc, SubDoc = build_pipeline(pub_db=engine("pub-db"))
        probe = eco.broker.bind("probe", "pub")
        opened, release = threading.Event(), threading.Event()
        polled = []

        def writer():
            raw = pub.raw_session()
            try:
                with pub.database.begin():
                    raw.insert(PubDoc, {"name": "first", "value": 1})
                    raw.insert(PubDoc, {"name": "second", "value": 2})
                    opened.set()
                    assert release.wait(5.0)
                    if outcome == "abort":
                        raise RuntimeError("abort")
            except RuntimeError:
                pass

        writing = threading.Thread(target=writer)
        polling = threading.Thread(
            target=lambda: polled.append(eco.cdc.poll_all())
        )
        writing.start()
        assert opened.wait(5.0)
        polling.start()
        polling.join(0.2)
        read_early = not polling.is_alive()
        release.set()
        writing.join(5.0)
        polling.join(5.0)
        assert not writing.is_alive() and not polling.is_alive()
        assert not read_early  # the poll waited for the transaction

        eco.drain_all()
        uids = [message.uid for message in probe.pop_many(10, timeout=0.0)]
        names = sorted(
            row["name"] for row in SubDoc.__mapper__._do_where({}, None, None)
        )
        if outcome == "abort":
            assert polled == [0] and pub.cdc_poller.cursor == 0
            assert uids == [] and names == []
            assert outbox_rows(pub) == []
        else:
            assert polled == [2] and pub.cdc_poller.cursor == 2
            assert uids == ["pub:cdc:1", "pub:cdc:2"]
            assert names == ["first", "second"]

    def test_poll_inside_own_transaction_publishes_nothing(self):
        eco, pub, sub, PubDoc, SubDoc = build_pipeline(
            pub_db=PostgresLike("pub-db")
        )
        with pub.database.begin():
            pub.raw_session().insert(PubDoc, {"name": "a", "value": 1})
            assert pub.cdc_poller.poll() == 0
            assert pub.cdc_poller.cursor == 0
            assert not pub.cdc_poller.idle()  # in flight, not absent
        assert eco.drain_all() == 2  # one poll, one apply
        assert pub.cdc_poller.idle()
        assert len(SubDoc.__mapper__._do_where({}, None, None)) == 1


class TestRawSession:
    def test_resolves_models_by_registry_name(self):
        eco, pub, sub, PubDoc, SubDoc = build_pipeline()
        pub.raw_session().insert("Doc", {"name": "byname", "value": 7})
        eco.drain_all()
        (row,) = SubDoc.__mapper__._do_where({}, None, None)
        assert (row["name"], row["value"]) == ("byname", 7)

    def test_unknown_model_name_raises(self):
        eco, pub, sub, _, _ = build_pipeline()
        with pytest.raises(CdcError, match="no model named"):
            pub.raw_session().insert("Ghost", {"x": 1})

    def test_unknown_kind_raises(self):
        eco, pub, sub, PubDoc, _ = build_pipeline()
        with pytest.raises(CdcError, match="unknown raw-write kind"):
            pub.outbox.write("upsert", PubDoc, None, {"name": "x"})


class TestSequenceRecovery:
    def test_restore_entry_is_idempotent_and_advances_seq(self):
        eco, pub, sub, PubDoc, _ = build_pipeline()
        entry = {
            "id": 10, "seq": 10, "v": OUTBOX_VERSION, "kind": "create",
            "model": "Doc", "row_id": 5,
            "attributes": json.dumps({"name": "x", "value": 0},
                                     sort_keys=True),
            "committed_at": 0.0,
        }
        pub.outbox.replay(dict(entry))
        pub.outbox.replay(dict(entry))  # replayed twice: PK dedup
        assert len(outbox_rows(pub)) == 1
        (row,) = PubDoc.__mapper__._do_where({}, None, None)
        assert (row["id"], row["name"]) == (5, "x")
        # New raw writes allocate past the replayed tail, never colliding.
        pub.raw_session().insert(PubDoc, {"name": "next", "value": 1})
        assert max(e["seq"] for e in outbox_rows(pub)) == 11

    def test_resync_rederives_next_seq_from_storage(self):
        eco, pub, sub, PubDoc, _ = build_pipeline()
        pub.outbox.mapper._do_insert({
            "id": 42, "seq": 42, "v": OUTBOX_VERSION, "kind": "create",
            "model": "Doc", "row_id": 9,
            "attributes": "{}", "committed_at": 0.0,
        })
        pub.outbox.resync()
        pub.raw_session().insert(PubDoc, {"name": "after", "value": 1})
        assert max(e["seq"] for e in outbox_rows(pub)) == 43
