"""The transactional outbox: ORM-bypassing writes Synapse still sees.

The paper concedes (§7) that Synapse misses any write that bypasses the
ORM. The outbox closes that gap the way production systems do: a
``raw_write`` commits the data row *and* a sequenced outbox record in
the same engine transaction, so the write and its intent-to-publish are
atomic. The CDC poller (:mod:`repro.cdc.poller`) tails the outbox in
commit order and feeds each entry into the ordinary publisher path.

Atomicity per engine family:

- engines with real transactions (relational, TokuMX-like document):
  the data write and the outbox insert run inside one ``db.begin()``;
  the engine's own undo log rolls both back together.
- engines without transactions: both ops run under the engine-wide
  operation lock, and a failed outbox insert manually undoes the data
  write (delete the insert / restore the prior row) before re-raising —
  the same all-or-nothing contract, enforced by the front-end.

Sequencing: the outbox sequence is allocated *inside* the engine's
critical section (the transaction mutex or the operation lock), so
sequence order equals commit order.

What the poller may read, per engine family:

- engines without transactions: an entry is inserted last, under the
  operation lock, so a visible entry is a committed one and the tail is
  read as it stands.
- engines with transactions write to storage at once and undo on
  rollback, so an entry is *visible* before it is *committed*. The tail
  is therefore read inside the engine's own commit critical section (a
  read-only ``db.begin()``, which waits out any open transaction): the
  poller's cursor can never pass an entry that has not committed, or
  publish one that then aborts. A poll from a thread that is itself
  inside an open transaction reads nothing — it cannot wait for itself.
  :meth:`OutboxTable.backlog` counts visible entries, committed or not
  (an open transaction's appends are in flight), so the tail is never
  reported idle over them.

On-disk row format (version ``OUTBOX_VERSION``; golden-pinned in
``tests/cdc/test_outbox.py``)::

    {"id": <seq>, "seq": <seq>, "v": 1, "kind": "create|update|delete",
     "model": "<ModelName>", "row_id": <id>,
     "attributes": "<json object, sorted keys>",
     "committed_at": <monotonic float>}

``id == seq`` makes WAL-replay dedup a primary-key lookup. Rows from a
*newer* format version are refused by the poller; rows missing ``v``
(legacy) are accepted as version 1.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Optional

from repro.errors import CdcError
from repro.orm.fields import Field
from repro.orm.mapper import mapper_for
from repro.orm.model import Model, bind_model
from repro.runtime.interleave import OUTBOX_COMMITTED, emit

#: Outbox row format version. Bump when a field changes meaning; the
#: poller refuses rows from a newer version instead of misreading them.
OUTBOX_VERSION = 1

#: The registry name of each service's outbox model. Registering it as
#: an ordinary model means snapshots capture and restore outbox rows
#: with no extra durability code.
OUTBOX_MODEL_NAME = "SynapseOutbox"


def _make_outbox_model() -> type:
    """A fresh outbox model class per service: ``bind_model`` stores the
    mapper on the class, so services cannot share one."""

    class SynapseOutbox(Model):
        seq = Field(int)
        v = Field(int, default=OUTBOX_VERSION)
        kind = Field(str)
        model = Field(str)
        row_id = Field(int)
        attributes = Field(str)
        committed_at = Field(float)

    return SynapseOutbox


def entry_row(entry: Dict[str, Any]) -> Dict[str, Any]:
    """The data row an outbox entry describes (id restored)."""
    row = json.loads(entry["attributes"]) if entry.get("attributes") else {}
    row["id"] = entry["row_id"]
    return row


def check_entry_version(entry: Dict[str, Any]) -> None:
    """Refuse entries from a newer outbox format; rows missing ``v``
    (legacy) pass as version 1."""
    version = entry.get("v", 1)
    if version is None:
        version = 1
    if version > OUTBOX_VERSION:
        raise CdcError(
            f"outbox entry seq={entry.get('seq')} is format version "
            f"{version}, newer than supported {OUTBOX_VERSION}; upgrade "
            "this poller before the writer"
        )


class OutboxTable:
    """One service's transactional outbox over its own engine."""

    def __init__(self, service: Any) -> None:
        if service.database is None:
            raise CdcError(
                f"service {service.name!r} has no database; a raw-write "
                "front-end needs an engine to commit into"
            )
        self.service = service
        self.model_cls = _make_outbox_model()
        self.mapper = mapper_for(service.database)
        # No interceptor: outbox rows must not themselves publish. The
        # registry binding is what makes snapshots carry the outbox.
        bind_model(
            self.model_cls,
            service.database,
            registry=service.registry,
            mapper=self.mapper,
        )
        self._seq_lock = threading.Lock()
        self._next_seq = self._max_seq() + 1
        metrics = service.ecosystem.metrics
        self._appended = metrics.counter(f"cdc.{service.name}.appended")

    # -- sequencing --------------------------------------------------------

    def _max_seq(self) -> int:
        rows = self.mapper._do_where({}, None, None)
        return max((row.get("seq") or 0 for row in rows), default=0)

    def resync(self) -> None:
        """Re-derive the next sequence from storage — after a restore
        rebuilt the outbox rows underneath this process."""
        with self._seq_lock:
            self._next_seq = max(self._next_seq, self._max_seq() + 1)

    def _allocate_seq(self) -> int:
        with self._seq_lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    # -- reads (poller side) ----------------------------------------------

    def pending(
        self, after_seq: int, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Committed entries past the cursor, in commit (= sequence)
        order (module docstring: what the poller may read)."""
        db = self.service.database
        if not db.supports_transactions:
            return self._tail(after_seq, limit)
        if db.current_transaction() is not None:
            return []
        with db.begin():
            return self._tail(after_seq, limit)

    def _tail(
        self, after_seq: int, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        rows = [
            row
            for row in self.mapper._do_where({}, None, None)
            if (row.get("seq") or 0) > after_seq
        ]
        rows.sort(key=lambda row: row["seq"])
        return rows[:limit] if limit is not None else rows

    def backlog(self, after_seq: int) -> int:
        """Entries no poll has published yet, the ones an open
        transaction has appended included: they are in flight."""
        return len(self._tail(after_seq))

    # -- the write path ----------------------------------------------------

    def write(self, kind: str, model_cls: type, row_id: Any,
              attrs: Dict[str, Any]) -> Dict[str, Any]:
        """Commit one raw write and its outbox record atomically.

        Returns the written data row. Unpublished models take a plain
        raw write with no outbox entry — the exact parity of the ORM
        path, where unpublished writes are not intercepted either.
        """
        service = self.service
        mapper = model_cls.__mapper__
        if mapper is None or mapper.db is None:
            raise CdcError(
                f"model {model_cls.__name__} is not bound to an engine"
            )
        published = service.published_fields_for(model_cls) is not None
        db = service.database

        def perform() -> Dict[str, Any]:
            if kind == "create":
                return mapper._do_insert(dict(attrs))
            if kind == "update":
                return mapper._do_update(row_id, dict(attrs))
            if kind == "delete":
                return mapper._do_delete(row_id)
            raise CdcError(f"unknown raw-write kind {kind!r}")

        if not published:
            with db._lock:
                return perform()

        if db.supports_transactions:
            active = db.current_transaction()
            if active is not None:
                # Already inside an engine transaction: both writes join
                # it and ride its undo log; post-commit bookkeeping
                # waits for the wrapping commit.
                row = perform()
                entry = self._append_entry(kind, model_cls, row)
                active.on_commit.append(
                    lambda _txn, entry=entry: self._after_commit(entry)
                )
                return row
            with db.begin():
                row = perform()
                entry = self._append_entry(kind, model_cls, row)
            self._after_commit(entry)
            return row

        # Non-transactional engine: the operation lock is the critical
        # section; a failed outbox insert manually undoes the data write.
        with db._lock:
            prior = (
                mapper._do_find(row_id) if kind in ("update", "delete")
                else None
            )
            row = perform()
            try:
                entry = self._append_entry(kind, model_cls, row)
            except Exception:
                self._undo(mapper, kind, row, prior)
                raise
        self._after_commit(entry)
        return row

    @staticmethod
    def _undo(mapper: Any, kind: str, row: Dict[str, Any],
              prior: Optional[Dict[str, Any]]) -> None:
        if kind == "create":
            mapper._do_delete(row["id"])
        elif kind == "update" and prior is not None:
            mapper._do_update(
                prior["id"], {k: v for k, v in prior.items() if k != "id"}
            )
        elif kind == "delete" and prior is not None:
            mapper._do_insert(dict(prior))

    def _append_entry(
        self, kind: str, model_cls: type, row: Dict[str, Any]
    ) -> Dict[str, Any]:
        seq = self._allocate_seq()
        attributes = {k: v for k, v in row.items() if k != "id"}
        entry = {
            "id": seq,
            "seq": seq,
            "v": OUTBOX_VERSION,
            "kind": kind,
            "model": model_cls.__name__,
            "row_id": row.get("id"),
            "attributes": json.dumps(attributes, sort_keys=True),
            "committed_at": self.service.ecosystem.clock.monotonic(),
        }
        self.mapper._do_insert(dict(entry))
        return entry

    def _after_commit(self, entry: Dict[str, Any]) -> None:
        """Post-commit bookkeeping: the obx WAL record (engines are
        in-memory, so a crash before the poll would otherwise lose the
        raw write entirely) and the appended counter."""
        self._appended.increment()
        emit(self.service.ecosystem.durability, OUTBOX_COMMITTED, self.service, entry)

    def replay(self, entry: Dict[str, Any]) -> None:
        """Restore: one ``obx`` record brings back the raw-written data
        row and the outbox row itself — raw upserts keyed by id
        (``id == seq`` for the outbox row), so a snapshot that already
        carries both changes nothing."""
        model_cls = self.service.registry.get(entry.get("model", ""))
        if model_cls is not None:
            mapper = model_cls.__mapper__
            if entry["kind"] == "delete":
                mapper.delete_raw(entry["row_id"])
            else:
                mapper.upsert_raw(entry["row_id"], entry_row(entry))
        self.mapper.upsert_raw(entry["id"], entry)
        with self._seq_lock:
            self._next_seq = max(self._next_seq, entry["seq"] + 1)


class RawSession:
    """The ORM-bypassing write surface: ``service.raw_session()``.

    ::

        raw = inventory.raw_session()
        row = raw.insert(Reservation, {"order_id": 7, "qty": 3})
        raw.update(Reservation, row["id"], {"state": "released"})

    Every call commits the data write and its outbox record atomically;
    the CDC poller replicates them with the same delivery semantics as
    ORM writes. Models may be passed as classes or registry names.
    """

    def __init__(self, outbox: OutboxTable) -> None:
        self.outbox = outbox

    def _resolve(self, model: Any) -> type:
        if isinstance(model, str):
            model_cls = self.outbox.service.registry.get(model)
            if model_cls is None:
                raise CdcError(
                    f"service {self.outbox.service.name!r} has no model "
                    f"named {model!r}"
                )
            return model_cls
        return model

    def insert(self, model: Any, attrs: Dict[str, Any]) -> Dict[str, Any]:
        return self.outbox.write("create", self._resolve(model), None, attrs)

    def update(self, model: Any, row_id: Any,
               attrs: Dict[str, Any]) -> Dict[str, Any]:
        return self.outbox.write("update", self._resolve(model), row_id, attrs)

    def delete(self, model: Any, row_id: Any) -> Dict[str, Any]:
        return self.outbox.write("delete", self._resolve(model), row_id, {})
