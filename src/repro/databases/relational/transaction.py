"""Transactions with undo logs and two-phase-commit hooks.

Synapse hijacks the driver's commit path (§4.2): it turns the local commit
into a 2PC so that (1) the local commit, (2) the version-store increments
and (3) the broker publish either all happen or none do. The hooks below
(`on_prepare`, `on_commit`) are that hijack point.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TransactionError

# Undo entries: ("insert", table, row_id) / ("replace", table, row_id, old_row)
# / ("delete", table, old_row)
UndoEntry = Tuple


class Transaction:
    """One transaction over a relational (or document) engine.

    Writes apply to storage immediately and record undo entries; rollback
    replays the undo log in reverse. The owning engine serialises
    transactions with a mutex, giving serialisable isolation — coarse, but
    the paper's algorithms only require that written objects stay locked
    until commit (§4.2 optimisation note).
    """

    PENDING = "pending"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.state = self.PENDING
        self.undo_log: List[UndoEntry] = []
        self.on_prepare: List[Callable[["Transaction"], None]] = []
        self.on_commit: List[Callable[["Transaction"], None]] = []

    # -- undo log -----------------------------------------------------------

    def record_insert(self, table: str, row_id: int) -> None:
        self.undo_log.append(("insert", table, row_id))

    def record_replace(self, table: str, row_id: int, old_row: Dict[str, Any]) -> None:
        self.undo_log.append(("replace", table, row_id, old_row))

    def record_delete(self, table: str, old_row: Dict[str, Any]) -> None:
        self.undo_log.append(("delete", table, old_row))

    # -- lifecycle ----------------------------------------------------------

    def _require(self, *states: str) -> None:
        if self.state not in states:
            raise TransactionError(
                f"transaction is {self.state}, expected one of {states}"
            )

    def prepare(self) -> None:
        """Phase one: run prepare hooks; any failure aborts."""
        self._require(self.PENDING)
        try:
            for hook in self.on_prepare:
                hook(self)
        except Exception:
            self.rollback()
            raise
        self.state = self.PREPARED

    def commit(self) -> None:
        """Phase two: the commit hooks run before the engine releases the
        written rows, so what they do is atomic with the commit."""
        self._require(self.PENDING, self.PREPARED)
        if self.state == self.PENDING:
            self.prepare()
        self.state = self.COMMITTED
        try:
            for hook in self.on_commit:
                hook(self)
        finally:
            self.engine._finish_transaction(self)

    def rollback(self) -> None:
        if self.state in (self.COMMITTED, self.ABORTED):
            raise TransactionError(f"cannot rollback a {self.state} transaction")
        for entry in reversed(self.undo_log):
            kind = entry[0]
            if kind == "insert":
                _, table, row_id = entry
                self.engine._undo_insert(table, row_id)
            elif kind == "replace":
                _, table, row_id, old_row = entry
                self.engine._undo_replace(table, row_id, old_row)
            elif kind == "delete":
                _, table, old_row = entry
                self.engine._undo_delete(table, old_row)
        self.state = self.ABORTED
        self.engine._finish_transaction(self)

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            if self.state in (self.PENDING, self.PREPARED):
                self.rollback()
            return False
        if self.state in (self.PENDING, self.PREPARED):
            self.commit()
        return False


class _Current(threading.local):
    """Each thread's current transaction: the class default answers a
    thread that never began one without a failed attribute lookup."""

    txn: Optional[Transaction] = None


class TransactionManager:
    """Per-engine transaction bookkeeping: a mutex serialising writers and
    a thread-local current transaction so ORM code need not thread the
    transaction object through every call."""

    def __init__(self) -> None:
        self._mutex = threading.RLock()
        self._local = _Current()

    def begin(self, engine: Any) -> Transaction:
        if self.current() is not None:
            raise TransactionError("nested transactions are not supported")
        self._mutex.acquire()
        txn = Transaction(engine)
        self._local.txn = txn
        return txn

    def current(self) -> Optional[Transaction]:
        return self._local.txn

    def finish(self, txn: Transaction) -> None:
        if self.current() is txn:
            self._local.txn = None
            self._mutex.release()
