"""The CDC poller: tail the outbox, feed the publisher path.

One poller per outboxed service. Each :meth:`poll` reads every entry
past the cursor in commit order, publishes it through
``SynapsePublisher.ingest_cdc`` — so dependency collection, delivery
semantics, flow admission, tracing and audits apply exactly as for ORM
writes — and advances the cursor.

Cursor durability has two layers, both through the PR-7 WAL:

1. **Piggyback**: every CDC publish's ``out`` record carries
   ``cur = <outbox seq>``, so cursor-advance is atomic with the
   publisher-counter capture in one WAL append. A crash *before* that
   append leaves the cursor behind the entry → clean republish under
   the entry's stable ``<app>:cdc:<seq>`` uid (nothing was forwarded:
   the forward waits for the step's write). A crash *after* it but before queue admission leaves the
   cursor past a never-enqueued entry → replica divergence in the same
   accepted window as the ORM path, healed by audit + targeted repair.
2. **Checkpoint**: each poll batch ends with an explicit
   ``{"t": "cdc", "svc": ..., "cur": ...}`` record (the golden-pinned
   cursor checkpoint), so an idle tail's position survives compaction.

Restore replays both to ``DurabilityManager.cdc_cursors`` (set-to-max)
and pushes them back into the live pollers. At-least-once tailing plus
stable uids makes a kill -9 mid-tail effectively exactly-once.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cdc.outbox import OutboxTable, check_entry_version, entry_row
from repro.durability.wal import CrashInjector
from repro.errors import CdcError
from repro.runtime.interleave import CDC_CURSOR_ADVANCED, emit


class PollCrash(CrashInjector):
    """Deterministic crash-point injection for poller recovery tests.

    Points: ``before-publish`` (entry read, nothing durable),
    ``after-publish`` (message published and its ``out`` record — with
    the piggybacked cursor — appended; the explicit checkpoint record
    has not been), ``after-checkpoint`` (batch checkpoint appended).
    """

    POINTS = ("before-publish", "after-publish", "after-checkpoint")
    ERROR, NAME = CdcError, "poller crash"

    def __init__(self, point: str, after: int = 1, hard: bool = False):
        super().__init__(point, after, hard)


class CdcPoller:
    """Tails one service's outbox into its publisher."""

    def __init__(self, service: Any, outbox: OutboxTable) -> None:
        self.service = service
        self.outbox = outbox
        #: Highest outbox sequence already published. Restored from the
        #: WAL (piggyback + checkpoint records) after a crash.
        self.cursor = 0
        #: Optional :class:`PollCrash` armed by recovery tests.
        self.injector: Optional[PollCrash] = None
        metrics = service.ecosystem.metrics
        self._published = metrics.counter(f"cdc.{service.name}.published")
        #: Commit-to-publish latency of each tailed entry.
        self.poll_lag = metrics.histogram(f"cdc.{service.name}.poll_lag")

    # -- introspection -----------------------------------------------------

    def backlog(self) -> int:
        return self.outbox.backlog(self.cursor)

    def idle(self) -> bool:
        return self.backlog() == 0

    # -- the tail loop -----------------------------------------------------

    def poll(self, max_entries: Optional[int] = None) -> int:
        """Publish every outbox entry past the cursor (bounded by
        ``max_entries``); returns how many were published."""
        entries = self.outbox.pending(self.cursor, limit=max_entries)
        if not entries:
            return 0
        clock = self.service.ecosystem.clock
        published = 0
        for entry in entries:
            check_entry_version(entry)
            if self.injector is not None:
                self.injector.fire("before-publish")
            seq = entry["seq"]
            model_cls = self.service.registry.get(entry["model"])
            if model_cls is None:
                raise CdcError(
                    f"outbox entry seq={seq} names unknown model "
                    f"{entry['model']!r}"
                )
            self.service.publisher.ingest_cdc(
                entry["kind"], model_cls, entry_row(entry), seq
            )
            if self.injector is not None:
                self.injector.fire("after-publish")
            self.cursor = max(self.cursor, seq)
            published += 1
            committed_at = entry.get("committed_at")
            if committed_at is not None:
                self.poll_lag.record(
                    max(0.0, clock.monotonic() - committed_at)
                )
        if published:
            self._published.increment(published)
            # Checkpoint: keeps an idle tail's position durable across
            # compaction even when no piggybacked ``out`` record follows.
            emit(self.service.ecosystem.durability, CDC_CURSOR_ADVANCED, self.service, self.cursor)
        if self.injector is not None:
            self.injector.fire("after-checkpoint")
        return published

    def adopt_cursor(self, cursor: int) -> None:
        """Restore-time: never move backwards (a replayed piggyback may
        trail a later checkpoint)."""
        self.cursor = max(self.cursor, cursor)
