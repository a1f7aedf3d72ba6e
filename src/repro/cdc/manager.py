"""The per-ecosystem CDC manager: one poller per outboxed service.

``Ecosystem.enable_cdc()`` builds one of these (idempotently);
``Service.enable_outbox()`` registers a service with it. The manager is
the quiescence surface: ``drain_all``, ``WorkerFleet.wait_until_idle``
and ``cluster_quiesce`` all poll through it and refuse to report idle
while any outbox tail is non-empty.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cdc.outbox import OutboxTable
from repro.cdc.poller import CdcPoller


class CdcManager:
    """All CDC pollers of one ecosystem (one per outboxed service)."""

    def __init__(self, ecosystem: Any) -> None:
        self.ecosystem = ecosystem
        self.pollers: Dict[str, CdcPoller] = {}

    # -- registration ------------------------------------------------------

    def register(self, service: Any) -> CdcPoller:
        poller = self.pollers.get(service.name)
        if poller is None:
            outbox = getattr(service, "outbox", None) or OutboxTable(service)
            poller = CdcPoller(service, outbox)
            self.pollers[service.name] = poller
        return poller

    # -- quiescence surface ------------------------------------------------

    def poll_all(self, max_entries: Optional[int] = None) -> int:
        """One tail pass over every poller; returns entries published."""
        return sum(
            poller.poll(max_entries=max_entries)
            for poller in self.pollers.values()
        )

    def backlog(self) -> int:
        return sum(poller.backlog() for poller in self.pollers.values())

    def idle(self) -> bool:
        return self.backlog() == 0

    def outbox_pending(self, service_name: str) -> int:
        """Unpublished outbox entries of one service — the auditor's
        transit-attribution input (outbox-tail lag is transit, not
        §6.5 loss)."""
        poller = self.pollers.get(service_name)
        return poller.backlog() if poller is not None else 0

    # -- restore plumbing --------------------------------------------------

    def cursors(self) -> Dict[str, int]:
        return {
            name: poller.cursor for name, poller in self.pollers.items()
        }

    def adopt_cursors(self, cursors: Dict[str, int]) -> None:
        for name, cursor in cursors.items():
            poller = self.pollers.get(name)
            if poller is not None:
                poller.adopt_cursor(cursor)

    def resync(self) -> None:
        """After a restore rebuilt outbox rows underneath the process:
        re-derive every outbox's next sequence from storage."""
        for poller in self.pollers.values():
            poller.outbox.resync()
