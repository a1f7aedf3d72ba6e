"""Per-link replication-lag SLOs and the live health report.

The paper's production claim is propagation delay staying sub-second at
Crowdtap scale (§6, Fig 11) — and §6.5 shows what happens when nobody
notices it stop being true. The :class:`LagMonitor` watches every
publisher→subscriber *link* of an ecosystem continuously:

- each applied message contributes its end-to-end lag (apply time minus
  ``published_at``, ecosystem clock) and queue dwell to a sliding-window
  histogram per link;
- :meth:`LagMonitor.link` is the one reading of a link — window
  percentiles, messages in transit, watermark deficits — which
  :meth:`LagMonitor.health` takes for every link and the replication
  auditor for the links it audits;
- a :class:`LinkSLO` (p99 threshold, error budget, stall deadline) is
  evaluated in that reading, using three breach
  signals: window p99 over threshold, budget burn rate over 1, or an
  in-transit message older than the stall deadline (a wedged link never
  applies anything, so its *window* looks healthy — the queue age is
  what gives it away);
- breach *transitions* emit ``slo.breach`` anomalies into the flight
  recorder (dumping the evidence once, not once per health poll).

SLO semantics, pinned down for the edge-case tests: a sample is "over"
iff strictly greater than the threshold; a link with an empty window and
nothing in transit is ``no_data`` (unknown, not breached); p99 exactly
at the threshold is compliant.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

STATUS_OK = "ok"
STATUS_BREACHED = "breached"
STATUS_NO_DATA = "no_data"

#: Registry namespace for the per-link instruments.
def _link_metric(publisher: str, subscriber: str, metric: str) -> str:
    return f"monitor.{publisher}_to_{subscriber}.{metric}"


@dataclass(frozen=True)
class LinkSLO:
    """The lag objective of one replication link.

    ``p99_lag`` — window p99 of end-to-end lag must be <= this (seconds).
    ``over_budget`` — allowed fraction of window samples strictly over
    ``p99_lag``; the burn rate is ``over_fraction / over_budget`` and a
    rate > 1 is a breach (classic error-budget burn).
    ``stall_after`` — any message queued or in flight for longer than
    this (seconds, ecosystem clock) breaches the link even if the apply
    window looks clean.
    ``window`` — sliding-window size in samples.
    """

    p99_lag: float = 1.0
    over_budget: float = 0.01
    stall_after: float = 30.0
    window: int = 1024


class SlidingWindow:
    """Bounded FIFO of the most recent lag samples (not a reservoir: SLO
    evaluation must see exactly the last N, oldest evicted first)."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        self._samples: "deque[float]" = deque(maxlen=size)
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def values(self) -> List[float]:
        with self._lock:
            return list(self._samples)

    def percentile(self, p: float) -> float:
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
            rank = max(1, math.ceil(p / 100.0 * len(ordered)))
            return ordered[rank - 1]

    def over_fraction(self, threshold: float) -> float:
        """Fraction of window samples strictly over ``threshold``."""
        with self._lock:
            if not self._samples:
                return 0.0
            over = sum(1 for value in self._samples if value > threshold)
            return over / len(self._samples)


@dataclass
class LinkHealth:
    """One link's evaluated state inside a :class:`HealthReport`."""

    publisher: str
    subscriber: str
    slo: LinkSLO
    samples: int = 0
    p50: float = 0.0
    p99: float = 0.0
    over_fraction: float = 0.0
    burn_rate: float = 0.0
    queued: int = 0
    in_flight: int = 0
    oldest_in_transit: float = 0.0
    version_lag: int = 0
    #: The deficits themselves: hashed dependency -> counters behind the
    #: publisher's watermark (the repair scope; not in :meth:`to_dict`).
    deficits: Dict[str, int] = field(default_factory=dict)
    #: Counter deficit attributable to deliberate flow-control shedding
    #: (already excluded from ``version_lag``).
    shed_deficit: int = 0
    #: Committed-but-unpublished CDC outbox entries on the publisher:
    #: transit, not §6.5 loss — the poller will publish them.
    outbox_pending: int = 0
    #: Whether the subscriber's queue was killed (§4.4 re-bootstrap).
    decommissioned: bool = False
    status: str = STATUS_NO_DATA
    #: Which signals fired: "p99_lag", "burn_rate", "stalled".
    reasons: List[str] = field(default_factory=list)
    #: Flow-control admission state of the subscriber's queue
    #: ("open"/"throttled"/"shedding"), or "" when flow control is off.
    backpressure: str = ""
    #: Remaining admission credits (None when flow control is off).
    credits: Optional[int] = None

    @property
    def breached(self) -> bool:
        return self.status == STATUS_BREACHED

    @property
    def in_transit(self) -> int:
        """Messages still on their way: queued, popped-unacked, or in
        the publisher's outbox tail. Divergence with none of these is
        the §6.5 loss signature."""
        return self.queued + self.in_flight + self.outbox_pending

    def to_dict(self) -> Dict[str, Any]:
        return {
            "publisher": self.publisher,
            "subscriber": self.subscriber,
            "status": self.status,
            "reasons": list(self.reasons),
            "samples": self.samples,
            "p50": self.p50,
            "p99": self.p99,
            "over_fraction": self.over_fraction,
            "burn_rate": self.burn_rate,
            "queued": self.queued,
            "in_flight": self.in_flight,
            "oldest_in_transit": self.oldest_in_transit,
            "version_lag": self.version_lag,
            "shed_deficit": self.shed_deficit,
            "outbox_pending": self.outbox_pending,
            "decommissioned": self.decommissioned,
            "backpressure": self.backpressure,
            "credits": self.credits,
            "slo": {
                "p99_lag": self.slo.p99_lag,
                "over_budget": self.slo.over_budget,
                "stall_after": self.slo.stall_after,
                "window": self.slo.window,
            },
        }

    def summary_line(self) -> str:
        return format_link(self.to_dict())


def format_link(link: Dict[str, Any]) -> str:
    """One console line for a link, from its :meth:`LinkHealth.to_dict`."""
    tag = link["status"].upper()
    if link["reasons"]:
        tag += f" ({','.join(link['reasons'])})"
    line = (
        f"{link['publisher']} -> {link['subscriber']}: "
        f"p50={link['p50'] * 1000:.1f}ms p99={link['p99'] * 1000:.1f}ms "
        f"burn={link['burn_rate']:.2f} queued={link['queued']} "
        f"in_flight={link['in_flight']} vlag={link['version_lag']}"
    )
    if link["shed_deficit"]:
        line += f" shed={link['shed_deficit']}"
    if link["outbox_pending"]:
        line += f" outbox_pending={link['outbox_pending']}"
    if link["decommissioned"]:
        line += " decommissioned"
    if link["backpressure"]:
        line += f" bp={link['backpressure']}/{link['credits']}"
    return line + f" [{tag}]"


@dataclass
class HealthReport:
    """Everything :meth:`LagMonitor.health` learned in one evaluation."""

    at: float
    links: List[LinkHealth] = field(default_factory=list)

    @property
    def breached(self) -> bool:
        return any(link.breached for link in self.links)

    def link(self, publisher: str, subscriber: str) -> Optional[LinkHealth]:
        for entry in self.links:
            if (entry.publisher, entry.subscriber) == (publisher, subscriber):
                return entry
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "breached": self.breached,
            "links": [link.to_dict() for link in self.links],
        }

    def summary_lines(self) -> List[str]:
        lines = ["replication health:"]
        for link in self.links:
            lines.append("  " + link.summary_line())
        if not self.links:
            lines.append("  (no replication links)")
        return lines


class LagMonitor:
    """Continuous per-link lag monitoring for one ecosystem.

    Links are discovered from subscription declarations, not from
    observed traffic — a link that has never applied a message (wedged
    from the start) still shows up, as ``no_data`` or ``breached`` via
    the stall signal.
    """

    def __init__(
        self, ecosystem: Any, default_slo: Optional[LinkSLO] = None
    ) -> None:
        self.ecosystem = ecosystem
        self.default_slo = default_slo or LinkSLO()
        self._slos: Dict[Tuple[str, str], LinkSLO] = {}
        self._windows: Dict[Tuple[str, str], SlidingWindow] = {}
        #: link -> (window, lag histogram, dwell histogram): what every
        #: apply on the link records into, resolved once per SLO.
        self._instruments: Dict[Tuple[str, str], Tuple[Any, Any, Any]] = {}
        self._breached: Dict[Tuple[str, str], bool] = {}
        self._lock = threading.Lock()

    # -- configuration ------------------------------------------------------

    def set_slo(self, publisher: str, subscriber: str, slo: LinkSLO) -> LinkSLO:
        """Pin one link's SLO (and re-arm its exemplar threshold)."""
        link = (publisher, subscriber)
        with self._lock:
            self._slos[link] = slo
            self._windows.pop(link, None)  # window size may have changed
            self._instruments.pop(link, None)
        self._lag_histogram(publisher, subscriber).exemplar_threshold = slo.p99_lag
        return slo

    def slo_for(self, publisher: str, subscriber: str) -> LinkSLO:
        with self._lock:
            return self._slos.get((publisher, subscriber), self.default_slo)

    # -- instruments --------------------------------------------------------

    def _window_for(self, publisher: str, subscriber: str) -> SlidingWindow:
        link = (publisher, subscriber)
        with self._lock:
            window = self._windows.get(link)
            if window is None:
                slo = self._slos.get(link, self.default_slo)
                window = self._windows[link] = SlidingWindow(slo.window)
            return window

    def _lag_histogram(self, publisher: str, subscriber: str) -> Any:
        registry = self.ecosystem.metrics
        histogram = registry.histogram(_link_metric(publisher, subscriber, "lag"))
        if histogram.exemplar_threshold is None:
            # Arm exemplar capture at the SLO threshold: any over-SLO
            # apply observed under an active trace links percentile to
            # the offending message uid.
            histogram.exemplar_threshold = self.slo_for(publisher, subscriber).p99_lag
        return histogram

    # -- the hot-path hook --------------------------------------------------

    def observe_applied(self, subscriber_name: str, message: Any) -> None:
        """Called by the subscriber engine once per applied message."""
        lag = self.ecosystem.clock.now() - message.published_at
        if lag < 0:
            lag = 0.0
        link = (message.app, subscriber_name)
        window, lag_histogram, dwell_histogram = (
            self._instruments.get(link) or self._resolve(link)
        )
        window.record(lag)
        lag_histogram.record(lag)
        dwell = getattr(message, "dwell", None)
        if dwell is not None:
            dwell_histogram.record(dwell)

    def _resolve(self, link: Tuple[str, str]) -> Tuple[Any, Any, Any]:
        window = self._window_for(*link)
        dwell = self.ecosystem.metrics.histogram(_link_metric(*link, "dwell"))
        instruments = (window, self._lag_histogram(*link), dwell)
        with self._lock:
            # A set_slo that raced this resolve has already dropped the
            # window: keep only a triple that holds the current one.
            if self._windows.get(link) is window:
                self._instruments[link] = instruments
        return instruments

    # -- link discovery -----------------------------------------------------

    def links(self) -> List[Tuple[str, str]]:
        """(publisher, subscriber) for every declared subscription."""
        out = set()
        for service in self.ecosystem.local_services():
            for publisher in service.subscriber.app_modes:
                out.add((publisher, service.name))
        return sorted(out)

    # -- evaluation ---------------------------------------------------------

    def health(self) -> HealthReport:
        """Read every link; emits ``slo.breach`` / ``slo.recovered``
        recorder events on transitions."""
        report = HealthReport(at=self.ecosystem.clock.now())
        recorder = self.ecosystem.recorder
        for publisher, subscriber in self.links():
            entry = self.link(publisher, subscriber)
            report.links.append(entry)
            link = (publisher, subscriber)
            was_breached = self._breached.get(link, False)
            if entry.breached and not was_breached:
                self._breached[link] = True
                recorder.anomaly("slo.breach", **entry.to_dict())
            elif not entry.breached and was_breached:
                self._breached[link] = False
                recorder.record_event("slo.recovered", **entry.to_dict())
        return report

    def link(self, publisher: str, subscriber: str) -> LinkHealth:
        """The one reading of a link: its apply window against its SLO,
        what is in transit (queued, in flight, in the CDC outbox tail),
        and how far the subscriber's counters trail the publisher's
        watermarks. Reads only — no event, no breach transition — so
        the auditor takes its lag from here."""
        now = self.ecosystem.clock.now()
        slo = self.slo_for(publisher, subscriber)
        window = self._window_for(publisher, subscriber)
        entry = LinkHealth(publisher=publisher, subscriber=subscriber, slo=slo)
        entry.samples = len(window)
        entry.p50 = window.percentile(50)
        entry.p99 = window.percentile(99)
        entry.over_fraction = window.over_fraction(slo.p99_lag)
        entry.burn_rate = (
            entry.over_fraction / slo.over_budget if slo.over_budget > 0 else 0.0
        )

        control = self.ecosystem.control
        entry.outbox_pending = control.outbox_lag(publisher)
        service = self.ecosystem.local_service(subscriber)
        if service is not None:
            queue = service.subscriber.queue
            if queue is not None:
                flow = queue.flow
                if flow.capacity is not None:
                    entry.backpressure = flow.state
                    entry.credits = flow.credits
                entry.decommissioned = queue.decommissioned
                oldest = 0.0
                queued = in_flight = 0
                for message in queue.peek_all():
                    if message.app == publisher:
                        queued += 1
                        oldest = max(oldest, now - message.published_at)
                for message in queue.peek_unacked():
                    if message.app == publisher:
                        in_flight += 1
                        oldest = max(oldest, now - message.published_at)
                entry.queued = queued
                entry.in_flight = in_flight
                entry.oldest_in_transit = oldest
            # Publisher watermark read over the control plane (None when
            # the publisher is unreachable from this process).
            watermarks = control.watermarks(publisher)
            if watermarks is not None:
                deficits = entry.deficits = (
                    service.subscriber_version_store.deficits(watermarks)
                )
                # Deficits from deliberate shedding are backpressure,
                # not the §6.5 loss signature: reconcile the flow
                # ledger (trimming what repair has healed since) and
                # report the remainder separately.
                forgiven: Dict[str, int] = {}
                if queue is not None:
                    forgiven = queue.flow.reconcile_shed(publisher, deficits)
                entry.shed_deficit = sum(forgiven.values())
                entry.version_lag = sum(
                    max(0, behind - forgiven.get(dep, 0))
                    for dep, behind in deficits.items()
                )

        if entry.oldest_in_transit > slo.stall_after:
            entry.reasons.append("stalled")
        if entry.samples:
            if entry.p99 > slo.p99_lag:
                entry.reasons.append("p99_lag")
            if entry.burn_rate > 1.0:
                entry.reasons.append("burn_rate")

        if entry.reasons:
            entry.status = STATUS_BREACHED
        elif entry.samples:
            entry.status = STATUS_OK
        else:
            entry.status = STATUS_NO_DATA
        return entry
