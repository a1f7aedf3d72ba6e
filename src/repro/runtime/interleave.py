"""The pipeline's transitions, and the interleaving points of the
deterministic conformance harness.

Three calls, each with one lock rule:

- :func:`emit` announces a durable pipeline transition (a row of
  :data:`TRANSITIONS`) once, from *inside* the lock that orders it: it
  hands the transition to the log's one sink (``log_transition`` — the
  WAL, or the null sink while durability is off) and, when a hook is
  installed, hands the hook a record-only event under the transition's
  name. It never pauses, so the lock may be held; the lock being held is
  what makes WAL order equal effect order.
- :func:`yield_point` marks a boundary where a thread switch changes
  observable semantics, and runs outside every lock: the scheduler runs
  exactly one worker at a time, so a worker suspended while holding a
  lock would deadlock the next worker that touches the same structure.
  With a label it records an event and pauses; without one — right
  after a transition's ``emit``, which recorded the event — it only
  pauses.
- :func:`observe_point` records an event and never pauses; it may run
  under any lock.

By default no hook is installed: ``yield_point`` and ``observe_point``
are one module-global load plus an ``is None`` check, ``emit`` the sink
call on top — none of them builds a dict.

``repro.runtime.conformance`` installs a scheduler hook that (a) records
the event for the delivery-semantics checker and (b) suspends the
calling worker until the seeded scheduler picks it again, turning real
threaded code into a deterministic, replayable interleaving.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from typing import Any, Callable, Optional

#: One durable pipeline transition: the name the conformance checker
#: hears it under, its positional fields (the keys of the event's info
#: dict), the WAL record type the log writes for it, and the component
#: whose restore replays that record (docs/durability.md, "Restore").
Transition = namedtuple("Transition", "name fields record owner")

PUBLISHER_ROUTED = Transition("publisher.routed", ("queues", "message"), "out", "publisher")
QUEUE_PUBLISHED = Transition("queue.published", ("queue", "message"), "pub", "queue")
QUEUE_COALESCED = Transition("queue.coalesced", ("queue", "message", "into"), "coal", "queue")
QUEUE_SHED = Transition("queue.shed", ("queue", "message", "flow"), "shed", "queue")
QUEUE_DEFERRED = Transition("queue.deferred", ("queue", "message"), "defer", "queue")
QUEUE_ACKED = Transition("queue.acked", ("queue", "message"), "ack", "queue")
QUEUE_DECOMMISSIONED = Transition("queue.decommissioned", ("queue",), "decom", "queue")
QUEUE_RECOMMISSIONED = Transition("queue.recommissioned", ("queue",), "recom", "queue")
SUBSCRIBER_APPLIED = Transition("subscriber.applied", ("service", "message"), "apply", "subscriber")
GENERATION_FLUSH = Transition(
    "generation.flush", ("service", "app", "generation"), "gen", "subscriber")
PUBLISHER_GENERATION_BUMPED = Transition(
    "publisher.generation_bumped", ("app", "generation"), "pubgen", "publisher")
OUTBOX_COMMITTED = Transition("outbox.committed", ("service", "entry"), "obx", "outbox")
CDC_CURSOR_ADVANCED = Transition("cdc.cursor_advanced", ("service", "cursor"), "cdc", "cursor")

#: Every durable transition, one WAL record type each.
TRANSITIONS = (
    PUBLISHER_ROUTED, QUEUE_PUBLISHED, QUEUE_COALESCED, QUEUE_SHED,
    QUEUE_DEFERRED, QUEUE_ACKED, QUEUE_DECOMMISSIONED, QUEUE_RECOMMISSIONED,
    SUBSCRIBER_APPLIED, GENERATION_FLUSH, PUBLISHER_GENERATION_BUMPED,
    OUTBOX_COMMITTED, CDC_CURSOR_ADVANCED,
)

#: Installed hook, or None (the production default). The hook receives
#: ``(label, info_dict, pause)`` and is called synchronously on the
#: calling thread; it decides itself whether the thread is one it
#: schedules. ``label`` None is a bare pause with nothing to record.
#: ``pause=False`` events are record-only: they may be emitted while the
#: caller holds a lock, so the hook must not suspend the thread (a
#: suspended lock holder would deadlock the scheduler).
_hook: Optional[Callable[[Optional[str], dict, bool], None]] = None
_install_lock = threading.Lock()


def emit(log: Any, transition: Transition, *fields: Any) -> None:
    """Announce ``transition`` with its positional ``fields``: to the
    log's sink, then — only when a hook is installed — to the hook as a
    record-only event. Called inside the lock that orders the
    transition; never pauses."""
    log.log_transition(transition, fields)
    hook = _hook
    if hook is not None:
        hook(transition.name, dict(zip(transition.fields, fields)), False)


def yield_point(label: Optional[str] = None, **info: Any) -> None:
    """Mark an interleaving boundary: record ``label`` (if any) and let
    the installed scheduler switch threads. No-op unless a conformance
    scheduler is installed. Must only be called with no locks held."""
    hook = _hook
    if hook is not None:
        hook(label, info, True)


def observe_point(label: str, **info: Any) -> None:
    """Record a semantic event without offering a thread switch. Safe
    to call while holding locks."""
    hook = _hook
    if hook is not None:
        hook(label, info, False)


def install_hook(hook: Callable[[Optional[str], dict, bool], None]) -> None:
    """Install ``hook`` as the process-wide yield-point listener."""
    global _hook
    with _install_lock:
        if _hook is not None:
            raise RuntimeError("an interleaving hook is already installed")
        _hook = hook


def uninstall_hook(hook: Callable[[Optional[str], dict, bool], None]) -> None:
    """Remove ``hook``; tolerates an already-uninstalled hook."""
    global _hook
    with _install_lock:
        if _hook is hook:
            _hook = None
