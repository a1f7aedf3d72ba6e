"""A seeded, replayable interleaving scheduler for real threaded code.

Runs N *virtual workers* (plain Python callables exercising the real
``SubscriberQueue``/``SynapseSubscriber``/version-store code) on real
threads, but cooperatively: exactly one worker runs at a time, and a
worker only pauses at the explicit :func:`repro.runtime.interleave.yield_point`
boundaries instrumented into the delivery hot path. At every boundary
the scheduler's seeded RNG picks which worker runs next, so

- the same seed replays the *identical* interleaving (the recorded
  event trace is byte-for-byte equal across runs), and
- no wall-clock sleep is involved anywhere — workers switch on events,
  never on timing.

This is the standard systematic-concurrency-testing construction
(cf. CHESS / dBug): real code, serialized execution, seeded schedule
exploration. The safety-net timeouts below only fire when a schedule
genuinely wedges (e.g. a yield point erroneously placed inside a lock);
they turn a hang into a diagnosable :class:`SchedulerStuck`.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.runtime.interleave import install_hook, uninstall_hook


class SchedulerStuck(ReproError):
    """A scheduled worker stopped reaching yield points (deadlock/livelock)."""


class _AbortWorker(BaseException):
    """Raised inside a worker to unwind it during teardown."""


class _Slot:
    """Scheduler-side state of one virtual worker."""

    def __init__(self, name: str, target: Callable[[], None]) -> None:
        self.name = name
        self.target = target
        self.thread: Optional[threading.Thread] = None
        #: Set by the scheduler to let the worker run to its next yield.
        self.go = threading.Event()
        #: Set by the worker when it paused (or finished/errored).
        self.paused = threading.Event()
        self.done = False
        self.error: Optional[BaseException] = None
        self.aborted = False


class InterleavingScheduler:
    """Deterministic cooperative scheduler over yield-point instrumented code.

    ::

        sched = InterleavingScheduler(seed=7)
        sched.add_worker("pub", publish_script)
        sched.add_worker("w0", worker_loop)
        sched.run()          # same seed -> same sched.trace, always
    """

    def __init__(
        self,
        seed: int,
        max_steps: int = 50_000,
        step_timeout: float = 20.0,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_steps = max_steps
        self.step_timeout = step_timeout
        #: Every recorded event: (worker, label, info). Pause events and
        #: observe-only events both land here, in execution order.
        self.trace: List[Tuple[str, str, Dict[str, Any]]] = []
        #: Listeners called synchronously on every event (the
        #: delivery-semantics checker registers here). Exactly one
        #: worker runs at any moment, so listeners need no locking.
        self.listeners: List[Callable[[int, str, str, Dict[str, Any]], None]] = []
        self.steps = 0
        self._slots: Dict[str, _Slot] = {}
        self._by_ident: Dict[int, _Slot] = {}
        self._ident_lock = threading.Lock()

    def add_worker(self, name: str, target: Callable[[], None]) -> None:
        if name in self._slots:
            raise ValueError(f"duplicate worker name {name!r}")
        self._slots[name] = _Slot(name, target)

    # -- event hook (runs on worker threads) ---------------------------------

    def _hook(self, label: Optional[str], info: Dict[str, Any], pause: bool) -> None:
        with self._ident_lock:
            slot = self._by_ident.get(threading.get_ident())
        if slot is None:
            return  # not one of ours (e.g. the controlling thread)
        if label is not None:  # None: a bare pause after an emit
            self._record(slot.name, label, info)
        if pause:
            self._pause(slot)

    def _record(self, worker: str, label: str, info: Dict[str, Any]) -> None:
        step = len(self.trace)
        self.trace.append((worker, label, info))
        for listener in self.listeners:
            listener(step, worker, label, info)

    def _pause(self, slot: _Slot) -> None:
        slot.paused.set()
        slot.go.wait()
        slot.go.clear()
        if slot.aborted:
            raise _AbortWorker()

    # -- worker thread main --------------------------------------------------

    def _worker_main(self, slot: _Slot) -> None:
        with self._ident_lock:
            self._by_ident[threading.get_ident()] = slot
        try:
            # Park until the scheduler picks this worker the first time.
            self._pause(slot)
            slot.target()
        except _AbortWorker:
            pass
        except BaseException as exc:  # noqa: BLE001 — reported, not swallowed
            slot.error = exc
        finally:
            slot.done = True
            slot.paused.set()

    # -- the scheduling loop (runs on the calling thread) --------------------

    def run(self) -> None:
        """Drive every worker to completion under the seeded schedule."""
        if not self._slots:
            return
        # Bind once: each ``self._hook`` attribute access builds a new
        # bound-method object, and uninstall_hook matches by identity.
        hook = self._hook
        install_hook(hook)
        try:
            for slot in self._slots.values():
                slot.thread = threading.Thread(
                    target=self._worker_main,
                    args=(slot,),
                    name=f"conformance-{slot.name}",
                    daemon=True,
                )
                slot.thread.start()
            for slot in self._slots.values():
                if not slot.paused.wait(self.step_timeout):
                    raise SchedulerStuck(
                        f"worker {slot.name!r} never reached its start point"
                    )
            while True:
                candidates = sorted(
                    name for name, slot in self._slots.items() if not slot.done
                )
                if not candidates:
                    break
                slot = self._slots[self.rng.choice(candidates)]
                slot.paused.clear()
                slot.go.set()
                if not slot.paused.wait(self.step_timeout):
                    raise SchedulerStuck(
                        f"worker {slot.name!r} blocked off-schedule after "
                        f"{self.steps} steps (yield point inside a lock, or a "
                        f"real wait entered with the scheduler active?)"
                    )
                self.steps += 1
                if self.steps > self.max_steps:
                    raise SchedulerStuck(
                        f"schedule did not quiesce within {self.max_steps} steps"
                    )
        finally:
            self._abort_stragglers()
            uninstall_hook(hook)

    def _abort_stragglers(self) -> None:
        """Teardown: unwind workers still parked at a yield point."""
        for slot in self._slots.values():
            if not slot.done:
                slot.aborted = True
                slot.go.set()
        for slot in self._slots.values():
            if slot.thread is not None:
                slot.thread.join(timeout=self.step_timeout)

    # -- results -------------------------------------------------------------

    def worker_errors(self) -> Dict[str, BaseException]:
        return {
            name: slot.error
            for name, slot in self._slots.items()
            if slot.error is not None
        }
