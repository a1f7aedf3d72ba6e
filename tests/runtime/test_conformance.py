"""The conformance harness end to end: determinism, per-mode sweeps,
and one committed schedule per fixed race (each re-broken by reverting
its fix in-place and asserting the checker names the right invariant)."""

import threading
import time
from unittest import mock

from repro.broker.queue import SubscriberQueue
from repro.core.subscriber import SynapseSubscriber
from repro.errors import BrokerError, QueueDecommissioned
from repro.runtime import workers as workers_mod
from repro.runtime.conformance import (
    INV_GATE,
    INV_IDLE,
    INV_LEAK,
    INV_POP,
    INV_WORKER,
    ScheduleConfig,
    default_matrix,
    replay_twice,
    run_schedule,
)
from repro.runtime.conformance.scenarios import (
    DECOMMISSION_ACK_MARKER,
    DECOMMISSION_ACK_SCHEDULE,
    GATE_RACE_MARKER,
    GATE_RACE_SCHEDULE,
    drain_leak_scenario,
    fleet_idle_deadline_scenario,
    pop_deadline_scenario,
    trace_has,
)
from repro.runtime.interleave import hook_installed, yield_point


def invariants(violations):
    return {violation.invariant for violation in violations}


class TestDeterminism:
    def test_same_seed_identical_trace_twice(self):
        config = ScheduleConfig(mode="causal", seed=11, workers=3, messages=9)
        first, second = replay_twice(config)
        assert first.trace == second.trace
        assert first.trace  # non-trivial schedule
        # And once more, per the acceptance bar: determinism asserted twice.
        third = run_schedule(config)
        assert third.trace == first.trace

    def test_crash_recovery_schedule_deterministic(self):
        config = ScheduleConfig(
            mode="causal", seed=5, workers=3, messages=9, crash_recovery=True
        )
        first, second = replay_twice(config)
        assert first.trace == second.trace

    def test_different_seeds_differ(self):
        a = run_schedule(ScheduleConfig(mode="causal", seed=1))
        b = run_schedule(ScheduleConfig(mode="causal", seed=2))
        assert a.trace != b.trace

    def test_hook_uninstalled_after_run(self):
        run_schedule(ScheduleConfig(mode="weak", seed=3))
        assert not hook_installed()
        yield_point("noop")  # must be a no-op outside a schedule


class TestModeSweeps:
    def test_causal_schedules_hold_invariants(self):
        for seed in range(4):
            result = run_schedule(ScheduleConfig(mode="causal", seed=seed))
            assert result.ok, [str(v) for v in result.violations]

    def test_global_schedules_hold_invariants(self):
        for seed in range(4):
            result = run_schedule(ScheduleConfig(mode="global", seed=seed))
            assert result.ok, [str(v) for v in result.violations]

    def test_weak_schedules_hold_invariants(self):
        for seed in range(4):
            result = run_schedule(ScheduleConfig(mode="weak", seed=seed))
            assert result.ok, [str(v) for v in result.violations]

    def test_crash_recovery_at_least_once_with_dedup(self):
        applied_any_duplicate = False
        for seed in range(6):
            result = run_schedule(
                ScheduleConfig(
                    mode="causal", seed=seed, crash_recovery=True, messages=9
                )
            )
            assert result.ok, [str(v) for v in result.violations]
            applied_any_duplicate = (
                applied_any_duplicate or result.stats["duplicates"] > 0
            )
        # At least one schedule must actually exercise redelivery dedup.
        assert applied_any_duplicate

    def test_broker_faults_give_up_not_wedge(self):
        for seed in range(4):
            result = run_schedule(
                ScheduleConfig(mode="causal", seed=seed, faults=1, messages=9)
            )
            assert result.ok, [str(v) for v in result.violations]

    def test_generation_bump_schedules_hold_invariants(self):
        for mode in ("causal", "global"):
            for seed in range(4):
                result = run_schedule(
                    ScheduleConfig(mode=mode, seed=seed, generation_bump=True)
                )
                assert result.ok, [str(v) for v in result.violations]


class TestFlowSchedules:
    """Flow control (coalescing + batched apply) under the scheduler:
    every invariant must hold in all three modes, and only weak-mode
    publishes may ever be shed."""

    def test_flow_schedules_hold_invariants_in_all_modes(self):
        coalesced_any = False
        for mode in ("causal", "global", "weak"):
            for seed in range(4):
                result = run_schedule(
                    ScheduleConfig(mode=mode, seed=seed, flow=True, messages=12)
                )
                assert result.ok, [str(v) for v in result.violations]
                coalesced_any = coalesced_any or result.stats["coalesced"] > 0
        # The sweep must actually exercise the coalescing path.
        assert coalesced_any

    def test_flow_schedule_deterministic(self):
        config = ScheduleConfig(mode="causal", seed=7, flow=True, messages=12)
        first, second = replay_twice(config)
        assert first.trace == second.trace
        assert first.trace

    def test_flow_with_queue_limit_sheds_only_weak(self):
        result = run_schedule(
            ScheduleConfig(
                mode="weak", seed=2, flow=True, messages=14, queue_limit=4
            )
        )
        assert result.ok, [str(v) for v in result.violations]

    def test_shedding_a_causal_message_is_flagged(self):
        from repro.runtime.conformance import INV_FLOW
        from repro.runtime.flow.admission import QueueFlow

        def always_shed(self, message, depth):
            self.shed.increment()
            return "shed"

        with mock.patch.object(QueueFlow, "admit", always_shed):
            result = run_schedule(
                ScheduleConfig(
                    mode="causal", seed=1, flow=True, messages=8,
                    queue_limit=16,
                )
            )
        assert INV_FLOW in invariants(result.violations)

    def test_directed_unsafe_coalesce_scenario_is_clean(self):
        from repro.runtime.conformance.scenarios import (
            flow_coalesce_safety_scenario,
            run_directed_scenarios,
        )

        assert flow_coalesce_safety_scenario() == []
        assert "flow.unsafe-coalesce-rejected" in run_directed_scenarios()


class TestFlowCrashSchedules:
    """Flow control with a crashing worker: the one harness loop makes a
    crash worker abandon its whole popped batch — including members it
    already applied — and ``requeue_unacked`` plus dedup must absorb it."""

    def test_worker_dying_mid_batch_is_absorbed_in_all_modes(self):
        abandoned_a_batch = deduplicated = False
        for mode in ("causal", "global", "weak"):
            for seed in range(6):
                result = run_schedule(
                    ScheduleConfig(
                        mode=mode, seed=seed, flow=True, crash_recovery=True,
                        messages=12,
                    )
                )
                assert result.ok, [str(v) for v in result.violations]
                crashes = [line for line in result.trace if "worker.crashed" in line]
                abandoned_a_batch = abandoned_a_batch or len(crashes) > 1
                deduplicated = deduplicated or result.stats["duplicates"] > 0
        # The sweep must actually lose a multi-message batch and redeliver
        # an already-applied member.
        assert abandoned_a_batch and deduplicated

    def test_flow_crash_schedule_deterministic(self):
        config = ScheduleConfig(
            mode="causal", seed=3, flow=True, crash_recovery=True, messages=12
        )
        first, second = replay_twice(config)
        assert first.trace == second.trace

    def test_default_matrix_sweeps_the_flow_crash_slice(self):
        matrix = default_matrix(8)
        sliced = [c for c in matrix if c.flow and c.crash_recovery]
        assert {c.mode for c in sliced} == {"causal", "global", "weak"}
        assert {c.seed for c in sliced} == {1, 5}


class TestWalApplyOrder:
    """Regression: the ``apply`` WAL record used to be appended after the
    counter bump that releases dependents, so a dependent's record could
    overtake it and restore replayed the older write last (live row
    value 3, restored 2 on this schedule)."""

    def test_dependent_applies_replay_in_engine_write_order(self):
        result = run_schedule(
            ScheduleConfig(mode="causal", seed=133, durability=True)
        )
        assert result.ok, [str(v) for v in result.violations]


class TestGateRaceSchedule:
    """Generation gate vs in-flight deliveries (fix: ``peek_unacked``)."""

    def test_fixed_gate_defers_and_schedule_is_clean(self):
        result = run_schedule(GATE_RACE_SCHEDULE)
        assert result.ok, [str(v) for v in result.violations]
        # The schedule provably enters the race window: the gate had to
        # defer behind an older-generation delivery.
        assert trace_has(result.trace, GATE_RACE_MARKER)

    def test_reverting_peek_unacked_breaks_flush_safety(self):
        with mock.patch.object(SubscriberQueue, "peek_unacked", lambda self: []):
            result = run_schedule(GATE_RACE_SCHEDULE)
        assert INV_GATE in invariants(result.violations)


class TestDecommissionAckSchedule:
    """Ack of a cleared delivery on a dead queue (fix: tolerated no-op)."""

    def test_fixed_ack_is_tolerated_and_schedule_is_clean(self):
        result = run_schedule(DECOMMISSION_ACK_SCHEDULE)
        assert result.ok, [str(v) for v in result.violations]
        assert trace_has(result.trace, DECOMMISSION_ACK_MARKER)
        assert result.stats["tolerated_acks"] > 0

    def test_reverting_to_strict_ack_kills_workers(self):
        def legacy_ack(self, message):
            yield_point("queue.ack", queue=self.name, message=message)
            with self._lock:
                if message.seq not in self._unacked:
                    raise BrokerError(f"ack of unknown delivery {message.seq}")
                del self._unacked[message.seq]
                self.total_acked += 1
            yield_point("queue.acked", queue=self.name, message=message)

        with mock.patch.object(SubscriberQueue, "ack", legacy_ack):
            result = run_schedule(DECOMMISSION_ACK_SCHEDULE)
        assert INV_WORKER in invariants(result.violations)


class TestPopDeadlineScenario:
    """Spurious wakeup ends the wait early (fix: deadline re-check loop)."""

    def test_fixed_pop_survives_spurious_wakeups(self):
        assert pop_deadline_scenario() == []

    def test_reverting_to_single_wait_drops_the_delivery(self):
        def legacy_pop(self, timeout=0.0):
            with self._lock:
                if self.decommissioned:
                    raise QueueDecommissioned(self.name)
                if not self._items and timeout != 0.0:
                    self._available.wait(timeout=timeout)
                if self.decommissioned:
                    raise QueueDecommissioned(self.name)
                if not self._items:
                    return None
                message = self._items.popleft()
                message.delivery_count += 1
                self._unacked[message.seq] = message
            return message

        with mock.patch.object(SubscriberQueue, "pop", legacy_pop):
            violations = pop_deadline_scenario()
        assert INV_POP in invariants(violations)


class TestFleetIdleDeadlineScenario:
    """Timeout granted per pool per round (fix: one shared deadline)."""

    def test_fixed_fleet_respects_the_shared_deadline(self):
        assert fleet_idle_deadline_scenario() == []

    def test_reverting_to_per_pool_budget_inflates_the_wait(self):
        def legacy_wait_until_idle(self, timeout=30.0, settle_rounds=3):
            for _ in range(settle_rounds):
                for pool in self.pools:
                    if not pool.wait_until_idle(timeout=timeout):
                        return False
            return True

        with mock.patch.object(
            workers_mod.WorkerFleet, "wait_until_idle", legacy_wait_until_idle
        ):
            violations = fleet_idle_deadline_scenario()
        assert INV_IDLE in invariants(violations)


class TestDrainLeakScenario:
    """Decommission mid-drain leaks popped deliveries (fix: nack pending)."""

    def test_fixed_drain_returns_pending_messages(self):
        assert drain_leak_scenario() == []

    def test_reverting_the_nack_loop_leaks_deliveries(self):
        def legacy_drain(self, max_rounds=1000):
            if self.queue is None:
                return 0
            processed = 0
            pending = []
            for _ in range(max_rounds):
                while True:
                    message = self.queue.pop()
                    if message is None:
                        break
                    pending.append(message)
                progress = False
                remaining = []
                for message in sorted(pending, key=lambda m: m.seq):
                    if self.process_message(message):
                        self.queue.ack(message)
                        processed += 1
                        progress = True
                    else:
                        remaining.append(message)
                pending = remaining
                if not progress and not len(self.queue):
                    break
            for message in pending:
                self.queue.nack(message)
            return processed

        with mock.patch.object(SynapseSubscriber, "drain", legacy_drain):
            violations = drain_leak_scenario()
        assert INV_LEAK in invariants(violations)


class TestWorkerPoolDecommissionRouting:
    """A real pool worker must survive a decommission mid-message and
    route the condition to ``on_deadlock`` instead of dying silently."""

    def test_pool_worker_routes_decommission_to_on_deadlock(self):
        from repro.core import Ecosystem
        from repro.databases.document import MongoLike
        from repro.databases.relational import PostgresLike
        from repro.orm import Field, Model

        eco = Ecosystem(queue_limit=3)
        pub = eco.service("pub", database=MongoLike("pub-db"))

        @pub.model(publish=["name"], name="Doc")
        class PubDoc(Model):
            name = Field(str)

        sub = eco.service("sub", database=PostgresLike("sub-db"))

        @sub.model(subscribe={"from": "pub", "fields": ["name"]}, name="Doc")
        class SubDoc(Model):
            name = Field(str)

        deadlocked = threading.Event()
        pool = workers_mod.SubscriberWorkerPool(
            sub, workers=2, on_deadlock=lambda service: deadlocked.set()
        )
        with pool:
            with pub.controller():
                for i in range(10):  # overflow: queue_limit=3
                    PubDoc.create(name=f"doc-{i}")
            assert deadlocked.wait(5.0)
        # No thread died on an unhandled exception: stop() joined all.
        assert not any(thread.is_alive() for thread in pool._threads)


class TestSchedulerHasNoWallClockSleeps:
    def test_schedule_wall_time_is_bounded(self):
        # A few hundred scheduling steps must complete in well under a
        # second of wall time: workers switch on events, never timers.
        start = time.monotonic()
        result = run_schedule(ScheduleConfig(mode="causal", seed=4))
        elapsed = time.monotonic() - start
        assert result.steps > 50
        assert elapsed < 5.0
