"""The conformance harness end to end: determinism, per-mode sweeps,
and one committed schedule per fixed race (each re-broken by reverting
its fix in-place and asserting the checker names the right invariant)."""

import contextlib
import time
from unittest import mock

import pytest

from repro.apps import build_replicated_pair
from repro.broker.queue import SubscriberQueue
from repro.core import Ecosystem
from repro.core import subscriber as subscriber_mod
from repro.core.subscriber import SynapseSubscriber
from repro.durability.manager import DurabilityManager
from repro.errors import BrokerError, QueueDecommissioned
from repro.runtime import interleave
from repro.runtime import workers as workers_mod
from repro.runtime.conformance import (
    DeliveryChecker,
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
from repro.runtime.conformance.checker import INV_CONVERGE, INV_DURABLE
from repro.runtime.conformance.scenarios import (
    DECOMMISSION_ACK_MARKER,
    DECOMMISSION_ACK_SCHEDULE,
    GATE_RACE_MARKER,
    GATE_RACE_SCHEDULE,
    HEAL_RACE_MARKER,
    HEAL_RACE_SCHEDULES,
    drain_leak_scenario,
    find_schedule,
    fleet_idle_deadline_scenario,
    pop_deadline_scenario,
    trace_has,
)
from repro.runtime.interleave import (
    SUBSCRIBER_APPLIED,
    install_hook,
    uninstall_hook,
    yield_point,
)
from repro.versionstore import DependencyHasher


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
        assert interleave._hook is None
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
            SCENARIOS,
            flow_coalesce_safety_scenario,
        )

        assert flow_coalesce_safety_scenario() == []
        assert "flow.unsafe-coalesce-rejected" in SCENARIOS


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


class TestSweepRunsTheProductionWorkerStep:
    """What scheduling ``SubscriberWorkerPool.process``/``settle``
    (instead of a copy that nacked) buys, asserted over the CI matrix's
    first 20 seeds: stalled batches rotate, the rotation is logged and
    replayed by the restore-equivalence check, and the give-up — and
    its heal — is the pool's own."""

    @pytest.fixture(scope="class")
    def swept(self):
        replayed_defers = []
        replay_record = DurabilityManager._replay_record

        def spy_replay(self, rec, *args):
            if rec.get("t") == "defer":
                replayed_defers.append(rec["uid"])
            return replay_record(self, rec, *args)

        with mock.patch.object(
            DurabilityManager, "_replay_record", spy_replay
        ), mock.patch.object(
            workers_mod.SubscriberWorkerPool, "heal", autospec=True,
            side_effect=workers_mod.SubscriberWorkerPool.heal,
        ) as heal:
            results = [run_schedule(config) for config in default_matrix(20)]
        give_ups = sum(
            len(call.kwargs["uids"]) for call in heal.call_args_list
            if call.args[1] == "worker.gave_up"
        )
        return results, replayed_defers, give_ups

    def test_every_schedule_is_clean(self, swept):
        failed = [r.config.describe() for r in swept[0] if not r.ok]
        assert failed == []

    def test_stalled_batches_are_deferred(self, swept):
        assert any(trace_has(r.trace, "queue.deferred") for r in swept[0])

    def test_a_logged_defer_is_replayed_by_restore_equivalence(self, swept):
        assert swept[1]

    def test_give_up_is_the_pools(self, swept):
        results, _defers, give_ups = swept
        assert give_ups > 0
        assert give_ups == sum(r.stats["gave_up"] for r in results)


#: Dependent applies racing their predecessor's bump: a delivery popped
#: before the bump it waits on (``queue.deferred``), under the WAL.
APPLY_ORDER_SCHEDULE = ScheduleConfig(mode="causal", durability=True)
APPLY_ORDER_MARKER = "queue.deferred"


def violates_with_the_apply_record_after_the_bump(config):
    """Run ``config`` with the ``apply`` record appended once the
    applying worker resumes from its ``msg.finished`` pause — after the
    counter bump that releases dependents, as before the fix. Since the
    bump became one script per shard, the window needs that pause: a
    record appended right after the bump shows nothing on seeds 0-59."""
    log_transition = DurabilityManager.log_transition
    held, finished = {}, set()

    def hold(self, transition, fields):
        message = fields[-1]
        if transition is not SUBSCRIBER_APPLIED or message.uid in finished:
            log_transition(self, transition, fields)
        else:
            held[message.uid] = (self, transition, fields)

    def finish_then_log(label=None, **fields):
        yield_point(label, **fields)
        if label == "msg.finished":
            finished.add(fields["message"].uid)
            if fields["message"].uid in held:
                log_transition(*held.pop(fields["message"].uid))

    with mock.patch.object(DurabilityManager, "log_transition", hold), \
            mock.patch.object(subscriber_mod, "yield_point", finish_then_log):
        result = run_schedule(config)
    return INV_DURABLE in invariants(result.violations)


class TestWalApplyOrder:
    """Regression: the ``apply`` WAL record used to be appended after the
    counter bump that releases dependents, so a dependent's record could
    overtake it and restore replayed the older write last. The search
    finds seed 14, of seeds 0-79 the only one the reverted order breaks."""

    def test_dependent_applies_replay_in_engine_write_order(self):
        find_schedule(
            APPLY_ORDER_SCHEDULE, APPLY_ORDER_MARKER,
            accept=violates_with_the_apply_record_after_the_bump,
        )


class TestGateRaceSchedule:
    """Generation gate vs in-flight deliveries (fix: ``peek_unacked``)."""

    def test_fixed_gate_defers_and_schedule_is_clean(self):
        # A seed that runs clean and provably enters the race window:
        # the gate had to defer behind an older-generation delivery.
        find_schedule(GATE_RACE_SCHEDULE, GATE_RACE_MARKER)

    def test_reverting_peek_unacked_breaks_flush_safety(self):
        def violates_reverted(config):
            with mock.patch.object(
                SubscriberQueue, "peek_unacked", lambda self: []
            ):
                result = run_schedule(config)
            return INV_GATE in invariants(result.violations)

        find_schedule(
            GATE_RACE_SCHEDULE, GATE_RACE_MARKER, accept=violates_reverted
        )


class TestDecommissionAckSchedule:
    """Ack of a cleared delivery on a dead queue (fix: tolerated no-op)."""

    def test_fixed_ack_is_tolerated_and_schedule_is_clean(self):
        config = find_schedule(
            DECOMMISSION_ACK_SCHEDULE, DECOMMISSION_ACK_MARKER
        )
        assert run_schedule(config).stats["tolerated_acks"] > 0

    def test_reverting_to_strict_ack_kills_workers(self):
        def legacy_ack(self, message):
            yield_point("queue.ack", queue=self.name, message=message)
            with self._lock:
                if message.seq not in self._unacked:
                    raise BrokerError(f"ack of unknown delivery {message.seq}")
                del self._unacked[message.seq]
                self.total_acked += 1
            yield_point("queue.acked", queue=self.name, message=message)

        def violates_reverted(config):
            with mock.patch.object(SubscriberQueue, "ack", legacy_ack):
                result = run_schedule(config)
            return INV_WORKER in invariants(result.violations)

        find_schedule(
            DECOMMISSION_ACK_SCHEDULE, DECOMMISSION_ACK_MARKER,
            accept=violates_reverted,
        )


class TestHealRaceSchedule:
    """A heal beside live workers (fix: the pool's step gate)."""

    @pytest.mark.parametrize("base", HEAL_RACE_SCHEDULES, ids=lambda c: c.mode)
    def test_reverting_the_step_gate_diverges_the_replicas(self, base):
        def violates_reverted(config):
            with mock.patch.object(
                workers_mod.SubscriberWorkerPool, "stepping",
                lambda self: contextlib.nullcontext(),
            ):
                result = run_schedule(config)
            return INV_CONVERGE in invariants(result.violations)

        find_schedule(base, HEAL_RACE_MARKER, accept=violates_reverted)


class TestFindSchedule:
    """A failing search names the first condition no seed met."""

    def test_no_clean_seed(self):
        with mock.patch.object(
            SubscriberQueue, "ack", side_effect=BrokerError("every ack fails")
        ), pytest.raises(LookupError, match="none ran clean"):
            find_schedule(ScheduleConfig(), "queue.acked", seeds=range(2))

    def test_no_seed_reaches_the_marker(self):
        with pytest.raises(LookupError, match="none of them reached 'no.such'"):
            find_schedule(ScheduleConfig(), "no.such", seeds=range(2))

    def test_no_seed_accepted(self):
        with pytest.raises(LookupError, match="none of them was accepted"):
            find_schedule(
                ScheduleConfig(), "queue.acked", seeds=range(2),
                accept=lambda config: False,
            )

    def test_cli_prints_the_replay_line_or_what_was_unmet(self, capsys):
        from repro.runtime.conformance.cli import conformance_command

        assert conformance_command(["--find", "queue.deferred", "--seeds", "20"]) == 0
        assert "--seed " in capsys.readouterr().out
        assert conformance_command(["--find", "no.such", "--seeds", "2"]) == 1
        assert "none of them reached" in capsys.readouterr().out


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
    heal it — recommission, repair what the decommission lost — instead
    of dying silently."""

    def test_pool_worker_routes_decommission_to_on_deadlock(self):
        from repro.core import Ecosystem

        eco, pub, sub, PubDoc = build_replicated_pair(Ecosystem(queue_limit=3))
        SubDoc = sub.registry["Doc"]
        pool = workers_mod.SubscriberWorkerPool(sub, workers=2, wait_timeout=0.05)
        queue = sub.subscriber.queue
        with pool:
            with pub.controller():
                for i in range(10):  # overflow: queue_limit=3
                    PubDoc.create(name=f"doc-{i}")
            deadline = time.monotonic() + 10
            while queue.decommissioned or not pool.wait_until_idle(timeout=1):
                assert time.monotonic() < deadline
            threads = list(pool._threads)
            assert all(thread.is_alive() for thread in threads)
        # No thread died on an unhandled exception: stop() joined all.
        assert not any(thread.is_alive() for thread in threads)
        healed = eco.recorder.events("queue.decommissioned")
        assert healed and all("error" not in event.data for event in healed)
        assert SubDoc.count() == 10
        assert sub.audit_replication().in_sync


class TestSchedulerHasNoWallClockSleeps:
    def test_schedule_wall_time_is_bounded(self):
        # A few hundred scheduling steps must complete in well under a
        # second of wall time: workers switch on events, never timers.
        start = time.monotonic()
        result = run_schedule(ScheduleConfig(mode="causal", seed=4))
        elapsed = time.monotonic() - start
        assert result.steps > 50
        assert elapsed < 5.0


class TestCheckerSeesRareEvents:
    """Checker handlers for events the sweep seldom schedules, each event
    raised through the product path that emits it."""

    @staticmethod
    def listen(sub):
        checker = DeliveryChecker(sub.subscriber)

        def hook(label, info, pause):
            if label is not None:
                checker.on_event(-1, "test", label, info)

        install_hook(hook)
        return checker, hook

    def test_nack_and_defer_on_a_dead_queue_are_tolerated(self):
        eco, pub, sub, Doc = build_replicated_pair()
        queue = sub.subscriber.queue
        checker, hook = self.listen(sub)
        try:
            Doc.create(name="a")
            Doc.create(name="b")
            first, second = queue.pop_many(2)
            queue.max_size = 0
            Doc.create(name="c")  # overflows: the queue is decommissioned
            assert queue.decommissioned
            queue.nack(first)
            queue.defer(second)
        finally:
            uninstall_hook(hook)
        assert checker.tolerated_nacks == 2
        assert checker.in_flight == {}

    def test_a_hashed_store_flush_resets_the_counter_floors(self):
        eco, pub, sub, Doc = build_replicated_pair(
            Ecosystem(hasher=DependencyHasher(space=64))
        )
        checker, hook = self.listen(sub)
        try:
            Doc.create(name="a")
            assert sub.subscriber.drain() == 1
            assert checker._counter_floor  # the apply bumped tracked counters
            # A newer generation in a hashed space flushes the whole store.
            sub.subscriber.enter_generation("pub", 2)
        finally:
            uninstall_hook(hook)
        assert checker._counter_floor == {}
        assert checker.violations == []
