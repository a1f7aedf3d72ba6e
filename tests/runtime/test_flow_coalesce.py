"""Semantics-aware coalescing: merge arithmetic (summed increments,
discounted dependency versions), per-mode safety, and the end-to-end
convergence of coalesced streams."""

import json
import re
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_replicated_pair
from repro.broker import Message, SubscriberQueue
from repro.core import Ecosystem
from repro.durability.wal import LAYOUTS
from repro.runtime.flow import FlowConfig, FlowController
from repro.runtime.flow import admission
from repro.runtime.flow.admission import COALESCE_WINDOW
from repro.runtime.flow.coalesce import (
    coalesce_key,
    merge_into,
    raised_waits,
    union_conflicts,
)
from repro.runtime.metrics import MetricsRegistry


def coal(absorbed, survivor, queue="q"):
    """The ``coal`` WAL record of the merge of ``absorbed`` into
    ``survivor``, decoded."""
    return json.loads(LAYOUTS["coal"](queue, absorbed, survivor))


def write(op="update", op_id=1, attrs=None, deps=None, app="pub",
          externals=None, generation=1, **kwargs):
    return Message(
        app=app,
        operations=[{"operation": op, "types": ["User"], "id": op_id,
                     "attributes": attrs or {"name": "x"}}],
        dependencies=dict(deps or {}),
        external_dependencies=dict(externals or {}),
        published_at=0.0,
        generation=generation,
        **kwargs,
    )


class TestCoalesceKey:
    def test_single_write_is_a_candidate(self):
        assert coalesce_key(write(op_id=7)) == ("pub", "User", 7)

    def test_exclusions(self):
        assert coalesce_key(write(op="delete")) is None
        multi = write()
        multi.operations = multi.operations * 2
        assert coalesce_key(multi) is None
        untyped = write()
        untyped.operations[0]["types"] = []
        assert coalesce_key(untyped) is None


class TestMergeArithmetic:
    def test_attributes_newest_wins_and_create_kind_sticks(self):
        survivor = write(op="create", attrs={"name": "a", "score": 1})
        absorbed = write(op="update", attrs={"score": 5})
        merge_into(survivor, absorbed)
        op = survivor.operations[0]
        assert op["operation"] == "create"
        assert op["attributes"] == {"name": "a", "score": 5}
        record = coal(absorbed, survivor)
        assert (record["uid"], record["absorbed"]) == (survivor.uid, [absorbed.uid])

    def test_increments_sum_and_deps_discount(self):
        """The publisher emitted the absorbed message's dep versions
        assuming the survivor had already applied; the merged message
        must not wait on bumps it itself carries."""
        survivor = write(deps={"k": 2})
        absorbed = write(deps={"k": 3, "u": 4}, externals={"x": 9})
        merge_into(survivor, absorbed)
        # k: absorbed's 3 discounts the survivor's own +1 -> max(2, 2).
        assert survivor.dependencies == {"k": 2, "u": 4}
        assert survivor.counter_increments() == {"k": 2, "u": 1}
        assert survivor.external_dependencies == {"x": 9}

    def test_chained_merges_accumulate(self):
        survivor = write(deps={"k": 2})
        second = write(deps={"k": 3})
        merge_into(survivor, second)
        # Second absorb: survivor now bumps k by 2, so a dep of 4 is
        # fully covered by the survivor's own apply.
        third = write(deps={"k": 4})
        merge_into(survivor, third)
        assert survivor.dependencies == {"k": 2}
        assert survivor.counter_increments() == {"k": 3}
        # Each merge's record names the one uid it absorbed, not the
        # survivor's history.
        assert coal(third, survivor)["absorbed"] == [third.uid]
        assert json.dumps(second.uid) not in json.dumps(survivor.to_wire())

    def test_merged_message_survives_the_wire(self):
        survivor = write(deps={"k": 2})
        merge_into(survivor, write(deps={"k": 3}))
        copied = Message.from_json(survivor.to_json())
        assert copied.counter_increments() == {"k": 2}
        assert copied.to_wire() == survivor.to_wire()

    def test_union_conflicts_is_key_overlap(self):
        assert union_conflicts(write(deps={"a": 1}), write(deps={"a": 5}))
        assert union_conflicts(
            write(deps={"a": 1}), write(deps={}, externals={"a": 2})
        )
        assert not union_conflicts(write(deps={"a": 1}), write(deps={"b": 1}))

    def test_union_conflicts_reverse_direction(self):
        """An intervener that *increments* a key the absorbed write
        newly waits on also rejects the merge — the bump would sit
        behind the merged survivor's earlier queue position."""
        survivor = write(deps={"o": 1})
        intervener = write(deps={"p": 0})  # bumps p when it applies
        assert not union_conflicts(survivor, intervener)
        assert union_conflicts(survivor, intervener, frozenset({"p"}))

    def test_raised_waits_discounts_the_survivors_own_bumps(self):
        # The absorbed chain dep is fully covered by the survivor's own
        # increment: nothing is newly waited on.
        assert raised_waits(write(deps={"k": 2}), write(deps={"k": 3})) == set()
        # A higher or brand-new requirement (write, read, or external)
        # is a wait the merge would move to the survivor's position.
        assert raised_waits(
            write(deps={"k": 2}),
            write(deps={"k": 4, "p": 1}, externals={"x": 9}),
        ) == {"k", "p", "x"}
        # Externals already required by the survivor are not raised.
        assert raised_waits(
            write(deps={"k": 2}, externals={"x": 9}),
            write(deps={"k": 3}, externals={"x": 9}),
        ) == set()


def widest(value):
    """The length of the largest container anywhere in ``value``."""
    if isinstance(value, (dict, list)):
        items = value.values() if isinstance(value, dict) else value
        return max([len(value), *map(widest, items)])
    return 0


class TestMergeIsBounded:
    """A survivor keeps the version arithmetic of what it absorbed and
    nothing else, so neither its body nor the ``coal`` record of its
    next merge grows with the writes it has absorbed."""

    @staticmethod
    def absorb(count):
        survivor = write(deps={"k": 0}, uid="pub:0")
        for n in range(1, count + 1):
            absorbed = write(deps={"k": n}, attrs={"name": f"v{n}"}, uid=f"pub:{n}")
            merge_into(survivor, absorbed)
        return survivor, absorbed

    def test_record_and_body_are_flat_in_the_absorb_count(self):
        shapes = []
        for count in (10, 10**4):
            survivor, last = self.absorb(count)
            assert survivor.counter_increments() == {"k": count + 1}
            record = LAYOUTS["coal"]("q", last, survivor)
            assert json.loads(record)["absorbed"] == [last.uid]
            # Numbers (uids, counts) differ only in their width.
            shapes.append((len(re.sub(r"\d+", "0", record)), widest(survivor.to_wire())))
        assert shapes[0] == shapes[1]


class FlowedQueue:
    def __init__(self, mode="weak", **config_kwargs):
        self.registry = MetricsRegistry()
        controller = FlowController(
            FlowConfig(**config_kwargs), self.registry,
            mode_of={"pub": mode}.get,
        )
        self.queue = SubscriberQueue("q", max_size=100)
        self.queue.flow = controller.for_queue(self.queue)


class TestQueueCoalescing:
    def test_weak_same_object_writes_always_merge(self):
        q = FlowedQueue(mode="weak")
        q.queue.publish(write(op="create", op_id=1, attrs={"score": 0}, deps={"k": 0}))
        q.queue.publish(write(op_id=1, attrs={"score": 1}, deps={"k": 1}))
        q.queue.publish(write(op_id=1, attrs={"score": 2}, deps={"k": 2}))
        assert len(q.queue) == 1
        assert q.registry.value("flow.q.coalesced") == 2
        survivor = q.queue.pop()
        assert survivor.operations[0]["attributes"]["score"] == 2
        assert survivor.counter_increments() == {"k": 3}

    def test_different_objects_do_not_merge(self):
        q = FlowedQueue(mode="weak")
        q.queue.publish(write(op_id=1))
        q.queue.publish(write(op_id=2))
        assert len(q.queue) == 2
        assert q.registry.value("flow.q.coalesced") == 0

    def test_popped_survivor_stops_absorbing(self):
        q = FlowedQueue(mode="weak")
        q.queue.publish(write(op_id=1))
        q.queue.pop()
        q.queue.publish(write(op_id=1))  # in-flight copy must not absorb
        assert len(q.queue) == 1
        assert q.registry.value("flow.q.coalesced") == 0

    def test_generation_bump_blocks_the_merge(self):
        q = FlowedQueue(mode="weak")
        q.queue.publish(write(op_id=1, generation=1))
        q.queue.publish(write(op_id=1, generation=2))
        assert len(q.queue) == 2
        assert q.registry.value("flow.q.coalesced") == 0

    def test_coalesce_disabled_by_config(self):
        q = FlowedQueue(mode="weak", coalesce=False)
        q.queue.publish(write(op_id=1))
        q.queue.publish(write(op_id=1))
        assert len(q.queue) == 2

    def test_causal_adjacent_merge_is_safe(self):
        q = FlowedQueue(mode="causal")
        q.queue.publish(write(op_id=1, deps={"h1": 0}))
        q.queue.publish(write(op_id=1, deps={"h1": 1}))
        assert len(q.queue) == 1
        assert q.registry.value("flow.q.coalesced") == 1

    def test_causal_conflicting_intervener_rejects(self):
        """A queued message that depends on a key the candidate bumps
        would wait on its own tail after a merge — rejected, and the
        newer write becomes the next coalesce target."""
        q = FlowedQueue(mode="causal")
        q.queue.publish(write(op_id=1, deps={"h1": 0}))
        q.queue.publish(write(op_id=2, deps={"h1": 1, "h2": 0}))  # reader
        q.queue.publish(write(op_id=1, deps={"h1": 1}))
        assert len(q.queue) == 3
        assert q.registry.value("flow.q.coalesce_rejected") == 1
        # The rejected write replaced the old candidate in the index:
        # the *next* same-object write merges into it, not the original.
        q.queue.publish(write(op_id=1, deps={"h1": 2}))
        assert len(q.queue) == 3
        assert q.registry.value("flow.q.coalesced") == 1

    def test_causal_absorbed_dep_on_intervener_rejects(self):
        """Reverse hazard direction: the absorbed write waits on a key
        the intervener bumps. Merged to the survivor's earlier queue
        position, it would wait on a bump queued behind itself (and
        the batched worker would spin it into a §6.5 give-up)."""
        q = FlowedQueue(mode="causal")
        q.queue.publish(write(op_id=1, deps={"o": 0}))           # survivor
        q.queue.publish(write(op_id=2, deps={"p": 0}))           # bumps p
        q.queue.publish(write(op_id=1, deps={"o": 1, "p": 1}))   # needs p@1
        assert len(q.queue) == 3
        assert q.registry.value("flow.q.coalesce_rejected") == 1
        assert q.registry.value("flow.q.coalesced") == 0

    def test_causal_covered_dep_still_merges_past_disjoint_intervener(self):
        """The reverse check discounts the survivor's own bumps: a
        chained dep the survivor itself satisfies does not reject, so
        disjoint interveners stay transparent to coalescing."""
        q = FlowedQueue(mode="causal")
        q.queue.publish(write(op_id=1, deps={"o": 0}))
        q.queue.publish(write(op_id=2, deps={"p": 0}))  # disjoint
        q.queue.publish(write(op_id=1, deps={"o": 1}))  # covered by survivor
        assert len(q.queue) == 2
        assert q.registry.value("flow.q.coalesced") == 1

    def test_causal_in_flight_conflict_rejects(self):
        q = FlowedQueue(mode="causal")
        q.queue.publish(write(op_id=2, deps={"h1": 1}))  # reader of h1
        q.queue.pop()  # now in flight, invisible to the queued scan
        q.queue.publish(write(op_id=1, deps={"h1": 0}))
        q.queue.publish(write(op_id=1, deps={"h1": 1}))
        assert q.registry.value("flow.q.coalesce_rejected") == 1
        assert len(q.queue) == 2

    def test_weak_ignores_interveners(self):
        q = FlowedQueue(mode="weak")
        q.queue.publish(write(op_id=1, deps={"h1": 0}))
        q.queue.publish(write(op_id=2, deps={"h1": 1}))
        q.queue.publish(write(op_id=1, deps={"h1": 1}))
        assert len(q.queue) == 2
        assert q.registry.value("flow.q.coalesced") == 1


class TestEndToEnd:
    def _ecosystem(self, mode):
        eco = Ecosystem()
        eco.enable_flow(FlowConfig(batch_max=4))
        _, pub, sub, Item = build_replicated_pair(
            eco, {"name": str, "score": int}, "Item", mode=mode
        )
        return eco, pub, sub, Item, sub.registry["Item"]

    def test_weak_hot_object_storm_converges(self):
        eco, pub, sub, Item, SubItem = self._ecosystem("weak")
        with pub.controller():
            items = [Item.create(name=f"i{i}", score=0) for i in range(2)]
            for r in range(1, 11):
                for item in items:
                    item.score = r
                    item.save()
        assert eco.metrics.value("flow.sub.coalesced") > 0
        sub.subscriber.drain()
        for item in items:
            assert SubItem.__mapper__.find(item.id)["score"] == 10
        assert not len(sub.subscriber.queue)

    def test_causal_object_major_burst_converges(self):
        eco, pub, sub, Item, SubItem = self._ecosystem("causal")
        with pub.controller():
            items = [Item.create(name=f"i{i}", score=0) for i in range(3)]
        sub.subscriber.drain()
        with pub.controller():
            for item in items:
                for r in range(1, 8):
                    item.score = r
                    item.save()
        assert eco.metrics.value("flow.sub.coalesced") > 0
        sub.subscriber.drain()
        for item in items:
            assert SubItem.__mapper__.find(item.id)["score"] == 7
        assert not len(sub.subscriber.queue)
        # Counter accounting survived the merges: the anti-entropy audit
        # sees no divergence and no version lag.
        report = sub.audit_replication()
        assert report.in_sync


def full_scan(candidate, message, items, unacked):
    """The oracle: the verdict ``QueueFlow._union_safe`` gave before it
    accepted a tail candidate unscanned, with ``union_conflicts``' old
    overlap test (against the materialised ``counter_increments()``)."""
    raised = raised_waits(candidate, message)

    def conflicts(intervener):
        waits = candidate.dependencies.keys()
        if not (waits.isdisjoint(intervener.dependencies)
                and waits.isdisjoint(intervener.external_dependencies)):
            return True
        return bool(raised) and not raised.isdisjoint(intervener.counter_increments())

    scanned = 0
    for queued in reversed(items):
        if queued is candidate:
            break
        scanned += 1
        if scanned > COALESCE_WINDOW or conflicts(queued):
            return False
    else:
        return False
    return not any(conflicts(in_flight) for in_flight in unacked.values())


KEYS = st.sampled_from(["o", "p", "q", "r", "s", "u"])
VERSIONS = st.dictionaries(KEYS, st.integers(0, 4), max_size=2)


@st.composite
def messages(draw, op_id=None):
    """A queued write: random dependency, external and (for a message
    that already absorbed others) increment key sets."""
    deps = draw(VERSIONS)
    increments = draw(st.none() | st.dictionaries(KEYS, st.integers(1, 3), max_size=2))
    return write(op_id=draw(st.integers(2, 5)) if op_id is None else op_id,
                 deps=deps, externals=draw(VERSIONS), increments=increments)


@st.composite
def queue_states(draw):
    before = draw(st.lists(messages(), max_size=3))
    candidate = draw(messages(op_id=1))
    after = draw(st.just([]) | st.lists(messages(), max_size=3) | st.lists(
        messages(), min_size=COALESCE_WINDOW, max_size=COALESCE_WINDOW + 1))
    in_flight = draw(st.just([]) | st.lists(messages(), max_size=2))
    queued = draw(st.booleans())  # False: the candidate left the queue
    items = deque([*before, *([candidate] if queued else []), *after])
    return candidate, draw(messages(op_id=1)), items, {m.uid: m for m in in_flight}


class TestTailFastPath:
    @settings(max_examples=400, deadline=None)
    @given(queue_states())
    def test_verdict_equals_the_full_scan(self, state):
        candidate, message, items, unacked = state
        flow = FlowedQueue(mode="causal").queue.flow
        assert flow._union_safe(candidate, message, items, unacked) == full_scan(
            candidate, message, items, unacked
        )

    def count_scan_calls(self, monkeypatch):
        calls = {"raised_waits": 0, "union_conflicts": 0}
        for name in calls:
            real = getattr(admission, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(admission, name, counted)
        return calls

    def test_a_tail_burst_merges_without_a_scan(self, monkeypatch):
        calls = self.count_scan_calls(monkeypatch)
        q = FlowedQueue(mode="causal")
        q.queue.publish(write(op_id=2, deps={"p": 0}))
        for version in range(32):
            q.queue.publish(write(op_id=1, deps={"o": version, "u": version},
                                  attrs={"score": version}))
        assert len(q.queue) == 2
        assert q.registry.value("flow.q.coalesced") == 31
        assert calls == {"raised_waits": 0, "union_conflicts": 0}
        q.queue.pop()
        survivor = q.queue.pop()
        assert survivor.operations[0]["attributes"] == {"score": 31}
        assert survivor.counter_increments() == {"o": 32, "u": 32}
        assert survivor.dependencies == {"o": 0, "u": 0}

    def test_an_in_flight_message_still_gets_the_scan(self, monkeypatch):
        calls = self.count_scan_calls(monkeypatch)
        q = FlowedQueue(mode="causal")
        q.queue.publish(write(op_id=2, deps={"p": 0}))
        q.queue.pop()
        for version in range(2):
            q.queue.publish(write(op_id=1, deps={"o": version}))
        assert q.registry.value("flow.q.coalesced") == 1
        assert calls == {"raised_waits": 1, "union_conflicts": 1}
