"""Property: weak-mode convergence under arbitrary message loss (§6.5)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike

updates = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),   # slot
              st.integers(min_value=0, max_value=99)),  # value
    min_size=1, max_size=25,
)
loss_mask = st.lists(st.booleans(), min_size=25, max_size=25)


def build(mode):
    eco = Ecosystem()
    eco.service("pub", database=MongoLike("pub-db"))
    _, _, sub, Item = build_replicated_pair(eco, {"n": int}, "Item", mode=mode)
    return eco, Item, sub, sub.registry["Item"]


class TestWeakLossTolerance:
    @given(ops=updates, losses=loss_mask)
    @settings(max_examples=40, deadline=None)
    def test_weak_converges_where_final_update_survived(self, ops, losses):
        """For every object whose *last* update message was delivered, a
        weak subscriber ends at exactly that value — regardless of which
        earlier messages were lost."""
        eco, Item, sub, SubItem = build("weak")
        live = {}
        last_delivered_value = {}
        for (slot, value), lost in zip(ops, losses):
            if slot not in live:
                # Creations always delivered so the object exists locally.
                live[slot] = Item.create(n=value)
                last_delivered_value[slot] = value
            else:
                if lost:
                    eco.broker.drop_next(1)
                live[slot].update(n=value)
                if not lost:
                    last_delivered_value[slot] = value
        sub.subscriber.drain()
        for slot, obj in live.items():
            local = SubItem.find_by(id=obj.id)
            assert local is not None
            publisher_value = obj.n
            if last_delivered_value[slot] == publisher_value:
                assert local.n == publisher_value
            # Either way, the subscriber holds SOME delivered value.
            assert local.n is not None

    @given(ops=updates, losses=loss_mask)
    @settings(max_examples=30, deadline=None)
    def test_causal_never_skips_a_gap(self, ops, losses):
        """A causal subscriber never applies an update whose predecessor
        (same object) was lost: the visible value is always a prefix of
        the delivered stream."""
        eco, Item, sub, SubItem = build("causal")
        live = {}
        lost_before = set()
        prefix_value = {}
        for (slot, value), lost in zip(ops, losses):
            if slot not in live:
                live[slot] = Item.create(n=value)
                prefix_value[slot] = value
            else:
                if lost:
                    eco.broker.drop_next(1)
                live[slot].update(n=value)
                if slot not in lost_before:
                    if lost:
                        lost_before.add(slot)
                    else:
                        prefix_value[slot] = value
        sub.subscriber.drain()
        for slot, obj in live.items():
            local = SubItem.find_by(id=obj.id)
            assert local is not None
            assert local.n == prefix_value[slot]
