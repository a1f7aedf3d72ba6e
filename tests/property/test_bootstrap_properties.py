"""Property: bootstrapping at any point in a workload always converges."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber
from repro.databases.document import MongoLike
from repro.orm import Field, Model

crud_ops = st.lists(
    st.tuples(
        st.sampled_from(["create", "update", "delete"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=25,
)


def apply_op(Item, live, op):
    kind, slot, value = op
    if kind == "create" and slot not in live:
        live[slot] = Item.create(n=value)
    elif kind == "update" and slot in live:
        live[slot].update(n=value)
    elif kind == "delete" and slot in live:
        live[slot].destroy()
        del live[slot]


class TestBootstrapConvergence:
    @given(ops=crud_ops, join_at=st.integers(min_value=0, max_value=25),
           lose=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_late_joiner_converges_from_any_point(self, ops, join_at, lose):
        """The subscriber deploys after ``join_at`` operations (missing
        all earlier traffic — its queue did not even exist), optionally
        loses one in-flight message, bootstraps, and must converge."""
        eco = Ecosystem()
        pub = eco.service("pub", database=MongoLike("pub-db"))

        @pub.model(publish=["n"], name="Item")
        class Item(Model):
            n = Field(int)

        live = {}
        join_at = min(join_at, len(ops))
        for op in ops[:join_at]:
            apply_op(Item, live, op)

        _, _, sub, _ = build_replicated_pair(eco, {"n": int}, "Item")
        SubItem = sub.registry["Item"]
        if lose and len(ops) > join_at:
            eco.broker.drop_next(1)
        for op in ops[join_at:]:
            apply_op(Item, live, op)

        bootstrap_subscriber(sub)
        # A lost message may leave causal successors queued; a second
        # (recovery) bootstrap must always finish the job.
        bootstrap_subscriber(sub)
        assert {i.id: i.n for i in SubItem.all()} == \
            {i.id: i.n for i in Item.all()}
        assert not sub.bootstrap_active
