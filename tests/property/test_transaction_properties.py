"""Property: transactional all-or-nothing replication (§4.2)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike

txn_scripts = st.lists(
    st.tuples(
        st.sampled_from(["commit", "abort", "prepare-abort"]),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),  # slot
                      st.integers(min_value=0, max_value=99)),  # value
            min_size=1, max_size=5,
        ),
    ),
    min_size=1, max_size=8,
)


def build():
    eco = Ecosystem()
    eco.service("pub", database=PostgresLike("pub-db"))
    eco.service("sub", database=MongoLike("sub-db"))
    _, pub, sub, Slot = build_replicated_pair(eco, {"n": int}, "Slot")
    return eco, pub, Slot, sub, sub.registry["Slot"]


class TestTransactionalReplication:
    @given(scripts=txn_scripts)
    @settings(max_examples=40, deadline=None)
    def test_only_committed_transactions_replicate(self, scripts):
        eco, pub, Slot, sub, SubSlot = build()
        live = {}
        committed_txns = 0
        for end, writes in scripts:
            txn = pub.database.begin()
            try:
                for slot, value in writes:
                    if slot in live:
                        live[slot].update(n=value)
                    else:
                        live[slot] = Slot.create(n=value)
                if end == "commit":
                    txn.commit()
                    committed_txns += 1
                else:
                    if end == "prepare-abort":
                        txn.prepare()
                    txn.rollback()
                    # Forget local handles from the aborted transaction;
                    # reload survivors from the DB.
                    live = {
                        slot: Slot.find(obj.id) for slot, obj in live.items()
                        if pub.database.get("slots", obj.id) is not None
                    }
            except Exception:
                raise
        assert pub.publisher.messages_published == committed_txns
        sub.subscriber.drain()
        pub_state = {s.id: s.n for s in Slot.all()}
        sub_state = {s.id: s.n for s in SubSlot.all()}
        assert sub_state == pub_state
        assert sub.subscriber.stuck_dependencies() == {}
