"""Off is a configuration, not a code path.

Every subsystem is attached from construction; "disabled" is an object
that does nothing. Two things follow and are pinned here: an ecosystem
with nothing enabled runs the same hooks against its off forms (and
grows no instruments of the subsystems it does not run), and the one
registration call, ``Broker.attach``, reaches the queues that existed
before a subsystem was switched on.
"""

from __future__ import annotations

import pytest

from repro.apps import build_replicated_pair
from repro.durability import DURABILITY_OFF, DurabilityManager
from repro.runtime.flow import FLOW_OFF, FlowConfig, QueueFlow
from repro.runtime.workers import SubscriberWorkerPool


def _pair(mode="weak"):
    eco, pub, sub, Doc = build_replicated_pair(
        None, {"name": str, "value": int}, mode=mode
    )
    return eco, pub, sub, Doc


class TestNothingEnabled:
    def test_every_subsystem_is_its_off_form(self):
        eco, _pub, sub, _Doc = _pair()
        queue = sub.subscriber.queue
        assert eco.flow is FLOW_OFF and queue.flow is FLOW_OFF
        assert eco.durability is DURABILITY_OFF and queue.durability is DURABILITY_OFF
        assert eco.cdc.pollers == {} and eco.enable_cdc() is eco.cdc
        assert eco.broker.local_queues() == [queue]
        # Not instances of the on forms: nothing wraps them, nothing
        # registers instruments for them.
        assert not isinstance(FLOW_OFF, QueueFlow)
        assert not isinstance(DURABILITY_OFF, DurabilityManager)

    def test_the_off_forms_do_nothing_observable(self):
        eco, pub, sub, Doc = _pair()
        with pub.controller():
            doc = Doc.create(name="a", value=1)
            doc.update(value=2)
        assert len(sub.subscriber.queue) == 2  # nothing coalesced
        assert sub.subscriber.batch_limit == 1
        assert eco.drain_all() == 2
        assert sub.registry["Doc"].__mapper__.find(doc.id)["value"] == 2
        names = set(eco.metrics.snapshot())
        assert not [n for n in names if n.startswith(("flow.", "durability.", "cdc."))]


    def test_a_flow_off_pool_pops_one_and_never_reads_link_pressure(self):
        eco, pub, sub, Doc = _pair()
        pool = SubscriberWorkerPool(sub, workers=1)
        assert eco.flow is FLOW_OFF and sub.subscriber.batch_limit == 1
        with pub.controller():
            docs = [Doc.create(name=f"d{i}", value=i) for i in range(40)]
        with pool:
            assert pool.wait_until_idle(timeout=10)
        assert all(sub.registry["Doc"].__mapper__.find(d.id) for d in docs)
        assert eco.metrics.value("workers.sub.apply_errors") == 0


class TestEnablingAfterTheQueuesExist:
    def test_flow_and_wal_reach_a_queue_declared_before_them(self, tmp_path):
        eco, pub, sub, Doc = _pair()
        queue = sub.subscriber.queue  # bound by the subscription
        eco.enable_flow(FlowConfig(batch_max=4))
        manager = eco.enable_durability(data_dir=str(tmp_path), fsync="off")
        assert isinstance(queue.flow, QueueFlow) and queue.durability is manager
        with pub.controller():
            doc = Doc.create(name="a", value=1)
            doc.update(value=2)
        assert len(queue) == 1  # the update merged into the create
        assert eco.metrics.value("flow.sub.coalesced") == 1
        manager.wal.sync()
        kinds = [(rec["t"], rec.get("q")) for _, rec in manager.wal.replay()]
        assert kinds == [("out", None), ("pub", "sub"), ("out", None), ("coal", "sub")]
        assert sub.subscriber.batch_limit == 4
        eco.drain_all()
        assert sub.registry["Doc"].__mapper__.find(doc.id)["value"] == 2
        manager.close()

    def test_a_placement_attached_after_bind_forwards(self):
        eco, pub, sub, Doc = _pair()
        queue = sub.subscriber.queue
        shipped = []
        eco.broker.attach(placement=(
            lambda name: name != "sub",
            lambda name, payload: shipped.append((name, payload)),
        ))
        with pub.controller():
            Doc.create(name="far", value=1)
        assert len(queue) == 0
        assert [name for name, _ in shipped] == ["sub"]
        assert eco.broker.local_queues() == []

    def test_attach_refuses_what_it_does_not_wire(self):
        eco, _pub, _sub, _Doc = _pair()
        with pytest.raises(TypeError, match="sizer"):
            eco.broker.attach(sizer=object())
