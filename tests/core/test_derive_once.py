"""The subscriber derives once per publish, not once per delivery.

What a subscriber derives from a message's body alone — the written
objects' versions, the dependency map weakened to its delivery mode and
the counter bumps in that mode's order — lives in the message's facts
cell, shared by every local delivery of one publish. These tests pin
the cell's contract (once per publish, emptied by a coalescing rewrite,
keyed by mode) and that the leaner apply path (hydrate, ``from_row``)
behaves exactly as before.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps import build_replicated_pair
from repro.broker import Message
from repro.clock import VirtualClock
from repro.core import Ecosystem
from repro.core import subscriber as subscriber_module
from repro.core.delivery import GLOBAL_OBJECT
from repro.core.subscriber import SynapseSubscriber
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.errors import ReadOnlyAttributeError
from repro.orm import Field, Model, VirtualField
from repro.runtime.flow import FlowConfig
from repro.runtime.interleave import install_hook, uninstall_hook
from repro.versionstore.store import SubscriberVersionStore


@pytest.fixture
def derivations(monkeypatch):
    """Counts each derivation of a fact, by fact."""
    calls: Counter = Counter()

    def counting(name, derive):
        def wrapper(*args):
            calls[name] += 1
            return derive(*args)
        return wrapper

    monkeypatch.setattr(
        SynapseSubscriber, "_written", counting("written", SynapseSubscriber._written)
    )
    monkeypatch.setattr(
        subscriber_module, "_required", counting("required", subscriber_module._required)
    )
    monkeypatch.setattr(
        SynapseSubscriber, "_bump_order", counting("bumps", SynapseSubscriber._bump_order)
    )
    return calls


def fan_out(modes, publisher_mode="causal", flow=None):
    """One ``Doc`` publisher and one subscriber per entry of ``modes``."""
    eco = Ecosystem()
    if flow is not None:
        eco.enable_flow(flow)
    eco.service("pub", database=MongoLike("pub-db"), delivery_mode=publisher_mode)
    subs = []
    for index, mode in enumerate(modes):
        _, pub, sub, PubDoc = build_replicated_pair(
            eco, {"name": str, "value": int}, mode=mode, sub=f"sub{index}"
        )
        subs.append(sub)
    return eco, pub, PubDoc, subs


class TestFactsCell:
    def test_a_fan_out_of_three_derives_each_fact_once(self, derivations):
        eco, pub, PubDoc, subs = fan_out(["causal"] * 3)
        with pub.controller():
            doc = PubDoc.create(name="a", value=1)
        for sub in subs:
            assert sub.subscriber.drain() == 1
        assert derivations == {"written": 1, "required": 1, "bumps": 1}
        with pub.controller():
            doc.update(value=2)
        for sub in subs:
            assert sub.subscriber.drain() == 1
            assert sub.registry["Doc"].find(doc.id).value == 2
        assert derivations == {"written": 2, "required": 2, "bumps": 2}

    def test_deliveries_share_the_cell_and_a_rewrite_or_the_wire_empties_it(self):
        published = Message("pub", [], {"d": 0}, 0.0)
        delivery = published.delivery()
        fact = published.fact("k", lambda message: {"derived": True})
        assert delivery.fact("k", lambda message: {"derived": False}) is fact
        delivery.rewrite([], {"d": 1}, {}, {"d": 2})
        assert delivery.fact("k", lambda message: dict(message.increments)) == {"d": 2}
        assert published.fact("k", lambda message: None) is fact
        wired = Message.from_json(published.to_json())
        assert wired.fact("k", lambda message: "fresh") == "fresh"

    def test_a_coalesced_delivery_is_rederived_after_its_rewrite(self, derivations):
        """sub1 derives the first publish's facts; the second publish
        then coalesces into sub0's still-queued delivery of it. sub0
        must bump by the merged increments, not the cached first ones:
        with the stale bumps its counter would stay one short and the
        next update would wait for ever."""
        eco, pub, PubDoc, (sub0, sub1) = fan_out(
            ["causal", "causal"], flow=FlowConfig(coalesce=True)
        )
        with pub.controller():
            doc = PubDoc.create(name="a", value=1)
        assert sub1.subscriber.drain() == 1
        with pub.controller():
            doc.update(value=2)
        (survivor,) = sub0.subscriber.queue.peek_all()
        # The second publish merged in: its value, its bump.
        assert eco.metrics.value("flow.sub0.coalesced") == 1
        assert survivor.operations[0]["attributes"]["value"] == 2
        assert sub0.subscriber.drain() == 1
        assert derivations["bumps"] == 2
        with pub.controller():
            doc.update(value=3)
        for sub in (sub0, sub1):
            sub.subscriber.drain()
            assert sub.registry["Doc"].find(doc.id).value == 3
            assert sub.subscriber.stuck_dependencies() == {}

    def test_each_mode_gets_its_own_required_map_and_bump_order(self, monkeypatch):
        """A causal and a global subscriber of one global publisher: the
        causal one drains first and must not hand the global one its
        bump order (gate counter first, in canonical key order)."""
        eco, pub, PubDoc, (causal, global_) = fan_out(
            ["causal", "global"], publisher_mode="global"
        )
        gate = eco.hasher.hash(GLOBAL_OBJECT)
        bumps = {}
        apply_counts = SubscriberVersionStore.apply_counts

        def recording(store, counts):
            bumps[store] = list(counts)
            apply_counts(store, counts)

        monkeypatch.setattr(SubscriberVersionStore, "apply_counts", recording)
        required = []

        def hook(label, info, pause):
            if label == "dep.check":
                required.append(dict(info["required"]))

        with pub.controller():
            PubDoc.create(name="a", value=1)
        install_hook(hook)
        try:
            for sub in (causal, global_):
                assert sub.subscriber.drain() == 1
        finally:
            uninstall_hook(hook)
        causal_required, global_required = required
        assert gate not in causal_required
        assert global_required == {**causal_required, gate: 0}
        causal_bumps = bumps[causal.subscriber_version_store]
        global_bumps = bumps[global_.subscriber_version_store]
        assert sorted(causal_bumps) == sorted(global_bumps)
        assert causal_bumps[0] == gate  # canonical order, as on the wire
        assert global_bumps[-1] == gate  # the gate opens last


class TestApplyPathKeepsBehaviour:
    def build(self):
        eco = Ecosystem(clock=VirtualClock(start=100.0))
        pub = eco.service("pub", database=MongoLike("pub-db"))

        @pub.model(publish=["name", "body"], name="Doc")
        class PubDoc(Model):
            name = Field(str)
            body = Field(str)

        sub = eco.service("sub", database=PostgresLike("sub-db"))

        @sub.model(
            subscribe={"from": "pub", "fields": {"name": "title", "body": "shout"}},
            name="Doc",
        )
        class SubDoc(Model):
            title = Field(str)
            stored = Field(str)
            shout = VirtualField()
            created_at = Field(float)
            updated_at = Field(float)

            def shout_set(self, value):
                self.stored = value.upper()

            def shout_get(self):
                return self.stored.lower()

        return eco, pub, PubDoc, sub, SubDoc

    def test_renames_virtual_setters_and_timestamps_still_apply(self):
        eco, pub, PubDoc, sub, SubDoc = self.build()
        with pub.controller():
            doc = PubDoc.create(name="hello", body="quiet")
        sub.subscriber.drain()
        row = SubDoc.find(doc.id)
        assert row.title == "hello"  # ``as:`` rename: lands on its local name
        assert row.stored == "QUIET"  # the virtual attribute ran its setter
        assert row.created_at is not None and row.updated_at is not None
        created = row.created_at
        eco.clock.advance(5.0)
        with pub.controller():
            doc.update(name="again")
        sub.subscriber.drain()
        row = SubDoc.find(doc.id)
        assert row.title == "again" and row.stored == "QUIET"
        assert row.created_at == created and row.updated_at > created

    def test_a_subscribed_attribute_stays_read_only_outside_an_apply(self):
        eco, pub, PubDoc, sub, SubDoc = self.build()
        with pub.controller():
            doc = PubDoc.create(name="hello", body="quiet")
        sub.subscriber.drain()
        row = SubDoc.find(doc.id)
        with pytest.raises(ReadOnlyAttributeError):
            row.title = "mine"
        fresh = SubDoc.from_row({"id": 99})
        assert fresh.title is None and not fresh.new_record
