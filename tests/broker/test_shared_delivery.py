"""In-process deliveries share one immutable message.

``Broker.publish`` hands every local queue a ``Message.delivery()`` of
the published message instead of a parsed copy. These tests pin the two
halves of that contract: what a local subscriber reads is exactly what
the wire round trip would have given it, and nothing an application
callback does can reach the containers the deliveries share.
"""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import Broker, Message
from repro.core import Ecosystem
from repro.core.marshal import build_message, marshal_operation
from repro.databases.document import MongoLike
from repro.orm import Field, Model, before_save
from repro.runtime.conformance import INV_IMMUTABLE, DeliveryChecker
from repro.runtime.interleave import install_hook, uninstall_hook
from repro.runtime.tracing import Trace


# -- the callback boundary -----------------------------------------------------

def tagging_pipeline(subscribers, fail_first=()):
    """A publisher of ``Doc(tags: list)`` and subscribers whose
    ``before_save`` appends to ``self.tags``; those named in
    ``fail_first`` raise after their first append."""
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["tags"], name="Doc")
    class PubDoc(Model):
        tags = Field(list)

    subs = {}
    for name in subscribers:
        sub = eco.service(name, database=MongoLike(f"{name}-db"))
        failures = [name] if name in fail_first else []

        @sub.model(subscribe={"from": "pub", "fields": ["tags"]}, name="Doc")
        class SubDoc(Model):
            tags = Field(list)

            @before_save
            def tag(self, failures=failures, name=name):
                self.tags.append(f"seen-by-{name}")
                if failures:
                    failures.pop()
                    raise RuntimeError("first apply fails after mutating")

        subs[name] = (sub, SubDoc)
    return pub, PubDoc, subs


def test_redelivery_does_not_carry_a_callbacks_mutation():
    """Regression (present before deliveries were shared): the apply
    stored the message's own list into the instance, so a callback that
    appended and then failed left its append in the redelivered message
    — the row ended ``["a", "seen", "seen"]``."""
    pub, PubDoc, subs = tagging_pipeline(["sub"], fail_first=["sub"])
    sub, SubDoc = subs["sub"]
    with pub.controller():
        doc = PubDoc.create(tags=["a"])
    assert sub.subscriber.drain() == 0  # the callback raised: nacked
    assert sub.subscriber.drain() == 1  # redelivered
    assert SubDoc.find(doc.id).tags == ["a", "seen-by-sub"]
    assert not len(sub.subscriber.queue)


def test_one_subscribers_mutation_never_reaches_another():
    pub, PubDoc, subs = tagging_pipeline(["sub_a", "sub_b"])
    with pub.controller():
        doc = PubDoc.create(tags=["a"])
    (delivery_a,) = subs["sub_a"][0].subscriber.queue.peek_all()
    (delivery_b,) = subs["sub_b"][0].subscriber.queue.peek_all()
    assert delivery_a.operations is delivery_b.operations  # shared, unparsed
    for name, (sub, SubDoc) in subs.items():
        assert sub.subscriber.drain() == 1
        assert SubDoc.find(doc.id).tags == ["a", f"seen-by-{name}"]
    assert delivery_b.operations[0]["attributes"]["tags"] == ["a"]
    # Nor does the publisher's own later mutation reach a queued delivery.
    with pub.controller():
        other = PubDoc.create(tags=["b"])
    other.tags.append("publisher-side")
    (queued,) = subs["sub_a"][0].subscriber.queue.peek_all()
    assert queued.operations[0]["attributes"]["tags"] == ["b"]


def body_immutable_scenario(listen_from):
    """Directed scenario for ``body.immutable``: a subscriber callback
    appends to a list *nested* in a replicated attribute while the
    conformance checker listens — from before the publish, or only
    from the pop (a restored backlog); returns the checker's
    violations."""
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["meta"], name="Doc")
    class PubDoc(Model):
        meta = Field(dict)

    sub = eco.service("sub", database=MongoLike("sub-db"))

    @sub.model(subscribe={"from": "pub", "fields": ["meta"]}, name="Doc")
    class SubDoc(Model):
        meta = Field(dict)

        @before_save
        def tag(self):
            self.meta["tags"].append("seen")

    checker = DeliveryChecker(sub.subscriber)

    def hook(label, info, pause):
        checker.on_event(-1, "drain", label, info)

    if listen_from == "publish":
        install_hook(hook)
    try:
        with pub.controller():
            PubDoc.create(meta={"tags": ["a"]})
        if listen_from == "pop":
            install_hook(hook)
        assert sub.subscriber.drain() == 1
    finally:
        uninstall_hook(hook)
    return checker.violations


def test_checker_catches_a_write_into_the_shared_body():
    """The checker re-encodes every finished message against the
    reference it took itself when the message was queued (nothing is
    logged or shipped here, so the product never encoded it): silent
    with the boundary copy, fires with it reverted."""
    for listen_from in ("publish", "pop"):
        assert body_immutable_scenario(listen_from) == []
        with mock.patch("repro.core.subscriber.wire_value", lambda value: value):
            violations = body_immutable_scenario(listen_from)
        assert [v.invariant for v in violations] == [INV_IMMUTABLE]


# -- no JSON parse without a process boundary ----------------------------------

def publish_update_drain(pub, PubDoc, subs):
    """A create and an update, applied and acked at every subscriber."""
    with pub.controller():
        doc = PubDoc.create(tags=["a"])
    with pub.controller():
        doc.tags = ["b"]
        doc.save()
    for sub, SubDoc in subs.values():
        assert sub.subscriber.drain() == 2
        assert SubDoc.find(doc.id).tags[0] == "b"
        assert sub.subscriber.queue.stats()["acked"] == 2


def test_in_process_publish_apply_ack_never_parses_json():
    pub, PubDoc, subs = tagging_pipeline(["sub_a", "sub_b", "sub_c"])
    with mock.patch.object(
        Message, "from_json", side_effect=AssertionError("parsed a local delivery")
    ), mock.patch.object(
        Message, "from_wire", side_effect=AssertionError("rebuilt a local delivery")
    ):
        publish_update_drain(pub, PubDoc, subs)


def test_in_process_publish_apply_ack_never_encodes_json():
    """Nothing logs or ships these messages, so nothing may serialise
    them: not the publish, not the apply, not the ack."""
    pub, PubDoc, subs = tagging_pipeline(["sub_a", "sub_b", "sub_c"])
    refuse = AssertionError("encoded a message nobody ships or logs")
    with mock.patch.object(Message, "to_json", side_effect=refuse), \
            mock.patch.object(Message, "body", side_effect=refuse), \
            mock.patch("repro.broker.message.canonical_json", side_effect=refuse):
        publish_update_drain(pub, PubDoc, subs)


# -- a local delivery reads as the wire round trip would -----------------------

class Doc(Model):
    """Unbound model: ``marshal_operation`` only needs its fields."""

    name = Field(str)
    tags = Field(list)
    meta = Field(dict)


def ordered(value):
    """``value`` with every dict as a list of pairs, so ``==`` compares
    key order too."""
    if isinstance(value, dict):
        return [(key, ordered(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [ordered(item) for item in value]
    return value


scalars = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False)
)
nested = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)
dep_maps = st.dictionaries(
    st.text(alphabet="abc/_19", min_size=1, max_size=6), st.integers(0, 50),
    max_size=4,
)
rows = st.fixed_dictionaries({
    "id": st.integers(1, 99) | st.text(min_size=1, max_size=4),
    "name": st.text(max_size=8),
    "tags": st.lists(nested, max_size=3),
    "meta": st.dictionaries(st.text(max_size=4), nested, max_size=3),
})


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(rows, min_size=1, max_size=3),
    kind=st.sampled_from(["create", "update", "delete"]),
    deps=dep_maps,
    externals=dep_maps,
    increments=st.none() | dep_maps,
    coalesced=st.lists(st.text(min_size=1, max_size=6), max_size=3),
    cdc=st.none() | st.integers(1, 999),
    traced=st.booleans(),
    flags=st.tuples(st.booleans(), st.booleans()),
)
def test_local_delivery_equals_the_wire_round_trip(
    rows, kind, deps, externals, increments, coalesced, cdc, traced, flags
):
    message = build_message(
        app="pub",
        operations=[
            marshal_operation(kind, Doc, row, ["tags", "name", "meta"])
            for row in rows
        ],
        dependencies=dict(reversed(list(deps.items()))),
        external_dependencies=externals,
        published_at=12.5,
        generation=2,
        bootstrap=flags[0],
        repair=flags[1],
        cdc=cdc,
    )
    if increments:  # what a restored coalescing survivor carries
        message.rewrite(
            operations=message.operations,
            dependencies=message.dependencies,
            external_dependencies=message.external_dependencies,
            increments=dict(sorted(increments.items())),
            coalesced_uids=coalesced,
        )
    if traced:
        message.trace = Trace(app="pub", trace_id=message.uid)
        message.trace.add("publisher.intercept", 1.0, 0.25)
        message.trace.mark("queue.enqueued", 2.0)

    broker = Broker()
    queues = [broker.bind(name, "pub") for name in ("sub_a", "sub_b")]
    wire = json.loads(message.to_json())
    wire_trace = wire.pop("trace", None)
    broker.publish(message)
    for queue in queues:
        local = queue.pop()
        assert local.to_wire() == wire
        # ... and key for key: every container reads in wire order.
        assert ordered(list(local.to_wire().values())) == ordered(
            [wire[key] for key in local.to_wire()]
        )
        remote = Message.from_wire(json.loads(message.to_json()))
        assert ordered(local.counter_increments()) == ordered(
            remote.counter_increments()
        )
        assert local.body() is message.body()
        if traced:
            published = len(wire_trace["spans"])
            assert local.trace is not message.trace
            assert local.trace.to_dict()["spans"][:published] == wire_trace["spans"]
            assert local.trace.trace_id == wire_trace["trace_id"]
        else:
            assert local.trace is None
