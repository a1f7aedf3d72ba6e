"""A payload the wire cannot carry is refused before the write.

A message whose queues are all local is never encoded, so the encoder
no longer polices the payload: ``core.marshal.wire_value`` does, with
the encoder's own accept/reject rule, and ``SynapsePublisher.write``
runs it over the written attributes *before* the engine write and the
version bump. A refused write therefore leaves no trace — the
regression half of this file (it failed before the check moved: the
``TypeError`` came after both, the bad row stayed, and every later
write to the object wedged at every causal subscriber).
"""

from __future__ import annotations

import datetime
import decimal
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_replicated_pair
from repro.broker.message import canonical_json
from repro.core import Ecosystem
from repro.core.dependencies import dep_name
from repro.core.marshal import wire_value
from repro.databases.document import MongoLike, TokuMXLike
from repro.orm import Field, Model, VirtualField

BAD_VALUES = {
    "object": lambda: [object()],
    "non-str-key": lambda: [{"nested": {1: "one"}}],
    "set": lambda: [{"a", "b"}],
}


def tagging_pair(engine):
    eco = Ecosystem()
    eco.service("pub", database=engine("pub-db"))
    eco.service("sub", database=MongoLike("sub-db"))
    _, pub, sub, PubDoc = build_replicated_pair(eco, {"tags": list})
    return eco, pub, sub, PubDoc, sub.registry["Doc"]


@pytest.mark.parametrize("bad", sorted(BAD_VALUES))
@pytest.mark.parametrize(
    "engine, transactional",
    [(MongoLike, False), (TokuMXLike, False), (TokuMXLike, True)],
    ids=["mongo-immediate", "tokumx-immediate", "tokumx-transaction"],
)
def test_refused_write_leaves_no_trace(engine, transactional, bad):
    eco, pub, sub, PubDoc, SubDoc = tagging_pair(engine)
    with pub.controller():
        doc = PubDoc.create(tags=["a"])
    assert sub.subscriber.drain() == 1
    store = pub.publisher_version_store
    dep = dep_name("pub", "docs", doc.id)
    before = store.current(dep)
    assert before == (1, 1)
    published = pub.publisher.messages_published

    with pytest.raises(TypeError):
        with pub.controller():
            if transactional:
                with pub.database.begin():
                    doc.update(tags=BAD_VALUES[bad]())
            else:
                doc.update(tags=BAD_VALUES[bad]())

    assert PubDoc.find(doc.id).tags == ["a"]
    assert store.current(dep) == before
    assert pub.publisher.messages_published == published
    assert not len(sub.subscriber.queue)

    with pub.controller():
        PubDoc.find(doc.id).update(tags=["b"])
    assert sub.subscriber.drain() == 1
    assert SubDoc.find(doc.id).tags == ["b"]
    assert sub.subscriber.stuck_dependencies() == {}


def test_refused_create_writes_nothing():
    eco, pub, sub, PubDoc, _ = tagging_pair(MongoLike)
    with pytest.raises(TypeError):
        with pub.controller():
            PubDoc.create(tags=[b"bytes"])
    assert PubDoc.count() == 0
    assert not len(sub.subscriber.queue)


def test_unpublished_fields_are_not_policed():
    """Only what is published must fit the wire: a private attribute
    keeps whatever the engine accepts."""
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        scratch = Field(list)

    marker = object()
    with pub.controller():
        doc = PubDoc.create(name="doc", scratch=[marker])
    assert PubDoc.find(doc.id).scratch == [marker]


def test_virtual_attribute_is_refused_by_the_marshal_walk():
    """A virtual attribute exists only after the write, when its getter
    runs: ``wire_value`` refuses it there, with the same error."""
    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"))

    @pub.model(publish=["name", "stamp"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        stamp = VirtualField(getter=lambda self: datetime.datetime(2015, 4, 21))

    with pytest.raises(TypeError, match="datetime"):
        with pub.controller():
            PubDoc.create(name="doc")


# -- wire_value and canonical_json apply one rule ------------------------------

scalars = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False)
)
accepted = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
refused_leaves = st.sampled_from([
    object(), {"a"}, frozenset("a"), b"bytes", bytearray(b"b"),
    decimal.Decimal("1.5"), datetime.datetime(2015, 4, 21),
    datetime.date(2015, 4, 21), 1 + 2j, range(3), {(1, 2): 0},
])
#: Keys JSON would carry by turning them into strings ("1", "null",
#: "true"): the encoder accepts them and changes the value, so the
#: wire refuses them.
stringified_keys = st.sampled_from([{1: 0}, {None: 0}, {1.5: 0}, {True: 0}])
wraps = st.sampled_from([
    lambda v, bad: bad,
    lambda v, bad: [v, bad],
    lambda v, bad: (bad, v),
    lambda v, bad: {"k": v, "z": [bad]},
    lambda v, bad: {"k": {"deep": (v, [bad])}},
])


@settings(max_examples=300, deadline=None)
@given(value=accepted)
def test_what_wire_value_accepts_encodes_and_round_trips(value):
    wired = wire_value(value)
    encoded = canonical_json(wired)
    assert json.loads(encoded) == wired
    assert encoded == canonical_json(value)


@settings(max_examples=200, deadline=None)
@given(value=accepted, leaf=refused_leaves, wrap=wraps)
def test_both_refuse_the_same_values(value, leaf, wrap):
    bad = wrap(value, leaf)
    with pytest.raises(TypeError):
        wire_value(bad)
    with pytest.raises(TypeError):
        canonical_json(bad)


@settings(max_examples=50, deadline=None)
@given(value=accepted, leaf=stringified_keys, wrap=wraps)
def test_keys_json_would_stringify_are_refused(value, leaf, wrap):
    bad = wrap(value, leaf)
    with pytest.raises(TypeError):
        wire_value(bad)
    assert json.loads(canonical_json(bad)) != bad  # why: not a round trip


def test_refusal_does_not_depend_on_anyone_encoding():
    """With the encoder out of reach the refusal still fires — it is
    the value walk's, not a side effect of serialising."""
    eco, pub, sub, PubDoc, _ = tagging_pair(MongoLike)
    with mock.patch(
        "repro.broker.message.canonical_json",
        side_effect=AssertionError("encoded"),
    ):
        with pub.controller():
            doc = PubDoc.create(tags=["a"])
        with pytest.raises(TypeError):
            with pub.controller():
                doc.update(tags=[object()])
        assert sub.subscriber.drain() == 1


# -- a refused virtual attribute moves no counter ------------------------------
#
# A virtual attribute has no value to check before the write: its getter
# runs when the operation is marshalled. Every front-end marshals before
# it bumps the version store, so the refusal leaves every counter where
# it was (these failed when the bump came first: the version moved with
# no message to carry it and the next write wedged every causal
# subscriber on ``stuck_dependencies() == {dep: (2, 1)}``).

BAD_VIRTUALS = {
    "datetime": datetime.datetime(2015, 4, 21),
    "set": {"a", "b"},
}


def stamped_pair(engine, bad):
    """``stamp`` is virtual: the upper-cased name, or — for the name
    ``"bad"`` — a value the wire cannot carry."""
    eco = Ecosystem()
    pub = eco.service("pub", database=engine("pub-db"), delivery_mode="causal")

    @pub.model(publish=["name", "stamp"], name="Doc")
    class PubDoc(Model):
        name = Field(str)
        stamp = VirtualField(
            getter=lambda self: bad if self.name == "bad" else self.name.upper()
        )

    eco.service("sub", database=MongoLike("sub-db"))
    _, pub, sub, _ = build_replicated_pair(eco, {"name": str, "stamp": str})
    return eco, pub, sub, PubDoc, sub.registry["Doc"]


@pytest.mark.parametrize("bad", sorted(BAD_VIRTUALS))
@pytest.mark.parametrize(
    "engine, transactional",
    [(MongoLike, False), (TokuMXLike, False), (TokuMXLike, True)],
    ids=["mongo-immediate", "tokumx-immediate", "tokumx-transaction"],
)
def test_refused_virtual_attribute_moves_no_counter(engine, transactional, bad):
    eco, pub, sub, PubDoc, SubDoc = stamped_pair(engine, BAD_VIRTUALS[bad])
    with pub.controller():
        doc = PubDoc.create(name="first")
    assert sub.subscriber.drain() == 1
    store = pub.publisher_version_store
    dep = dep_name("pub", "docs", doc.id)
    before = store.current(dep)
    assert before == (1, 1)
    published = pub.publisher.messages_published

    with pytest.raises(TypeError, match=bad):
        with pub.controller():
            if transactional:
                with pub.database.begin():
                    doc.update(name="bad")
            else:
                doc.update(name="bad")

    # Immediate: the row is written (the getter could only run on it);
    # 2PC: the failed prepare rolled the transaction back.
    assert PubDoc.find(doc.id).name == ("first" if transactional else "bad")
    assert store.current(dep) == before
    assert pub.publisher.messages_published == published
    assert not len(sub.subscriber.queue)

    with pub.controller():
        PubDoc.find(doc.id).update(name="second")
    assert sub.subscriber.drain() == 1
    replica = SubDoc.find(doc.id)
    assert (replica.name, replica.stamp) == ("second", "SECOND")
    assert sub.subscriber.stuck_dependencies() == {}


@pytest.mark.parametrize("bad", sorted(BAD_VIRTUALS))
def test_refused_virtual_attribute_on_cdc_ingest_moves_no_counter(bad):
    """The CDC twin: every retried poll of the entry raises again, and
    none of them bumps (the tail staying stuck behind such an entry is
    declared in docs/cdc.md)."""
    eco, pub, sub, PubDoc, _ = stamped_pair(MongoLike, BAD_VIRTUALS[bad])
    pub.enable_outbox()
    row = pub.raw_session().insert(PubDoc, {"name": "bad"})
    store = pub.publisher_version_store
    dep = dep_name("pub", "docs", row["id"])
    before = store.current(dep)
    for _poll in range(2):
        with pytest.raises(TypeError, match=bad):
            pub.cdc_poller.poll()
        assert store.current(dep) == before
    assert pub.cdc_poller.cursor == 0
    assert pub.publisher.messages_published == 0
    assert not len(sub.subscriber.queue)
