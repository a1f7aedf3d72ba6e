"""Unicode round-trips through the whole wire path, and drain bounds."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.databases.document import MongoLike

# Includes combining characters, CJK, emoji, RTL and control-adjacent.
unicode_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),  # no lone surrogates
    max_size=40,
)


class TestUnicodeWirePath:
    @given(name=unicode_text)
    @settings(max_examples=60, deadline=None)
    def test_any_unicode_survives_publish_subscribe(self, name):
        eco, pub, sub, Item = build_replicated_pair(model="Item")
        item = Item.create(name=name)
        sub.subscriber.drain()
        assert sub.registry["Item"].find(item.id).name == name


class TestDrainBounds:
    def test_drain_all_terminates_with_max_rounds(self):
        eco = Ecosystem()
        assert eco.drain_all(max_rounds=1) == 0

    def test_drain_empty_subscriber(self):
        eco = Ecosystem()
        svc = eco.service("svc", database=MongoLike("m"))
        assert svc.subscriber.drain() == 0
