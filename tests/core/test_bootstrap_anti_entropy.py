"""Bootstrap anti-entropy: ghost rows from lost delete messages."""


from repro.apps import build_replicated_pair
from repro.core import Ecosystem
from repro.core.bootstrap import bootstrap_subscriber
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model


def build(eco):
    _, pub, sub, Item = build_replicated_pair(eco, {"n": int}, "Item")
    return pub, Item, sub, sub.registry["Item"]


class TestGhostRowReconciliation:
    def test_lost_delete_cleaned_up_by_bootstrap(self):
        eco = Ecosystem()
        pub, Item, sub, SubItem = build(eco)
        keep = Item.create(n=1)
        ghost = Item.create(n=2)
        sub.subscriber.drain()
        assert SubItem.count() == 2
        # The delete message is lost in transit (§6.5).
        eco.broker.drop_next(1)
        ghost.destroy()
        sub.subscriber.drain()
        assert SubItem.count() == 2  # ghost row lingers
        bootstrap_subscriber(sub)
        assert {i.id for i in SubItem.all()} == {keep.id}

    def test_ghost_delete_fires_destroy_callbacks(self):
        eco = Ecosystem()
        pub = eco.service("pub", database=MongoLike("p"))

        @pub.model(publish=["n"], name="Item")
        class Item(Model):
            n = Field(int)

        sub = eco.service("sub", database=PostgresLike("s"))
        removed = []

        from repro.orm import after_destroy

        @sub.model(subscribe={"from": "pub", "fields": ["n"]}, name="Item")
        class SubItem(Model):
            n = Field(int)

            @after_destroy
            def log(self):
                removed.append(self.id)

        item = Item.create(n=1)
        sub.subscriber.drain()
        eco.broker.drop_next(1)
        item.destroy()
        bootstrap_subscriber(sub)
        assert removed == [item.id]

    def test_multi_publisher_models_exempt(self):
        """A model subscribed from two publishers (Fig 3's Sub2) must not
        lose rows just because one publisher's dump misses them."""
        eco = Ecosystem()
        pub1 = eco.service("pub1", database=MongoLike("p1"))

        @pub1.model(publish=["name"], name="User")
        class User1(Model):
            name = Field(str)

        dec = eco.service("dec2", database=MongoLike("d"))

        @dec.model(subscribe={"from": "pub1", "fields": ["name"]},
                   publish=["interests"], name="User")
        class DecUser(Model):
            name = Field(str)
            interests = Field(list, default=list)

        sub = eco.service("sub2", database=PostgresLike("s"))

        @sub.model(subscribe=[
            {"from": "pub1", "fields": ["name"]},
            {"from": "dec2", "fields": ["interests"]},
        ], name="User")
        class SubUser(Model):
            name = Field(str)
            interests = Field(list, default=list)

        ada = User1.create(name="ada")
        eco.drain_all()
        assert SubUser.count() == 1
        # Bootstrapping from dec2 (whose own User copy might lag) must
        # not delete the row that pub1 owns.
        bootstrap_subscriber(sub, "dec2")
        assert SubUser.count() == 1
