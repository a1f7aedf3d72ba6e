"""Delivery-semantics integration tests (§3.2, §4.2, Fig 8)."""


from repro.core import Ecosystem
from repro.core.delivery import GLOBAL_OBJECT
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import BelongsTo, Field, Model


def build_social_publisher(eco, mode="causal"):
    """The Fig 8 publisher: users, posts, comments."""
    pub = eco.service("pub", database=PostgresLike("pub-db"), delivery_mode=mode)

    @pub.model(publish=["name"])
    class User(Model):
        name = Field(str)

    @pub.model(publish=["author_id", "body"])
    class Post(Model):
        body = Field(str)
        author = BelongsTo("User")

    @pub.model(publish=["post_id", "author_id", "body"])
    class Comment(Model):
        body = Field(str)
        post = BelongsTo("Post")
        author = BelongsTo("User")

    return pub, User, Post, Comment


def build_social_subscriber(eco, name="sub", mode=None):
    sub = eco.service(name, database=MongoLike(f"{name}-db"))
    spec_mode = {} if mode is None else {"mode": mode}

    @sub.model(subscribe={"from": "pub", "fields": ["name"], **spec_mode})
    class User(Model):
        name = Field(str)

    @sub.model(subscribe={"from": "pub", "fields": ["author_id", "body"], **spec_mode})
    class Post(Model):
        body = Field(str)
        author = BelongsTo("User")

    @sub.model(
        subscribe={
            "from": "pub",
            "fields": ["post_id", "author_id", "body"],
            **spec_mode,
        }
    )
    class Comment(Model):
        body = Field(str)
        post = BelongsTo("Post")
        author = BelongsTo("User")

    return sub, User, Post, Comment


def run_fig8_trace(pub, User, Post, Comment):
    """The exact 4-controller interaction of Fig 8(a)."""
    user1 = User.create(name="user1")
    user2 = User.create(name="user2")
    with pub.controller(user=user1):
        post = Post.create(author_id=user1.id, body="helo")
    with pub.controller(user=user2):
        post_seen = Post.find(post.id)
        Comment.create(post_id=post_seen.id, author_id=user2.id,
                       body="you have a typo")
    with pub.controller(user=user1):
        post_seen = Post.find(post.id)
        Comment.create(post_id=post_seen.id, author_id=user1.id,
                       body="thanks for noticing")
    with pub.controller(user=user1):
        post_again = Post.find(post.id)
        post_again.update(body="hello")
    return post


class TestFig8Dependencies:
    def test_message_dependency_graph(self):
        """M2/M3 depend on M1, M4 depends on all prior (Fig 8c)."""
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco)
        queue = eco.broker.bind("probe", "pub")
        run_fig8_trace(pub, User, Post, Comment)

        messages = []
        while True:
            msg = queue.pop()
            if msg is None:
                break
            messages.append(msg)
        # 2 user creations + the four Fig 8 writes.
        assert len(messages) == 6
        m1, m2, m3, m4 = messages[2:]
        post_dep = "pub/posts/id/1"
        u1_dep = "pub/users/id/1"
        u2_dep = "pub/users/id/2"
        # W1: creating the post in user1's session.
        assert m1.dependencies[post_dep] == 0
        assert m1.dependencies[u1_dep] == 1  # user1 already created once
        # W2: comment by user2, read dep on the post.
        assert m2.dependencies[post_dep] == 1
        assert m2.dependencies["pub/comments/id/1"] == 0
        assert m2.dependencies[u2_dep] == 1
        # W3: comment by user1, read dep on the post.
        assert m3.dependencies[post_dep] == 1
        assert m3.dependencies["pub/comments/id/2"] == 0
        assert m3.dependencies[u1_dep] == 2
        # W4: post update serialises after everything touching the post.
        assert m4.dependencies[post_dep] == 3
        assert m4.dependencies[u1_dep] == 3

    def test_causal_subscriber_blocks_until_dependency_met(self):
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco)
        sub, SUser, SPost, SComment = build_social_subscriber(eco)
        queue = sub.subscriber.queue

        user = User.create(name="u")
        with pub.controller(user=user):
            post = Post.create(author_id=user.id, body="first")
        with pub.controller(user=user):
            Post.find(post.id)
            Comment.create(post_id=post.id, author_id=user.id, body="c")

        # Drop the user-creation + post-creation messages from the queue
        # by popping them, keeping only the comment message.
        first = queue.pop()
        second = queue.pop()
        comment_msg = queue.pop()
        assert comment_msg.operations[0]["types"][0] == "Comment"
        # Comment cannot process: its post/user deps are unmet.
        assert not sub.subscriber.process_message(comment_msg)
        # Process prerequisites, then the comment goes through.
        assert sub.subscriber.process_message(first)
        assert sub.subscriber.process_message(second)
        assert sub.subscriber.process_message(comment_msg)
        assert SComment.count() == 1

    def test_out_of_order_queue_converges_under_causal(self):
        """Even if the fabric reorders, drain applies causally."""
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco)
        sub, SUser, SPost, SComment = build_social_subscriber(eco)
        run_fig8_trace(pub, User, Post, Comment)
        # Shuffle the queue by popping everything and nacking in reverse.
        queue = sub.subscriber.queue
        messages = []
        while True:
            msg = queue.pop()
            if msg is None:
                break
            messages.append(msg)
        for msg in messages:  # nack in original order puts them reversed
            queue.nack(msg)
        sub.subscriber.drain()
        assert SPost.find(1).body == "hello"
        assert SComment.count() == 2


class TestUserSessionSerialisation:
    def test_same_user_writes_serialise(self):
        """Writes in two controllers of one user chain through the user
        object's dependency (§4.2)."""
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco)
        queue = eco.broker.bind("probe", "pub")
        user = User.create(name="u")
        queue.pop()
        with pub.controller(user=user):
            Post.create(author_id=user.id, body="one")
        with pub.controller(user=user):
            Post.create(author_id=user.id, body="two")
        m1 = queue.pop()
        m2 = queue.pop()
        user_dep = "pub/users/id/1"
        # Second post's user-dep version reflects the first write.
        assert m2.dependencies[user_dep] == m1.dependencies[user_dep] + 1

    def test_controller_write_chaining(self):
        """Within one controller, update N+1 read-depends on update N."""
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco)
        queue = eco.broker.bind("probe", "pub")
        with pub.controller():
            p1 = Post.create(body="a")
            p2 = Post.create(body="b")
        queue.pop()
        m2 = queue.pop()
        # p2's message carries a read dep on p1 (the chained write).
        assert m2.dependencies["pub/posts/id/1"] == 1
        assert m2.dependencies["pub/posts/id/2"] == 0


class TestGlobalMode:
    def test_global_publisher_adds_global_object(self):
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco, mode="global")
        queue = eco.broker.bind("probe", "pub")
        User.create(name="a")
        User.create(name="b")
        m1, m2 = queue.pop(), queue.pop()
        assert m1.dependencies[GLOBAL_OBJECT] == 0
        assert m2.dependencies[GLOBAL_OBJECT] == 1

    def test_global_subscriber_fully_serialises(self):
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco, mode="global")
        sub, SUser, *_ = build_social_subscriber(eco, mode="global")
        for i in range(5):
            User.create(name=f"u{i}")
        assert sub.subscriber.drain() == 5
        assert SUser.count() == 5

    def test_global_gate_is_bumped_after_the_object_counters(self):
        """The wire carries dependencies in canonical key order, which
        puts ``__global__`` first; the subscriber still bumps it last,
        so a successor admitted by the gate finds every earlier bump in
        place (and conformance schedules do not depend on JSON key
        order)."""
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco, mode="global")
        sub, *_ = build_social_subscriber(eco, mode="global")
        store = sub.subscriber_version_store
        bumped = []
        apply_counts = store.apply_counts

        def recording(counts):
            bumped.append(list(counts))
            apply_counts(counts)

        store.apply_counts = recording
        user = User.create(name="a")
        Post.create(body="hi", author_id=user.id)
        wire = sub.subscriber.queue.peek_all()[0].dependencies
        assert list(wire)[0] == GLOBAL_OBJECT and len(wire) > 1
        assert sub.subscriber.drain() == 2
        assert len(bumped) == 2
        assert all(keys[-1] == GLOBAL_OBJECT and len(keys) > 1 for keys in bumped)

    def test_causal_subscriber_of_global_publisher_ignores_global_object(self):
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco, mode="global")
        sub, SUser, *_ = build_social_subscriber(eco, mode="causal")
        User.create(name="a")
        queue = sub.subscriber.queue
        m1 = queue.pop()
        User.create(name="b")
        m2 = queue.pop()
        # Process out of order: causal ignores the global chain between
        # unrelated users, so m2 can go first.
        assert sub.subscriber.process_message(m2)
        assert sub.subscriber.process_message(m1)
        assert SUser.count() == 2


class TestWeakMode:
    def test_weak_subscriber_applies_latest_and_discards_stale(self):
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco, mode="causal")
        sub, SUser, *_ = build_social_subscriber(eco, mode="weak")
        user = User.create(name="v1")
        user.update(name="v2")
        user.update(name="v3")
        queue = sub.subscriber.queue
        m1, m2, m3 = queue.pop(), queue.pop(), queue.pop()
        # Deliver out of order: latest first.
        assert sub.subscriber.process_message(m3)
        assert SUser.find(user.id).name == "v3"
        # Stale updates are discarded, not applied.
        assert sub.subscriber.process_message(m1)
        assert sub.subscriber.process_message(m2)
        assert SUser.find(user.id).name == "v3"
        assert eco.metrics.value("subscriber.sub.stale_discarded") == 2

    def test_weak_subscriber_tolerates_message_loss(self):
        """The §6.5 scenario: weak subscribers keep making progress."""
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco)
        sub, SUser, *_ = build_social_subscriber(eco, mode="weak")
        user = User.create(name="v1")
        eco.broker.drop_next(1)
        user.update(name="v2")  # lost in transit
        user.update(name="v3")
        sub.subscriber.drain()
        assert SUser.find(user.id).name == "v3"

    def test_causal_subscriber_stalls_on_message_loss(self):
        """...while causal subscribers deadlock on the missing dep."""
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco)
        sub, SUser, *_ = build_social_subscriber(eco, mode="causal")
        user = User.create(name="v1")
        eco.broker.drop_next(1)
        user.update(name="v2")  # lost
        user.update(name="v3")
        sub.subscriber.drain()
        assert SUser.find(user.id).name == "v1"  # stuck pre-loss
        stuck = sub.subscriber.stuck_dependencies()
        assert stuck  # diagnosable deadlock

    def test_weak_publisher_messages_have_single_dependency(self):
        eco = Ecosystem()
        pub, User, Post, Comment = build_social_publisher(eco, mode="weak")
        queue = eco.broker.bind("probe", "pub")
        user = User.create(name="u")
        with pub.controller(user=user):
            Post.create(author_id=user.id, body="x")
        queue.pop()
        m2 = queue.pop()
        # Weak publisher: only the object's own write dep, no user dep.
        assert list(m2.dependencies) == ["pub/posts/id/1"]
