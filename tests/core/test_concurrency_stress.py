"""Threaded stress tests: concurrent publishers + concurrent subscriber
workers over the real engines."""

import threading


from repro.core import Ecosystem
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import BelongsTo, Field, Model
from repro.runtime.workers import SubscriberWorkerPool


def build(eco):
    pub = eco.service("pub", database=MongoLike("pub-db"),
                      version_store_shards=4)

    @pub.model(publish=["name", "version"])
    class User(Model):
        name = Field(str)
        version = Field(int, default=0)

    @pub.model(publish=["author_id", "body"])
    class Post(Model):
        body = Field(str)
        author = BelongsTo("User")

    sub = eco.service("sub", database=PostgresLike("sub-db"),
                      version_store_shards=4)

    @sub.model(subscribe={"from": "pub", "fields": ["name", "version"]},
               name="User")
    class SubUser(Model):
        name = Field(str)
        version = Field(int, default=0)

    @sub.model(subscribe={"from": "pub", "fields": ["author_id", "body"]},
               name="Post")
    class SubPost(Model):
        body = Field(str)
        author_id = Field(int)

    return pub, pub.registry["User"], pub.registry["Post"], sub, \
        sub.registry["User"], sub.registry["Post"]


def stall_report(sub):
    """What a pool that failed to go idle was waiting on: the unmet
    dependency counters of the queued messages as ``(required, seen)``,
    the queue's accounting, and the deliveries popped but never acked."""
    queue = sub.subscriber.queue
    return {
        "stuck_dependencies": sub.subscriber.stuck_dependencies(),
        "queued": len(queue),
        "published": queue.total_published,
        "acked": queue.total_acked,
        "unacked": [message.uid for message in queue.peek_unacked()],
    }


class TestConcurrentPipeline:
    def test_concurrent_publishers_and_workers(self):
        eco = Ecosystem()
        pub, User, Post, sub, SubUser, SubPost = build(eco)
        users = [User.create(name=f"u{i}") for i in range(8)]
        sub.subscriber.drain()
        errors = []

        def publisher_thread(user):
            try:
                for i in range(25):
                    with pub.controller(user=user):
                        seen = User.find(user.id)
                        Post.create(author_id=seen.id, body=f"{user.name}-{i}")
                        seen.update(version=i + 1)
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        with SubscriberWorkerPool(sub, workers=6, wait_timeout=0.5) as pool:
            threads = [threading.Thread(target=publisher_thread, args=(u,))
                       for u in users]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert pool.wait_until_idle(timeout=30), stall_report(sub)
        assert errors == []
        # Everything arrived, exactly once.
        assert SubPost.count() == 8 * 25
        # Per-user causality: the final version is the last one written.
        for user in users:
            assert SubUser.find(user.id).version == 25

    def test_per_object_serialisation_under_contention(self):
        """Many threads updating one object: the subscriber must end at
        the publisher's final value (no lost or reordered final write)."""
        eco = Ecosystem()
        pub, User, Post, sub, SubUser, SubPost = build(eco)
        target = User.create(name="contended")
        barrier = threading.Barrier(4)

        def writer(k):
            barrier.wait()
            for i in range(20):
                # Each update re-reads to avoid clobbering attr state.
                fresh = User.find(target.id)
                fresh.update(version=(fresh.version or 0) + 1)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with SubscriberWorkerPool(sub, workers=4, wait_timeout=0.5) as pool:
            assert pool.wait_until_idle(timeout=30), stall_report(sub)
        assert SubUser.find(target.id).version == User.find(target.id).version

    def test_sharded_version_store_under_threads(self):
        """Counter integrity across 4 shards with concurrent publishers."""
        eco = Ecosystem()
        pub, User, Post, sub, SubUser, SubPost = build(eco)

        def hammer(k):
            for i in range(50):
                Post.create(author_id=None, body=f"{k}-{i}")

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pub.publisher.messages_published == 300
        sub.subscriber.drain()
        assert SubPost.count() == 300
