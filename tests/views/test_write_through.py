"""A fold writes its aggregates through: after any fold the next read of
every touched view and every surviving row is a hit with the post-fold
value, two folds of one view leave the later one's value in the cache,
and a view misses only after a flush."""

import random
import sys
import threading

import pytest

from repro.databases.relational import PostgresLike
from repro.runtime.flow import FlowConfig
from tests.views.test_read_path import (
    assert_views_match_recompute,
    build_pipeline,
)

VIEW_NAMES = ("posts", "karma", "top", "feeds")


def sub_rows(sub):
    mapper = sub.registry.get("Post").__mapper__
    return {row["id"]: row for row in mapper._do_where({}, None, None)}


def assert_reads_hit_fresh(eco, sub):
    """Read every view and every surviving row once: all hits, all at
    the post-fold value."""
    views = sub.views
    hits = eco.metrics.value("cache.sub.hits")
    misses = eco.metrics.value("cache.sub.misses")
    rows = sub_rows(sub)
    for name in VIEW_NAMES:
        assert views.read(name) == views.peek(name)
    for row_id, row in rows.items():
        assert views.read_row("Post", row_id) == row
    assert eco.metrics.value("cache.sub.misses") == misses
    assert eco.metrics.value("cache.sub.hits") == (
        hits + len(VIEW_NAMES) + len(rows)
    )
    assert_views_match_recompute(views)


class TestEveryFoldLeavesHits:
    def test_declare_and_single_applies(self):
        eco, pub, sub, post_cls = build_pipeline()
        assert_reads_hit_fresh(eco, sub)  # declared views start cached
        with pub.controller():
            posts = [post_cls.create(author="ada", score=i) for i in range(3)]
        sub.subscriber.drain()
        assert_reads_hit_fresh(eco, sub)
        with pub.controller():
            posts[0].score = 40
            posts[0].save()
            posts[1].destroy()
        sub.subscriber.drain()
        assert_reads_hit_fresh(eco, sub)
        assert sub.views.read("karma") == 42

    def test_group_committed_batch(self):
        eco, pub, sub, post_cls = build_pipeline(
            flow=FlowConfig(batch_max=8, throttle_delay=0.0)
        )
        with pub.controller():
            for i in range(4):
                post_cls.create(author="ada", score=i)
        queue = sub.subscriber.queue
        done, retry, errors = sub.subscriber.process_batch(
            queue.pop_many(8, timeout=0.0)
        )
        assert len(done) == 4 and not retry and not errors
        assert eco.metrics.value("views.sub.batch_flushes") == 1
        assert_reads_hit_fresh(eco, sub)

    def test_multi_operation_message(self):
        eco, pub, sub, post_cls = build_pipeline(pub_db=PostgresLike("pub-db"))
        with pub.controller(), pub.database.begin():
            first = post_cls.create(author="ada", score=1)
            post_cls.create(author="bob", score=2)
            first.score = 10
            first.save()
        message = sub.subscriber.queue.peek_all()[0]
        assert len(message.operations) == 3
        sub.subscriber.drain()
        assert sub.views.peek("karma") == 12
        assert_reads_hit_fresh(eco, sub)

    def test_rollback_redo(self):
        eco, pub, sub, post_cls = build_pipeline(
            flow=FlowConfig(batch_max=8, throttle_delay=0.0)
        )
        with pub.controller():
            for i in range(4):
                post_cls.create(author="ada", score=i + 1)
        queue = sub.subscriber.queue
        # Writes 1-2 land in the group commit, write 3 faults: the
        # engine rolls back, the buffered transitions are dropped and
        # the completed prefix is redone outside a batch.
        sub.database.faults.skip_next_writes = 2
        sub.database.faults.fail_next_writes = 1
        done, retry, errors = sub.subscriber.process_batch(
            queue.pop_many(8, timeout=0.0)
        )
        assert errors == 1 and done and retry
        assert_reads_hit_fresh(eco, sub)
        done, retry, errors = sub.subscriber.process_batch(retry)
        assert not retry and not errors
        assert sub.views.peek("karma") == 10
        assert_reads_hit_fresh(eco, sub)


class TestSeededReadMix:
    def test_hit_share_one_and_zero_stale(self):
        """95 % reads beside 5 % writes, single-threaded so the
        expectation is exact: no read is stale and no read misses."""
        eco, pub, sub, post_cls = build_pipeline()
        rng = random.Random(20)
        views = sub.views
        live = []
        stale = reads = 0
        for step in range(3000):
            if rng.random() < 0.05 or not live:
                with pub.controller():
                    kind = rng.choice(("create", "update", "update", "delete"))
                    if kind == "create" or len(live) < 3:
                        live.append(post_cls.create(
                            author=f"a{step % 4}", score=rng.randrange(100)
                        ))
                    elif kind == "update":
                        post = rng.choice(live)
                        post.score = rng.randrange(100)
                        post.save()
                    else:
                        live.pop(rng.randrange(len(live))).destroy()
                sub.subscriber.drain()
                continue
            reads += 1
            if rng.random() < 0.5:
                post = rng.choice(live)
                row = views.read_row("Post", post.id)
                stale += row is None or row["score"] != post.score
            else:
                name = rng.choice(VIEW_NAMES)
                stale += views.read(name) != views.peek(name)
        assert reads > 2500 and stale == 0
        assert eco.metrics.value("cache.sub.misses") == 0
        assert eco.metrics.value("cache.sub.hits") == reads
        assert_views_match_recompute(views)


class TestConcurrentFolds:
    def test_later_fold_wins_the_cache(self):
        """Two threads fold into the same views 10,000 times. Nothing
        but the manager's state lock orders two folds of one aggregate,
        so the write-through has to happen under it: done outside, a
        fold that computed its value first can store it last, and the
        cache serves a value the view has moved past. Every fold adds
        one to the sum, so the values the cache KV stores, in the order
        it stores them, must count up."""
        eco, pub, sub, post_cls = build_pipeline()
        with pub.controller():
            ids = [post_cls.create(author=f"a{i}", score=0).id for i in (0, 1)]
        sub.subscriber.drain()
        views = sub.views
        mapper = sub.registry.get("Post").__mapper__
        folds = 5000
        failures = []
        stored = []
        kv = views.cache.kv
        plain_set = kv.set

        def recording_set(key, slot):  # runs inside the cache's script
            if key == "c:view:karma":
                stored.append(slot["value"])
            plain_set(key, slot)

        kv.set = recording_set

        def fold(row_id):
            try:
                row = mapper._do_find(row_id)
                for score in range(1, folds + 1):
                    new_row = mapper._do_update(row_id, {"score": score})
                    views.on_applied("Post", row_id, row, new_row)
                    row = new_row
            except Exception as exc:  # surfaced by the assert below
                failures.append(exc)

        threads = [threading.Thread(target=fold, args=(i,)) for i in ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(t.is_alive() for t in threads)
        assert stored == list(range(1, 2 * folds + 1))
        assert views.peek("karma") == 2 * folds
        assert_reads_hit_fresh(eco, sub)


class TestFlush:
    def test_view_read_misses_once_after_flush_then_hits(self):
        eco, pub, sub, post_cls = build_pipeline()
        with pub.controller():
            post_cls.create(author="ada", score=7)
        sub.subscriber.drain()
        views = sub.views
        views.cache.flush()
        misses = eco.metrics.value("cache.sub.misses")
        assert views.read("karma") == 7  # loaded from peek()
        assert eco.metrics.value("cache.sub.misses") == misses + 1
        assert views.read("karma") == 7
        assert eco.metrics.value("cache.sub.misses") == misses + 1

    def test_rebuild_flushes_and_reads_recover(self):
        eco, pub, sub, post_cls = build_pipeline()
        with pub.controller():
            post_cls.create(author="ada", score=7)
        sub.subscriber.drain()
        assert sub.views.rebuild() == len(VIEW_NAMES)
        assert sub.views.cache.stats()["entries"] == 0
        for name in VIEW_NAMES:
            assert sub.views.read(name) == sub.views.peek(name)
        for row_id in sub_rows(sub):
            sub.views.read_row("Post", row_id)
        assert_reads_hit_fresh(eco, sub)  # one miss each, hits since


class TestOneEngine:
    def test_the_mirror_engine_is_gone(self):
        _eco, _pub, sub, _post = build_pipeline()
        assert not hasattr(sub.views, "kv")
        with pytest.raises(TypeError):
            sub.enable_views(kv=object())

    def test_deleted_rows_leave_only_a_watermark(self):
        """Create → read → delete churn must not grow the cache: a
        deleted row's slot holds its watermark and nothing else."""
        eco, pub, sub, post_cls = build_pipeline()
        cycles = 25
        for i in range(cycles):
            with pub.controller():
                post = post_cls.create(author="ada", score=i)
            sub.subscriber.drain()
            assert sub.views.read_row("Post", post.id)["score"] == i
            with pub.controller():
                post.destroy()
            sub.subscriber.drain()
        cache = sub.views.cache
        assert cache.stats()["entries"] == len(VIEW_NAMES)  # no rows
        row_slots = [cache.kv.get(key) for key in cache.kv.keys("c:row:")]
        assert len(row_slots) == cycles
        assert all(slot == {"ver": 2} for slot in row_slots)
