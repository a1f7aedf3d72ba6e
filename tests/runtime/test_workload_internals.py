"""Workload driver internals and ShardedKV helpers."""

import pytest

from repro.core import Ecosystem
from repro.databases.kv import RedisLike
from repro.versionstore import ShardedKV
from repro.workloads import CONTROLLER_MIX, CrowdtapApp
from repro.workloads.social import SocialWorkload, build_social_publisher


class TestControllerMix:
    def test_shares_sum_to_one(self):
        assert sum(share for share, _m, _d in CONTROLLER_MIX.values()) == \
            pytest.approx(1.0)

    def test_every_controller_callable(self):
        eco = Ecosystem()
        app = CrowdtapApp(eco, seed=2)
        for name in CONTROLLER_MIX:
            app.run_request(name)  # none may raise

    def test_read_only_controllers_publish_nothing(self):
        eco = Ecosystem()
        app = CrowdtapApp(eco, seed=2)
        before = app.service.publisher.messages_published
        for _ in range(50):
            app.run_request("me/show")
            app.run_request("awards/index")
        assert app.service.publisher.messages_published == before

    def test_brands_show_rarely_writes(self):
        eco = Ecosystem()
        app = CrowdtapApp(eco, seed=2)
        before = app.service.publisher.messages_published
        for _ in range(400):
            app.run_request("brands/show")
        per_call = (app.service.publisher.messages_published - before) / 400
        assert 0.0 < per_call < 0.1  # the paper's 0.03 regime


class TestSocialWorkloadInternals:
    def test_recent_post_window_bounded(self):
        eco = Ecosystem()
        service, User, Post, Comment = build_social_publisher(eco)
        workload = SocialWorkload(service, User, Post, Comment, users=5,
                                  track_recent=8)
        workload.run(200, post_fraction=0.9)
        assert len(workload.recent_posts) <= 8

    def test_all_posts_when_fraction_one(self):
        eco = Ecosystem()
        service, User, Post, Comment = build_social_publisher(eco)
        workload = SocialWorkload(service, User, Post, Comment, users=3)
        workload.run(30, post_fraction=1.0)
        assert workload.posts_created == 30
        assert workload.comments_created == 0


class TestShardedKV:
    def test_requires_shards(self):
        with pytest.raises(ValueError):
            ShardedKV([])

    def test_entries_span_all_shards(self):
        kv = ShardedKV([RedisLike(f"s{i}") for i in range(3)])
        for i in range(30):
            kv.hset(f"v:key{i}", "ops", i)
        entries = kv.entries("v:")
        assert len(entries) == 30
        assert entries["v:key7"] == {"ops": 7}
        used = [s for s in kv.shards if s.dbsize() > 0]
        assert len(used) > 1

    def test_flushall_clears_every_shard(self):
        kv = ShardedKV([RedisLike(f"s{i}") for i in range(3)])
        for i in range(10):
            kv.hset(f"k{i}", "f", 1)
        kv.flushall()
        assert kv.total_keys() == 0

    def test_any_down_detection(self):
        kv = ShardedKV([RedisLike("a"), RedisLike("b")])
        assert [shard.is_down for shard in kv.shards] == [False, False]
        kv.shards[1].crash()
        assert [shard.is_down for shard in kv.shards] == [False, True]
        kv.shards[1].restart()
        assert [shard.is_down for shard in kv.shards] == [False, False]
