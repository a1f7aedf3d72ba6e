"""Unit tests for the Redis-like KV store."""

import threading

import pytest

from repro.databases.kv import RedisLike
from repro.errors import FaultInjected


@pytest.fixture
def kv():
    return RedisLike("redis")


class TestBasicOps:
    def test_get_set_delete(self, kv):
        kv.set("k", "v")
        assert kv.get("k") == "v"
        assert kv.delete("k")
        assert kv.get("k") is None
        assert not kv.delete("k")

    def test_keys_prefix(self, kv):
        kv.set("a:1", 1)
        kv.set("a:2", 1)
        kv.set("b:1", 1)
        assert kv.keys("a:") == ["a:1", "a:2"]

    def test_flushall_and_dbsize(self, kv):
        kv.set("k", 1)
        assert kv.dbsize() == 1
        kv.flushall()
        assert kv.dbsize() == 0


class TestHashes:
    def test_hset_hget(self, kv):
        kv.hset("h", "f", 1)
        assert kv.hget("h", "f") == 1
        assert kv.hget("h", "nope") is None
        assert kv.hget("nope", "f") is None

    def test_hgetall(self, kv):
        kv.hset("h", "a", 1)
        kv.hset("h", "b", 2)
        assert kv.hgetall("h") == {"a": 1, "b": 2}


class TestScripts:
    def test_script_atomicity_under_threads(self, kv):
        def bump(store):
            value = store.get("counter") or 0
            store.set("counter", value + 1)
            return value + 1

        def worker():
            for _ in range(200):
                kv.eval(bump)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert kv.get("counter") == 800
        assert kv.script_calls == 800

    def test_script_returns_value(self, kv):
        kv.set("x", 41)
        assert kv.eval(lambda s: s.get("x") + 1) == 42


class TestFailureModel:
    def test_crash_wipes_and_refuses(self, kv):
        kv.set("k", 1)
        kv.crash()
        assert kv.is_down
        with pytest.raises(FaultInjected):
            kv.get("k")
        with pytest.raises(FaultInjected):
            kv.set("k", 2)

    def test_restart_comes_back_empty(self, kv):
        kv.set("k", 1)
        kv.crash()
        kv.restart()
        assert kv.get("k") is None
        kv.set("k", 2)
        assert kv.get("k") == 2

    def test_faults_down_refuses_every_op(self, kv):
        kv.set("k", 1)
        steps = []
        kv.faults.down = True
        assert kv.is_down
        with pytest.raises(FaultInjected):
            kv.eval(lambda s: steps.append(s.get("k")))
        assert steps == [] and kv.script_calls == 0
        for op in (lambda: kv.keys(), kv.dbsize, kv.flushall):
            with pytest.raises(FaultInjected):
                op()
        kv.restart()
        assert kv.get("k") == 1  # flushall refused: nothing wiped
