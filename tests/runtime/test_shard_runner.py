"""ShardRunner: the 2-shard social demo end to end, in-process.

This is the tentpole's proof obligation: services placed into real OS
worker processes, write messages for remote queues crossing only the
broker's forward seam, audits and targeted repair crossing only the
control plane — and the mesh quiescing cleanly."""

from __future__ import annotations

import pytest

from repro.runtime.transport.demo import demo_healthy, run_demo
from repro.runtime.transport.shard import ShardRunner


@pytest.fixture(scope="module")
def outcome():
    return run_demo(operations=25, timeout=90.0)


class TestShardDemo:
    def test_demo_is_healthy(self, outcome):
        assert demo_healthy(outcome), outcome

    def test_every_audit_in_sync_including_cross_shard(self, outcome):
        audits = {
            name: audit
            for shard in outcome["shards"].values()
            for name, audit in shard["verify"]["audits"].items()
        }
        assert sorted(audits) == ["feed0", "feed1", "mirror0", "mirror1"]
        for name, audit in audits.items():
            assert audit["in_sync"], (name, audit)
            assert audit["rows"]["User"] == 5

    def test_cross_shard_traffic_actually_flowed(self, outcome):
        stats = [shard["stats"] for shard in outcome["shards"].values()]
        forwarded = sum(s["forwarded"] for s in stats)
        delivered = sum(s["delivered"] for s in stats)
        assert forwarded > 0, "mirrors never crossed the process boundary"
        assert forwarded == delivered, "forwarded frames went missing"
        assert all(s["dropped"] == 0 for s in stats)

    def test_mirror_replicas_match_their_remote_publisher(self, outcome):
        shards = outcome["shards"]
        # mirror1 (on shard0) replicates social1 (on shard1) and vice
        # versa: row counts must match the *other* shard's workload.
        for shard_name, other in (("shard0", "shard1"), ("shard1", "shard0")):
            mirror = "mirror1" if shard_name == "shard0" else "mirror0"
            rows = shards[shard_name]["verify"]["audits"][mirror]["rows"]
            scenario = shards[other]["scenario"]
            assert rows["Post"] == scenario["posts"]
            assert rows["Comment"] == scenario["comments"]

    def test_cross_shard_repair_heals_over_the_pipe(self, outcome):
        for shard in outcome["shards"].values():
            repair = shard["verify"]["repair"]
            assert repair["ran"]
            assert repair["divergent"] == 1
            assert repair["objects_repaired"] == 1
            assert repair["verified_in_sync"]


class TestShardRunnerContract:
    def test_empty_placement_rejected(self):
        with pytest.raises(ValueError):
            ShardRunner(lambda: None, {})

    def test_single_shard_placement_runs(self):
        from repro.runtime.transport.demo import (
            DEMO_PLACEMENT,
            build_demo_ecosystem,
            demo_scenario,
        )

        everything = [svc for owned in DEMO_PLACEMENT.values()
                      for svc in owned]
        runner = ShardRunner(
            build_demo_ecosystem,
            {"shard0": everything},
            scenario=demo_scenario,
            timeout=90.0,
        )
        result = runner.run()
        stats = result["shards"]["shard0"]["stats"]
        assert stats["forwarded"] == 0 and stats["delivered"] == 0
        assert stats["routed"] > 0 and stats["dropped"] == 0


def build_outboxed_pair():
    from repro.apps import build_replicated_pair

    eco, pub, _sub, _doc = build_replicated_pair()
    pub.enable_outbox()
    return eco


def raw_writes_only(ecosystem, shard_name):
    pub = ecosystem.local_service("pub")
    raw = pub.raw_session()
    for i in range(3):
        raw.insert(pub.registry["Doc"], {"name": f"raw-{i}"})
    return {"writes": 3}


def outbox_and_replica(ecosystem, shard_name):
    return {
        "backlog": ecosystem.local_service("pub").cdc_poller.backlog(),
        "rows": ecosystem.local_service("sub").registry["Doc"].count(),
    }


class TestShardQuiescesItsOutbox:
    """Regression: a shard's post-scenario drain ran the subscribers
    but never tailed an outbox, so ``run_scenarios`` reported done over
    raw writes no poller had published."""

    def test_raw_writes_are_replicated_when_the_scenario_returns(self):
        runner = ShardRunner(
            build_outboxed_pair, {"solo": ["pub", "sub"]},
            scenario=raw_writes_only, verify=outbox_and_replica,
            timeout=60.0,
        )
        try:
            runner.start()
            runner.run_scenarios()
            seen = runner.run_verify()["solo"]
            runner.finish()
        finally:
            runner.close()
        assert seen == {"backlog": 0, "rows": 3}
