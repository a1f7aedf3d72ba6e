"""CLI (`python -m repro`) smoke tests."""

import os
import tempfile

import pytest

from repro.__main__ import main

#: Each demo command at a small size, and the start of its closing line
#: when clean.
DEMOS = [
    (["repair", "--objects", "8", "--lose", "2"], "OK: replicas digest-equal"),
    (["flow", "--writes", "120", "--queue-limit", "32"], "OK: weak publishes shed"),
    (["views", "--writes", "9"], "OK: aggregates match recomputation"),
    (["saga", "--sagas", "3"], "OK: books balanced"),
    (["shard", "--operations", "10"], "OK: all audits digest-equal"),
    (["recover", "--operations", "6"], "OK: kill -9'd shard restored"),
]


class TestCLI:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == "1.0.0"

    def test_help(self, capsys):
        assert main([]) == 0
        assert "topology" in capsys.readouterr().out

    def test_topology_text(self, capsys):
        assert main(["topology", "crowdtap"]) == 0
        out = capsys.readouterr().out
        assert "main [mongodb]" in out

    def test_topology_dot(self, capsys):
        assert main(["topology", "social", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_metrics_snapshot(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "broker.routed" in out
        assert "publisher.pub.overhead" in out
        assert "subscriber.sub.processed" in out

    def test_metrics_with_trace(self, capsys):
        assert main(["metrics", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "publisher.intercept" in out
        assert "queue.dwell" in out
        assert "subscriber.apply" in out
        assert "wal.append" in out  # --trace runs with durability on
        assert "total" in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_demo(self, capsys):
        assert main(["demo", "nope"]) == 1

    def test_repair_demo(self, capsys):
        assert main(["repair", "--demo"]) == 0
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "repair.sub.applied_objects" in out
        assert "OK: replicas digest-equal, queue intact" in out

    def test_repair_demo_with_flags(self, capsys):
        assert main(["repair", "--demo", "--objects", "10", "--lose", "2"]) == 0
        out = capsys.readouterr().out
        assert "replicated 10 objects; injecting loss of 2 messages" in out

    def test_repair_without_demo_flag(self, capsys):
        assert main(["repair"]) == 1

    def test_flow_demo(self, capsys):
        assert main(["flow", "--demo", "--writes", "120", "--queue-limit", "32"]) == 0
        out = capsys.readouterr().out
        assert "decommissioned=False" in out
        assert "flow.sub.shed" in out
        assert "flow.sub.coalesced" in out
        assert out.rstrip().endswith("replicas converged")

    def test_flow_without_demo_flag(self, capsys):
        assert main(["flow"]) == 1

    @pytest.mark.parametrize("argv,closing", DEMOS, ids=[d[0][0] for d in DEMOS])
    def test_demo_passes_and_leaves_no_temp_dir(self, argv, closing, capsys, monkeypatch,
                                                 tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main([argv[0], "--demo", *argv[1:]]) == 0
        assert capsys.readouterr().out.rstrip().splitlines()[-1].startswith(closing)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args", [["--objects"], ["--objects", "x"]])
    def test_a_bad_flag_is_a_usage_error(self, args):
        with pytest.raises(SystemExit) as exit_:
            main(["repair", "--demo", *args])
        assert exit_.value.code == "usage: --objects needs a value of type int"

    def test_watch_once(self, capsys):
        assert main(["watch", "--once", "--writes", "10"]) == 0
        out = capsys.readouterr().out
        assert "replication health" in out
        assert "pub -> sub" in out
        assert "[OK]" in out
        assert "flight recorder" in out

    def test_watch_once_prometheus(self, capsys):
        assert main(["watch", "--once", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_broker_routed counter" in out
        assert "repro_monitor_pub_to_sub_lag" in out

    def test_watch_once_json(self, capsys):
        import json

        assert main(["watch", "--once", "--json"]) == 0
        shard = json.loads(capsys.readouterr().out)["shards"]["solo"]
        assert shard["health"]["links"][0]["status"] == "ok"
        # 20 ORM writes plus the round's writes//5 = 4 raw CDC writes.
        assert shard["metrics"]["broker.routed"] == 24

    def test_watch_json_has_one_shape_in_process_and_cluster(self, capsys):
        import json

        reports = []
        for extra in ([], ["--cluster"]):
            assert main(["watch", "--once", "--json", *extra]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        solo, cluster = reports
        assert set(solo) == set(cluster) == {"round", "shards", "missing"}
        assert list(solo["shards"]) == ["solo"]
        assert sorted(cluster["shards"]) == ["shard0", "shard1"]
        keys = set(solo["shards"]["solo"])
        assert "exemplars" in keys and "health" in keys
        for name, shard in cluster["shards"].items():
            assert set(shard) == keys, name

    def test_watch_console_rows_match_in_process_and_cluster(self, capsys):
        import re

        def rows(out):
            """{shard: [row name, ...]} of one console round."""
            found = {}
            for line in out.splitlines()[1:]:
                match = re.match(r"  \[(\w+)\] (.+?)[:=]", line)
                assert match, line
                found.setdefault(match.group(1), []).append(match.group(2))
            return found

        assert main(["watch", "--once"]) == 0
        solo = rows(capsys.readouterr().out)
        assert main(["watch", "--cluster", "--once"]) == 0
        cluster = rows(capsys.readouterr().out)
        expected = [
            "idle", "throughput", "flow", "durability", "views", "cache",
            "cdc", "flight recorder",
        ]
        assert list(solo) == ["solo"]
        assert sorted(cluster) == ["shard0", "shard1"]
        for shard in (*solo.values(), *cluster.values()):
            assert [row for row in shard if row in expected] == expected

    def test_help_mentions_repair_and_watch(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "repair --demo" in out
        assert "watch" in out
        assert "flow --demo" in out
