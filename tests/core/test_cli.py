"""CLI (`python -m repro`) smoke tests."""

from repro.__main__ import main


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
        assert "repair.pub.republished" in out
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
        payload = json.loads(capsys.readouterr().out)
        assert payload["health"]["links"][0]["status"] == "ok"
        # 20 ORM writes plus the round's writes//5 = 4 raw CDC writes.
        assert payload["metrics"]["broker.routed"] == 24

    def test_help_mentions_repair_and_watch(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "repair --demo" in out
        assert "watch" in out
        assert "flow --demo" in out
