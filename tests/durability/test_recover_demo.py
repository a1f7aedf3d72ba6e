"""The ``durability.kill-shard`` scenario: two WAL-logging shard
processes, one SIGKILLed mid-traffic, restored from snapshot + WAL
replay over the same data dir, every cross-process digest audit clean."""

from __future__ import annotations

import os
import tempfile

from repro.durability.demo import recover_kill_scenario, run_recover_demo


def test_kill9_shard_restores_and_audits_clean(tmp_path):
    outcome = run_recover_demo(str(tmp_path), operations=12)
    assert outcome["violations"] == []
    restart = outcome["restart"]["shards"]
    restored = restart[outcome["crash"]["victim"]]["stats"]["restored"]
    assert restored["replayed"] > 0, "restart replayed no WAL records"
    assert restored["requeued"] > 0, "no backlog survived the kill"
    # The per-shard data dirs hold the documented layout.
    for shard_name in restart:
        assert os.path.isdir(os.path.join(str(tmp_path), shard_name, "wal"))


def test_the_scenario_leaves_no_data_dir_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert recover_kill_scenario() == []
    assert os.listdir(tmp_path) == []
