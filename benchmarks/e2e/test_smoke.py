"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e -q``.

Runs the whole matrix once in ``--quick`` mode (not collected by tier-1,
whose ``testpaths`` is ``tests``) and checks the contract later issues
lean on: every name in ``BENCHMARK.json`` is printed, the oracle passes,
and a workload that bypasses a layer reads exactly 0 on that layer.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: Layer prefix -> the one workload that does *not* bypass it.
BYPASSED = {
    "flow.": "hot_flow",
    "wal.": "wal_off",
    "durability.": "wal_off",
    "transport.": "shard_forward",
    "cdc.": "cdc_raw",
}


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    sys.path[:0] = [ROOT]
    from benchmarks.e2e import speed

    out = tmp_path_factory.mktemp("e2e") / "records.jsonl"
    readings = speed.samples(50)
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    # Seconds at reference speed, like every time the benchmark reports:
    # this host runs the same matrix in 17 s or in 26 s, by the minute.
    elapsed = time.monotonic() - started
    elapsed /= max(1.0, speed.factor(readings + speed.samples(50)))
    with open(out, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    return done, elapsed, records


def test_manifest_matches_the_code(manifest):
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
    from benchmarks.e2e.workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    # The driver gates the end-to-end metrics this host can hold steady,
    # never more tightly than the benchmark's own table; the others are
    # still handed to it, as rows without a bound.
    own = {name: (unit, better, bound)
           for name, unit, better, bound in END_TO_END}
    gated = [m["name"] for m in manifest["end_to_end"]]
    for m in manifest["end_to_end"]:
        unit, better, bound = own[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
        assert bound <= m["bound"] <= 0.25
    ungated = [(name, unit, better) for name, unit, better, _ in END_TO_END
               if name not in gated]
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == ungated + PER_LAYER
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in gated


def test_quick_matrix_prints_every_name_and_passes_the_oracle(manifest, quick_run):
    done, elapsed, records = quick_run
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed <= 25.0, f"--quick matrix took {elapsed:.1f} s"
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in manifest[key]:
            assert entry["name"] in done.stdout, entry["name"]
    assert "quick" in done.stdout
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert [r["workload"] for r in records] == [
        w["name"] for w in manifest["workloads"]]
    expected = {m["name"] for m in manifest["end_to_end"]} | {
        m["name"] for m in manifest["per_layer"]}
    for entry in records:
        assert entry["quick"] is True
        assert entry["ops_failed"] == 0 and not entry["problems"]
        # A metric that does not apply is absent from the row, not zero.
        applies = expected - (set() if entry["workload"] == "read_mix"
                              else {"read_p50_us"})
        assert set(entry["metrics"]) == applies
        for name in (m["name"] for m in manifest["end_to_end"]):
            assert entry["metrics"][name] > 0, (entry["workload"], name)


def test_bypassed_layers_read_exactly_zero(quick_run):
    _done, _elapsed, records = quick_run
    for entry in records:
        for prefix, user in BYPASSED.items():
            rows = {name: value for name, value in entry["metrics"].items()
                    if name.startswith(prefix)}
            assert rows
            if entry["workload"] == user:
                assert any(value > 0 for value in rows.values()), (user, prefix)
            else:
                assert all(value == 0 for value in rows.values()), (
                    entry["workload"], rows)


def test_compare_refuses_quick_records(quick_run, tmp_path):
    _done, _elapsed, records = quick_run
    path = tmp_path / "quick.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--compare",
         str(path), str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "quick" in done.stderr


def _record(seed, seconds=10, failed=0, lag=1.0):
    return {"quick": False, "workload": "inproc_fanout3", "seed": seed,
            "seconds": seconds, "ops_failed": failed,
            "metrics": {"lag_p50_ms": lag}}


def test_compare_wants_like_for_like_pairs_and_no_more_failed_ops():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.e2e.compare import compare

    parent = [_record(seed) for seed in range(1, 11)]
    with pytest.raises(ValueError, match="--seconds"):
        compare(parent, [_record(seed, seconds=5) for seed in range(1, 11)])
    with pytest.raises(ValueError, match="same seed"):
        compare(parent, [_record(seed + 1) for seed in range(1, 11)])
    # Faster on every pair, but one more op failed: not a gain.
    lines, regressed = compare(
        parent, [_record(seed, failed=seed == 3, lag=0.5)
                 for seed in range(1, 11)])
    assert regressed
    assert not any(line.rstrip().endswith("improved") for line in lines)
    lines, regressed = compare(
        parent, [_record(seed, lag=0.5) for seed in range(1, 11)])
    assert not regressed
    assert any(line.rstrip().endswith("improved") for line in lines)
