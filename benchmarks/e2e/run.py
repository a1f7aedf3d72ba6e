"""End-to-end replication benchmark: one write at a publisher becoming a
visible row at its subscribers.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--quick] [--out FILE]
    python3 benchmarks/e2e/run.py --compare PARENT.jsonl CHANGE.jsonl
    python3 benchmarks/e2e/run.py --pairs N --parent-src DIR [--workload W]

(``PYTHONPATH=src:. python -m benchmarks.e2e`` is the same program.)
Without ``--workload`` all six run, each with its traced pass. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")


def _bootstrap(argv: List[str]) -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable when this file
    is run as a script. ``--src DIR`` picks the program tree to measure
    (``--pairs`` uses it to run one benchmark against two programs)."""
    early = argparse.ArgumentParser(add_help=False)
    early.add_argument("--src", default=os.path.join(ROOT, "src"))
    src = os.path.abspath(early.parse_known_args(argv)[0].src)
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"benchmarks/e2e: no program to measure: {src}/repro is missing")
    # The script directory holds a ``trace.py`` that must not shadow the
    # standard library's for anything else in the process.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [src, ROOT]


def _parser(default_seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="what the two timed phases are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run the traced pass (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="each phase / 10; numbers flagged, not comparable")
    parser.add_argument("--out", help="also append the run's records here")
    parser.add_argument("--src", help="program source tree (default: ./src)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--pairs", type=int,
                        help="run N alternating parent/change pairs, then compare")
    parser.add_argument("--parent-src", help="the parent commit's src/ for --pairs")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    args = _parser(manifest["run_seconds"]).parse_args(argv)

    from benchmarks.e2e import compare, report
    from benchmarks.e2e.workloads import WORKLOADS

    if args.compare:
        try:
            lines, regressed = compare.compare(
                *(report.load(path) for path in args.compare))
        except ValueError as exc:
            sys.exit(f"benchmarks/e2e: {exc}")
        print("\n".join(lines))
        return 1 if regressed else 0
    if args.workload is not None and args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.pairs:
        return _pairs(args)

    from benchmarks.e2e.bench import run_workload

    names = [args.workload] if args.workload else list(WORKLOADS)
    rows: List[Dict[str, Any]] = []
    for name in names:
        print(f"-- {name}: seed {args.seed}, {args.seconds:g} s"
              f"{', traced' if args.trace else ''}"
              f"{', quick' if args.quick else ''}", flush=True)
        row = run_workload(WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace), RESULTS, args.quick)
        rows.append(row)
        entry = report.record(row, ROOT, argv, args.quick)
        report.append(os.path.join(RESULTS, "trajectory.jsonl"), entry)
        if args.out:
            report.append(args.out, entry)
    report.print_rows(rows, args.quick)

    failed = sum(row["ops_failed"] for row in rows)
    correct = failed == 0 and not any(row["problems"] for row in rows)
    metrics: Dict[str, Any] = {}
    if len(rows) == 1:
        # The manifest's names, all of them: a per-layer row that does
        # not apply to this workload reads 0 here (and "-" in the table).
        measured = dict(rows[0]["end_to_end"], **(rows[0]["per_layer"] or {}))
        listed = manifest["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in listed}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(row["ops_attempted"] for row in rows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _pairs(args: argparse.Namespace) -> int:
    """Alternating parent/change pairs: this benchmark, unchanged, run
    against the parent's ``src`` and this checkout's, a new seed per pair."""
    from benchmarks.e2e import compare, report

    if not args.parent_src:
        sys.exit("--pairs needs --parent-src DIR (the parent commit's src/)")
    sides = {"parent": os.path.abspath(args.parent_src),
             "change": os.path.join(ROOT, "src")}
    outs = {side: os.path.join(RESULTS, f"pairs-{side}-{os.getpid()}.jsonl")
            for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            command = [sys.executable, os.path.abspath(__file__),
                       "--src", sides[side], "--out", outs[side],
                       "--seed", str(args.seed + pair),
                       "--seconds", str(args.seconds), "--trace", "0"]
            if args.workload:
                command += ["--workload", args.workload]
            print(f"-- pair {pair + 1}/{args.pairs}: {side}", flush=True)
            done = subprocess.run(command, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                sys.exit(f"{side} run failed (exit {done.returncode})")
    lines, regressed = compare.compare(report.load(outs["parent"]),
                                       report.load(outs["change"]))
    print("\n".join(lines))
    print(f"records: {outs['parent']} {outs['change']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    _bootstrap(sys.argv[1:])
    sys.exit(main())
