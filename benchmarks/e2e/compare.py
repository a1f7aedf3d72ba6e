"""Parent-versus-change verdicts (choosing-metrics, section 8).

Per end-to-end metric and workload: each side's median and quartiles,
and one of

- ``improved``   the change wins at least nine tenths of the pairs and
                 the medians differ by more than the parent's own
                 interquartile distance;
- ``regressed``  the change's median is worse than the parent's by more
                 than the metric's bound;
- ``unresolved`` the run-to-run spread is wider than the bound, so
                 neither of the above can be told from noise (unless
                 every run of one side beats every run of the other);
- ``unchanged``  none of these.

Runs are paired in file order within a workload; both sides of a pair
must have run the same seed for the same ``--seconds``. A workload on
which the change failed more ops than the parent is regressed, and none
of its metrics reads ``improved``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from benchmarks.e2e.metrics import END_TO_END

#: ``setup_s`` worsening below this many seconds is never a regression.
SETUP_FLOOR_S = 0.1


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def verdict(name: str, better: str, bound: float, parent: Sequence[float],
            change: Sequence[float]) -> Dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0  # worse = sign * (c - p) > 0
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    p_median, c_median = statistics.median(parent), statistics.median(change)
    worse_by = sign * (c_median - p_median) / p_median
    spread = max((p_high - p_low) / p_median, (c_high - c_low) / c_median)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
    if worse_by > bound and sign * (c_median - p_median) > floor:
        result = "regressed" if spread <= bound or all_worse else "unresolved"
    elif (len(pairs) >= 2 and wins >= 0.9 * len(pairs)
          and sign * (p_median - c_median) > p_high - p_low):
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "verdict": result, "worse_by": worse_by, "spread": spread,
        "parent": (p_low, p_median, p_high), "change": (c_low, c_median, c_high),
        "runs": (len(parent), len(change)),
    }


def compare(parent: List[Dict[str, Any]],
            change: List[Dict[str, Any]]) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed. Runs are paired in
    file order within each workload; both sides of a pair must have run
    the same seed for the same ``--seconds``, because that is what fixes
    the work done."""
    for entry in parent + change:
        if entry.get("quick"):
            raise ValueError("--compare refuses records of --quick runs")
    lengths = {entry["seconds"] for entry in parent + change}
    if len(lengths) > 1:
        raise ValueError(
            f"--compare refuses records of different --seconds {sorted(lengths)}: "
            "op counts are frozen per run length")

    def by_workload(records: List[Dict[str, Any]]) -> Dict[str, List[Dict]]:
        out: Dict[str, List[Dict]] = {}
        for entry in records:
            out.setdefault(entry["workload"], []).append(entry)
        return out

    parents, changes = by_workload(parent), by_workload(change)
    lines: List[str] = []
    regressed = False
    for workload in parents:
        if workload not in changes:
            continue
        p_runs, c_runs = parents[workload], changes[workload]
        for p_run, c_run in zip(p_runs, c_runs):
            if p_run["seed"] != c_run["seed"]:
                raise ValueError(
                    f"{workload}: a pair ran seeds {p_run['seed']} and "
                    f"{c_run['seed']}; both sides of a pair run the same seed")
        p_failed = sum(run["ops_failed"] for run in p_runs)
        c_failed = sum(run["ops_failed"] for run in c_runs)
        # A gain does not count when more operations fail than at the
        # parent, and a failed op misses every latency bound.
        more_failed = c_failed > p_failed
        regressed |= more_failed
        lines.append(f"== {workload}  (parent runs: {len(p_runs)}, "
                     f"change runs: {len(c_runs)}; ops_failed: parent "
                     f"{p_failed}, change {c_failed}"
                     f"{' -- regressed' if more_failed else ''})")
        lines.append(
            f"{'metric':<18}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}"
            f"{'worse by':>10}{'spread':>8}  verdict")
        for name, _unit, better, bound in END_TO_END:
            p = [run["metrics"][name] for run in p_runs if name in run["metrics"]]
            c = [run["metrics"][name] for run in c_runs if name in run["metrics"]]
            if not p or not c:
                continue
            v = verdict(name, better, bound, p, c)
            if more_failed and v["verdict"] == "improved":
                v["verdict"] = "unchanged (more ops failed)"
            regressed |= v["verdict"] == "regressed"
            lines.append(
                f"{name:<18}"
                + "{:>34}".format("{:.4g} / {:.4g} / {:.4g}".format(*v["parent"]))
                + "{:>34}".format("{:.4g} / {:.4g} / {:.4g}".format(*v["change"]))
                + f"{v['worse_by']:>+10.1%}{v['spread']:>8.1%}  {v['verdict']}"
            )
    return lines, regressed
