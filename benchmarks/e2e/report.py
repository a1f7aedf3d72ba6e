"""Printing result rows, and the append-only trajectory of every run."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, UNITS


def host_fingerprint() -> Dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_state(root: str) -> Dict[str, Any]:
    """Commit and dirty flag, or ``unknown`` outside a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(
            ("git", "-C", root) + args, check=True, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": None}


def record(row: Dict[str, Any], root: str, args: List[str],
           quick: bool) -> Dict[str, Any]:
    """One trajectory line for one workload run."""
    metrics = dict(row["end_to_end"])
    metrics.update(row["per_layer"] or {})
    return {
        "at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **git_state(root),
        "host": host_fingerprint(),
        "args": args,
        "quick": quick,
        "workload": row["workload"],
        "seed": row["seed"],
        "seconds": row["seconds"],
        "ops_attempted": row["ops_attempted"],
        "ops_failed": row["ops_failed"],
        "problems": row["problems"],
        "metrics": metrics,
    }


def append(path: str, entry: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _table(title: str, names: List[str], rows: List[Dict[str, Any]],
           key: str, quick: bool) -> List[str]:
    width = max(len(name) for name in names) + 8
    flag = "  [quick: not comparable]" if quick else ""
    lines = ["", f"== {title}{flag}",
             " " * width + "".join(f"{r['workload']:>16}" for r in rows)]
    for name in names:
        label = f"{name} [{UNITS[name]}]"
        cells = []
        for row in rows:
            value = (row[key] or {}).get(name)
            cells.append(f"{'-':>16}" if value is None else f"{value:>16.4g}")
        lines.append(f"{label:<{width}}" + "".join(cells))
    return lines


def print_rows(rows: List[Dict[str, Any]], quick: bool) -> None:
    """Every metric by name and unit, one column per workload."""
    out = _table("end-to-end", [m[0] for m in END_TO_END], rows,
                 "end_to_end", quick)
    width = max(len(m[0]) for m in END_TO_END) + 8
    for label, key in (("ops_attempted", "ops_attempted"),
                       ("ops_failed", "ops_failed")):
        out.append(f"{label + ' [count]':<{width}}"
                   + "".join(f"{row[key]:>16}" for row in rows))
    if any(row["per_layer"] for row in rows):
        out += _table("per-layer (traced pass)", [m[0] for m in PER_LAYER],
                      rows, "per_layer", quick)
    for row in rows:
        for problem in row["problems"]:
            out.append(f"!! {row['workload']}: {problem}")
    print("\n".join(out))
    sys.stdout.flush()
