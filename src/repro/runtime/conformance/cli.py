"""``python -m repro conformance`` — the delivery-semantics smoke sweep.

Two shapes:

- ``conformance --seeds N [--mode M]`` — run the directed scenarios,
  then sweep N seeds per delivery mode (each seed once plain, once
  with crash-recovery, once with flow control — coalescing + batched
  apply — once with durability — WAL every transition, then prove a
  fresh restore reproduces the live state — a slice with broker
  faults, and a slice with flow control *and* a crashing worker). This
  is the CI smoke step. Every failing schedule prints
  the exact CLI line that replays it.
- ``conformance --seed K --mode M [--crash --flow --durability ...]`` —
  replay one schedule and dump its violations and trace tail. This is
  the line the sweep prints when something fails.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.delivery import CAUSAL, GLOBAL, WEAK
from repro.runtime.conformance.harness import (
    ScheduleConfig,
    ScheduleResult,
    default_matrix,
    run_schedule,
)
from repro.runtime.conformance.scenarios import run_directed_scenarios


def _int_flag(args: List[str], name: str, default: Optional[int]) -> Optional[int]:
    if name in args:
        return int(args[args.index(name) + 1])
    return default


def _str_flag(args: List[str], name: str, default: Optional[str]) -> Optional[str]:
    if name in args:
        return args[args.index(name) + 1]
    return default


def _report_failure(result: ScheduleResult) -> None:
    print(f"FAIL {result.config.describe()} ({result.steps} steps)")
    for violation in result.violations:
        print(f"  {violation}")
    print(f"  replay: {result.replay_command()}")


def conformance_command(args: List[str]) -> int:
    mode = _str_flag(args, "--mode", None)
    seed = _int_flag(args, "--seed", None)
    base = ScheduleConfig(
        mode=mode or CAUSAL,
        seed=seed or 0,
        workers=_int_flag(args, "--workers", 3),
        messages=_int_flag(args, "--messages", 10),
        crash_recovery="--crash" in args,
        faults=_int_flag(args, "--faults", 0),
        generation_bump="--generation-bump" in args,
        queue_limit=_int_flag(args, "--queue-limit", None),
        hash_space=_int_flag(args, "--hash-space", None),
        flow="--flow" in args,
        durability="--durability" in args,
        views="--views" in args,
        cdc="--cdc" in args,
    )

    if seed is not None:
        # Single-schedule replay: full detail.
        result = run_schedule(base)
        print(f"schedule {base.describe()}: {result.steps} steps")
        for key, value in sorted(result.stats.items()):
            print(f"  {key}: {value}")
        if result.ok:
            print("OK: all delivery-semantics invariants held")
            return 0
        for violation in result.violations:
            print(f"VIOLATION {violation}")
        print("trace tail:")
        for line in result.trace[-30:]:
            print(f"  {line}")
        return 1

    failures = 0

    print(
        "directed scenarios (pop deadline, fleet deadline, drain leak, "
        "unsafe coalesce, durability crash points):"
    )
    for name, violations in run_directed_scenarios().items():
        if violations:
            failures += 1
            print(f"  FAIL {name}")
            for violation in violations:
                print(f"    {violation}")
        else:
            print(f"  ok   {name}")

    seeds = _int_flag(args, "--seeds", 50)
    modes = [mode] if mode else [CAUSAL, GLOBAL, WEAK]
    configs = default_matrix(seeds, modes=modes, base=base)
    print(
        f"sweeping {len(configs)} schedules "
        f"({seeds} seeds x {len(modes)} modes, "
        "plain + crash-recovery + flow + durability + views + cdc, "
        "flow x crash on a slice):"
    )
    checked = 0
    for config in configs:
        result = run_schedule(config)
        checked += 1
        if not result.ok:
            failures += 1
            _report_failure(result)
    print(f"{checked} schedules checked, {failures} failure(s)")
    return 1 if failures else 0
