"""``python -m repro conformance`` — the delivery-semantics smoke sweep.

Three shapes:

- ``conformance --seeds N [--mode M]`` — run every directed scenario
  (``scenarios.SCENARIOS``, the six demos included, unnarrated), then
  sweep N seeds per delivery mode (each seed once plain, once
  with crash-recovery, once with flow control — coalescing + batched
  pop — once with durability — WAL every transition, then prove a
  fresh restore reproduces the live state — a slice with broker
  faults, and a slice with flow control *and* a crashing worker). This
  is the CI smoke step. Every failing schedule prints
  the exact CLI line that replays it.
- ``conformance --seed K --mode M [--crash --flow --durability ...]`` —
  replay one schedule and dump its violations and trace tail. This is
  the line the sweep prints when something fails.
- ``conformance --find MARKER [--seeds N] [--mode M --flow ...]`` —
  search the first N seeds of the schedule shape the other flags
  describe for one that runs clean and whose trace contains the event
  ``MARKER`` (:func:`~repro.runtime.conformance.scenarios.find_schedule`),
  and print its replay line; exits 1 saying what no seed met.
"""

from __future__ import annotations

from typing import List

from repro.core.delivery import CAUSAL, GLOBAL, WEAK
from repro.core.tools import flags
from repro.runtime.conformance.harness import (
    ScheduleConfig,
    ScheduleResult,
    default_matrix,
    run_schedule,
)
from repro.runtime.conformance.scenarios import SCENARIOS, find_schedule


def _report_failure(result: ScheduleResult) -> None:
    print(f"FAIL {result.config.describe()} ({result.steps} steps)")
    for violation in result.violations:
        print(f"  {violation}")
    print(f"  replay: {result.config.replay_command()}")


def conformance_command(args: List[str]) -> int:
    opts = flags(
        args, mode=None, seed=None, seeds=50, workers=3, messages=10,
        faults=0, queue_limit=None, hash_space=None, find=None,
    )
    for key in ("seed", "queue_limit", "hash_space"):
        if opts[key] is not None:
            opts[key] = int(opts[key])
    mode, seed, seeds = opts.pop("mode"), opts.pop("seed"), opts.pop("seeds")
    marker = opts.pop("find")
    base = ScheduleConfig(
        mode=mode or CAUSAL,
        seed=seed or 0,
        crash_recovery="--crash" in args,
        generation_bump="--generation-bump" in args,
        flow="--flow" in args,
        durability="--durability" in args,
        views="--views" in args,
        cdc="--cdc" in args,
        **opts,
    )

    if marker is not None:
        try:
            found = find_schedule(base, marker, seeds=range(seeds))
        except LookupError as exc:
            print(exc)
            return 1
        print(f"{marker}: {found.replay_command()}")
        return 0

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

    print(f"{len(SCENARIOS)} directed scenarios (the six demos included):")
    for name, scenario in SCENARIOS.items():
        violations = scenario()
        if violations:
            failures += 1
            print(f"  FAIL {name}")
            for violation in violations:
                print(f"    {violation}")
        else:
            print(f"  ok   {name}")

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
