"""A speedometer for a host whose speed is not constant.

On a small shared VM the same code runs up to twice as slow for seconds
at a time, whenever a neighbour is busy: 64 steady-state ops of
``inproc_fanout3`` took 23 ms to 59 ms (medians of successive 1.5 s
stretches, one process, 100 s). Wall and CPU time stretch together, so
it is the core that slows, not the scheduler that takes it away. Such
swings last as long as a run does; more ops or more blocks do not
average them out, and they are wider than any bound a benchmark may
gate on (0.25).

So a fixed piece of pure-Python work (``sample()``, ~0.3 ms) is run
between the timed stretches of every phase, about once per 30 ms. A
block's *speed factor* is the median of its samples over ``REF_S``: 1.0
on a quiet host, 1.3 when it runs 30 % slow. Dividing a block's times by
its factor gives seconds *at reference speed*. Measured on this host
over successive 1.2 s stretches of identical work, the raw time spread
12-19 % (interquartile, of the median) and the time at reference speed
4-6 %. The kernel is the benchmark's own code and never changes with
the program, so a change in the program moves the normalised numbers
exactly as it would move the raw ones on a quiet host.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import List, Sequence

#: Seconds one sample takes on this class of host when nothing else is
#: running (the fastest one-second median seen while sizing the load).
#: It only anchors the unit: a wrong value scales every number of both
#: sides of a comparison by the same constant.
REF_S = 0.00030
_ROUNDS = 15

_DOC = {
    "wire_version": 3, "uid": "pub:123456", "app": "pub",
    "operations": [{
        "operation": "update", "types": ["Item"], "id": 1234,
        "attributes": {"owner_id": 17, "name": "item-1234", "score": 512,
                       "body": "x" * 100, "sent_at": 12345.678901},
    }],
    "dependencies": {"pub/items/id/1234": 7, "pub/owners/id/17": 3},
    "published_at": 1.7e9, "generation": 1,
}


class _Cell:
    def __init__(self) -> None:
        self.table: dict = {}
        self.count = 0

    def step(self, key: str, value: tuple) -> int:
        self.table[key] = value
        self.count += 1
        return self.count


def sample() -> float:
    """Seconds the reference work takes right now. The mix — JSON both
    ways, dict writes, method calls, string formatting, a sort — is what
    the program's hot path is made of."""
    start = time.perf_counter()
    cell = _Cell()
    for outer in range(_ROUNDS):
        decoded = json.loads(json.dumps(_DOC))
        for inner in range(50):
            cell.step(f"k{inner}", (outer, inner))
        sorted(decoded["dependencies"].items())
    return time.perf_counter() - start


def samples(count: int) -> List[float]:
    return [sample() for _ in range(count)]


def factor(readings: Sequence[float]) -> float:
    """How slow the host was while ``readings`` were taken (1.0 = the
    reference): their median, which one sample that lost the CPU for a
    millisecond does not move."""
    return statistics.median(readings) / REF_S
