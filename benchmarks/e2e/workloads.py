"""The six workloads: what each configures, why it exists, and the seeded
op streams they run.

Everything here is input generation: the program under test sees only
the generated writes and reads. The same ``--seed`` always yields the
same streams, and op *counts* come from the frozen table below (never
from a measurement taken during the run), so two commits compared at
the same ``--seconds`` do identical work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

OWNERS = 200
ITEMS = 2000
#: ~100 B of payload per item, so a message is a realistic few hundred
#: bytes on the wire rather than a bare counter.
BODY = "synapse-e2e-body-" + "x" * 83
#: Name of the extra preloaded item whose update ends a cross-process phase.
SENTINEL = "__end__"

CREATE, UPDATE, DESTROY, READ_ROW, READ_COUNT, READ_SUM = range(6)

#: One op: ``(kind, item, owner, value)``. ``item`` is a logical index
#: (preloaded items are 0..ITEMS-1, creates extend it); ``value`` is the
#: score written, or the value a read must return to count as fresh.
Op = Tuple[int, int, int, int]

#: Share of ``--seconds`` each timed phase is sized for.
SATURATE_SHARE = 0.3
PACED_SHARE = 0.7
SATURATE_BLOCKS = 6
PACED_BLOCKS = 5
#: Arrivals per second of ``--seconds`` the paced phase holds at least:
#: a lag sample is one arrival, and ``hot_flow``'s 131 bursts a second
#: would otherwise leave a block median resting on 150 samples.
MIN_ARRIVALS_PER_S = 150
TRACED_OPS = 3000

HOT_ITEMS = 16
HOT_BURST = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Subscriber engines, one service each (``sub0``, ``sub1``, ...).
    subscribers: Tuple[str, ...]
    #: Saturate-phase window: ops published before each drain.
    window: int = 64
    stream: str = "mix"  # "mix" | "hot" | "read_mix"
    durability: bool = False
    sharded: bool = False
    cdc: bool = False
    flow: bool = False
    views: bool = False
    #: Frozen sizing, measured once on the seed commit (README, "How the
    #: load was frozen"): the saturate throughput the op count is sized
    #: from, and the open-loop rate (40 % of it, 2 s.f.).
    sat_ops_s: int = 0
    rate_ops_s: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "inproc_fanout3",
            "baseline: broker fan-out and three heterogeneous applies do "
            "the work; durability, transport, cdc, flow and views do none",
            ("postgres", "cassandra", "mongo"),
            sat_ops_s=3100, rate_ops_s=1200,
        ),
        Workload(
            "wal_off",
            "same topology with the WAL on and fsync off, so durability "
            "logging does most of the work and the disk does none",
            ("postgres", "cassandra", "mongo"),
            durability=True,
            sat_ops_s=1250, rate_ops_s=500,
        ),
        Workload(
            "shard_forward",
            "two processes, every message crosses PeerLink, fan-out 1: "
            "transport and message encode/decode dominate",
            ("postgres",),
            sharded=True,
            sat_ops_s=9900, rate_ops_s=4000,
        ),
        Workload(
            "cdc_raw",
            "raw-session writes through the outbox and poller: the ORM "
            "interceptor does nothing, outbox write, poll and ingest dominate",
            ("postgres",),
            cdc=True,
            sat_ops_s=3800, rate_ops_s=400,
        ),
        Workload(
            "hot_flow",
            "bursts of updates on 16 hot items with flow control on: the "
            "queue and subscriber run their batched, coalescing path",
            ("postgres",),
            window=512, stream="hot", flow=True,
            sat_ops_s=10400, rate_ops_s=4200,
        ),
        Workload(
            "read_mix",
            "95 % cached view/row reads beside 5 % writes: view fold and "
            "cache invalidation ride the apply path next to the readers",
            ("postgres",),
            window=1, stream="read_mix", views=True,
            sat_ops_s=69000, rate_ops_s=28000,
        ),
    )
}


def preload_score(item: int) -> int:
    return item % 1000


class OpStream:
    """Seeded generator of one run's ops; phases draw from it in turn so
    the live-item set carries over from one phase to the next."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        #: Logical items alive, hottest rank first (creates join the cold end).
        self.live: List[int] = list(range(ITEMS))
        self.next_item = ITEMS
        self.scores: Dict[int, int] = {i: preload_score(i) for i in self.live}
        #: Running sum of live scores, so a READ_SUM op costs O(1) to expect.
        self.total = sum(self.scores.values())

    def _zipf_live(self) -> int:
        """A live item by log-uniform rank: P(rank k) = log_N((k+1)/k),
        which is Zipf with s = 1.0 to within the normalising constant."""
        rank = int(len(self.live) ** self.rng.random()) - 1
        return self.live[min(max(rank, 0), len(self.live) - 1)]

    def _set_score(self, item: int, score: int) -> None:
        self.total += score - self.scores.get(item, 0)
        self.scores[item] = score

    def _write(self) -> Op:
        """One op of the common mix: 25 % create, 70 % update, 5 % destroy."""
        rng = self.rng
        owner = rng.randrange(OWNERS)
        score = rng.randrange(1000)
        roll = rng.random()
        if roll < 0.25:
            item = self.next_item
            self.next_item += 1
            self.live.append(item)
            self._set_score(item, score)
            return (CREATE, item, owner, score)
        if roll < 0.95:
            item = self._zipf_live()
            self._set_score(item, score)
            return (UPDATE, item, owner, score)
        # Destroys spare the hot head so the Zipf ranks stay put.
        item = self.live.pop(rng.randrange(HOT_ITEMS, len(self.live)))
        self.total -= self.scores.pop(item)
        return (DESTROY, item, owner, 0)

    def _read(self) -> Op:
        roll = self.rng.random()
        if roll < 0.5:
            item = self._zipf_live()
            return (READ_ROW, item, 0, self.scores[item])
        if roll < 0.75:
            return (READ_COUNT, 0, 0, len(self.live))
        return (READ_SUM, 0, 0, self.total)

    def _hot_burst(self) -> List[Op]:
        item = self.rng.randrange(HOT_ITEMS)
        owner = self.rng.randrange(OWNERS)
        burst = []
        for _ in range(HOT_BURST):
            score = self.rng.randrange(1000)
            self._set_score(item, score)
            burst.append((UPDATE, item, owner, score))
        return burst

    def take(self, count: int) -> List[Op]:
        """The next ``count`` ops (``hot`` rounds up to whole bursts)."""
        stream = self.workload.stream
        ops: List[Op] = []
        while len(ops) < count:
            if stream == "hot":
                ops.extend(self._hot_burst())
            elif stream == "read_mix" and self.rng.random() < 0.95:
                ops.append(self._read())
            else:
                ops.append(self._write())
        return ops

    def arrivals(self, count: int, rate_ops_s: float) -> List[Tuple[float, List[Op]]]:
        """``count`` ops as seeded Poisson arrivals ``(offset_s, ops)`` at
        ``rate_ops_s``. A hot-flow arrival is one whole burst."""
        per_arrival = HOT_BURST if self.workload.stream == "hot" else 1
        ops = self.take(count)
        offset = 0.0
        out = []
        for start in range(0, len(ops), per_arrival):
            offset += self.rng.expovariate(rate_ops_s / per_arrival)
            out.append((offset, ops[start:start + per_arrival]))
        return out


def phase_sizes(workload: Workload, seconds: float) -> Tuple[int, int]:
    """``(saturate_ops, paced_ops)`` for a run of ``seconds``: fixed by
    the frozen rates, whole windows per saturate block, whole bursts
    for ``hot``, equal paced blocks."""
    per_block = workload.sat_ops_s * SATURATE_SHARE * seconds / SATURATE_BLOCKS
    windows = max(1, round(per_block / workload.window))
    saturate = SATURATE_BLOCKS * windows * workload.window
    unit = HOT_BURST if workload.stream == "hot" else 1
    arrivals = max(workload.rate_ops_s * PACED_SHARE * seconds / unit,
                   MIN_ARRIVALS_PER_S * seconds)
    paced = PACED_BLOCKS * max(1, round(arrivals / PACED_BLOCKS)) * unit
    return saturate, paced
