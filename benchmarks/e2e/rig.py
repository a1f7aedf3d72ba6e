"""One built ecosystem for one workload, and the calls that drive it.

The rig touches the program only through its public surface: ``Ecosystem``
/ ``Service`` declarations, ``Model.create/update/destroy/find``,
``raw_session()``, ``subscriber.drain()``, ``cdc.poll_all()`` and
``views.read/read_row``. Every subscriber model stamps the moment a row
became visible in an ``after_save`` / ``after_destroy`` callback; that
stamp minus the time the write was due is the replication lag.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.e2e.workloads import (
    BODY,
    CREATE,
    ITEMS,
    OWNERS,
    READ_COUNT,
    READ_ROW,
    SENTINEL,
    UPDATE,
    Op,
    Workload,
    preload_score,
)
from repro.core import Ecosystem
from repro.databases.columnar import CassandraLike
from repro.databases.document import MongoLike
from repro.databases.relational import PostgresLike
from repro.orm import Field, Model, after_destroy, after_save

_ENGINES = {
    "postgres": PostgresLike,
    "cassandra": CassandraLike,
    "mongo": MongoLike,
}
ITEM_FIELDS = ["owner_id", "name", "score", "body", "sent_at"]

#: One visibility stamp: ``(row id, sent_at carried by the row or None
#: for a destroy, time the subscriber callback ran)``.
Stamp = Tuple[Any, Optional[float], float]


def _item_fields() -> Dict[str, Field]:
    return {
        "owner_id": Field(int),
        "name": Field(str),
        "score": Field(int, default=0),
        "body": Field(str),
        "sent_at": Field(float, default=0.0),
    }


class Rig:
    """A built, preloaded ecosystem plus the driver-side bookkeeping
    (row ids and live model instances by logical item index)."""

    def __init__(self, workload: Workload, clock: Callable[[], float],
                 data_root: str) -> None:
        self.workload = workload
        self.clock = clock
        self.data_dir: Optional[str] = None
        eco = self.eco = Ecosystem()
        if workload.flow:
            from repro.runtime.flow import FlowConfig

            eco.enable_flow(FlowConfig(batch_max=16, coalesce=True))
        pub = self.pub = eco.service("pub", database=MongoLike("pub-db"))

        @pub.model(publish=["name"], name="Owner")
        class Owner(Model):
            name = Field(str)

        self.Owner = Owner
        self.Item = pub.model(publish=ITEM_FIELDS, name="Item")(
            type("Item", (Model,), _item_fields())
        )

        self.subs: List[Any] = []
        self.sub_items: List[type] = []
        #: Per subscriber, the visibility stamps of the current phase.
        self.stamps: List[List[Stamp]] = []
        #: Set by a subscriber callback when the sentinel row lands.
        self.sentinel_seen = False
        for index, engine in enumerate(workload.subscribers):
            sub = eco.service(f"sub{index}", database=_ENGINES[engine](f"sub{index}-db"))
            stamps: List[Stamp] = []
            self.subs.append(sub)
            self.stamps.append(stamps)
            self.sub_items.append(self._subscriber_model(sub, stamps))

        if workload.durability:
            self.data_dir = os.path.join(
                data_root, f"wal-{os.getpid()}-{time.monotonic_ns()}"
            )
            eco.enable_durability(self.data_dir, fsync="off")
        self.raw = None
        if workload.cdc:
            pub.enable_outbox()
            self.raw = pub.raw_session()
        self.views = None
        if workload.views:
            from repro.views import CountView, SumView

            self.views = self.subs[0].enable_views()
            self.views.declare(CountView("items", "Item"))
            self.views.declare(SumView("score_total", "Item", "score"))

        self.owner_ids: List[Any] = []
        #: logical item -> publisher row id (kept after a destroy, so the
        #: write can still be matched to its visibility stamp).
        self.ids: Dict[int, Any] = {}
        #: logical item -> live publisher instance (ORM workloads).
        self.objs: Dict[int, Any] = {}
        self.sentinel: Any = None
        #: The span recorder of a traced shard mesh (``shard._build``).
        self.recorder: Any = None
        eco.bench = self  # how a shard scenario finds its rig again

    def _subscriber_model(self, sub: Any, stamps: List[Stamp]) -> type:
        clock = self.clock
        rig = self

        def stamp_saved(self) -> None:
            if self.name == SENTINEL:
                rig.sentinel_seen = True
            else:
                stamps.append((self.id, self.sent_at, clock()))

        def stamp_gone(self) -> None:
            stamps.append((self.id, None, clock()))

        namespace = _item_fields()
        namespace["stamp_saved"] = after_save(stamp_saved)
        namespace["stamp_gone"] = after_destroy(stamp_gone)
        return sub.model(
            subscribe={"from": "pub", "fields": ITEM_FIELDS}, name="Item"
        )(type("Item", (Model,), namespace))

    # -- set-up ---------------------------------------------------------------

    def preload(self, tick: Callable[[], Any] = lambda: None) -> None:
        """200 owners and 2,000 items through the ORM. ``tick`` is called
        every hundred items (the set-up's speed samples hang on it)."""
        with self.pub.controller():
            for index in range(OWNERS):
                self.owner_ids.append(self.Owner.create(name=f"owner-{index}").id)
            for item in range(ITEMS):
                if item % 100 == 0:
                    tick()
                obj = self.Item.create(
                    owner_id=self.owner_ids[item % OWNERS],
                    name=f"item-{item}",
                    score=preload_score(item),
                    body=BODY,
                    sent_at=0.0,
                )
                self.ids[item] = obj.id
                self.objs[item] = obj
            if self.workload.sharded:
                self.sentinel = self.Item.create(
                    owner_id=self.owner_ids[0], name=SENTINEL, score=0,
                    body="", sent_at=0.0,
                )

    def reset_stamps(self) -> None:
        for stamps in self.stamps:
            del stamps[:]
        self.sentinel_seen = False

    # -- one op ---------------------------------------------------------------

    def write(self, op: Op, due: float) -> float:
        """Run one write op; returns what the caller's write call cost."""
        if self.raw is not None:
            return self._write_raw(op, due)
        kind, item, owner, score = op
        clock = self.clock
        with self.pub.controller():
            self.Owner.find(self.owner_ids[owner])
            if kind == UPDATE:
                obj = self.objs[item]
                start = clock()
                obj.update(score=score, sent_at=due)
                return clock() - start
            if kind == CREATE:
                start = clock()
                obj = self.Item.create(
                    owner_id=self.owner_ids[owner], name=f"item-{item}",
                    score=score, body=BODY, sent_at=due,
                )
                elapsed = clock() - start
                self.ids[item] = obj.id
                self.objs[item] = obj
                return elapsed
            obj = self.objs.pop(item)
            start = clock()
            obj.destroy()
            return clock() - start

    def _write_raw(self, op: Op, due: float) -> float:
        kind, item, owner, score = op
        clock = self.clock
        raw, model = self.raw, self.Item
        if kind == UPDATE:
            start = clock()
            raw.update(model, self.ids[item], {"score": score, "sent_at": due})
            return clock() - start
        if kind == CREATE:
            attrs = {
                "owner_id": self.owner_ids[owner], "name": f"item-{item}",
                "score": score, "body": BODY, "sent_at": due,
            }
            start = clock()
            row = raw.insert(model, attrs)
            elapsed = clock() - start
            self.ids[item] = row["id"]
            return elapsed
        row_id = self.ids[item]
        start = clock()
        raw.delete(model, row_id)
        return clock() - start

    def read(self, op: Op) -> Tuple[float, bool]:
        """Run one cached read; returns ``(seconds, fresh)``."""
        kind, item, _owner, expected = op
        clock = self.clock
        views = self.views
        if kind == READ_ROW:
            row_id = self.ids[item]
            start = clock()
            row = views.read_row("Item", row_id)
            elapsed = clock() - start
            return elapsed, row is not None and row["score"] == expected
        name = "items" if kind == READ_COUNT else "score_total"
        start = clock()
        value = views.read(name)
        elapsed = clock() - start
        return elapsed, value == expected

    def end_phase(self, marker: int) -> None:
        """Publish the sentinel write that ends a cross-process phase."""
        with self.pub.controller():
            self.sentinel.update(score=marker)

    def _dwell_histograms(self) -> List[Any]:
        """The program's own per-link queue-dwell histograms (fed by its
        lag monitor on every apply, tracing or not)."""
        return [
            self.eco.metrics.histogram(f"monitor.pub_to_{sub.name}.dwell")
            for sub in self.subs
        ]

    def reset_dwell(self) -> None:
        for histogram in self._dwell_histograms():
            histogram.reset()

    def dwell_p50(self) -> float:
        """Median queue dwell since the last reset, slowest link, seconds."""
        return max(h.percentile(50) for h in self._dwell_histograms())

    def settle(self) -> None:
        """Make everything published so far visible at every subscriber."""
        if self.eco.cdc is not None:
            self.eco.cdc.poll_all()
        for sub in self.subs:
            sub.subscriber.drain()

    def close(self) -> None:
        if self.eco.durability is not None:
            self.eco.durability.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


def build(workload: Workload, clock: Callable[[], float], data_root: str,
          preload: bool = True, tick: Callable[[], Any] = lambda: None) -> Rig:
    """Build, preload and settle one rig: what ``setup_s`` times."""
    rig = Rig(workload, clock, data_root)
    if preload:
        rig.preload(tick)
        rig.settle()
        tick()
        rig.reset_stamps()
    return rig
