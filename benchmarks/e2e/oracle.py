"""The correctness oracle, run after the timed phases of every workload.

A miss is never an exception: each check adds a line to ``problems`` and
divergent rows add to ``divergent`` (which the caller counts as failed
ops), so the command still prints its row — and exits non-zero.
"""

from __future__ import annotations

from typing import Any, Dict, List

from benchmarks.e2e.rig import ITEM_FIELDS, Rig


def _divergent_rows(rig: Rig, index: int) -> int:
    """Row-by-row fallback: ids whose published-field projection differs
    between the publisher's table and one subscriber's."""

    def projection(model: type) -> Dict[Any, tuple]:
        return {
            row["id"]: tuple(row.get(name) for name in ITEM_FIELDS)
            for row in model.__mapper__._do_where({}, None, None)
        }

    published, replica = projection(rig.Item), projection(rig.sub_items[index])
    return sum(
        published.get(row_id) != replica.get(row_id)
        for row_id in published.keys() | replica.keys()
    )


def check_inproc(rig: Rig) -> Dict[str, Any]:
    problems: List[str] = []
    divergent = 0
    counters = rig.eco.metrics.snapshot()
    published = counters["publisher.pub.published"]
    for index, sub in enumerate(rig.subs):
        try:
            report = sub.audit_replication()
            rows = report.divergent_total
        except Exception as exc:  # the audit itself broke: compare by hand
            problems.append(f"{sub.name}: audit_replication raised {exc!r}")
            rows = _divergent_rows(rig, index)
        if rows:
            problems.append(f"{sub.name}: {rows} divergent rows")
            divergent += rows
        coalesced = counters.get(f"flow.{sub.name}.coalesced", 0)
        shed = counters.get(f"flow.{sub.name}.shed", 0)
        applied = counters[f"subscriber.{sub.name}.processed"]
        if shed:
            problems.append(f"{sub.name}: {shed} messages shed")
        if applied != published - coalesced - shed:
            problems.append(
                f"{sub.name}: applied {applied} != published {published} "
                f"- coalesced {coalesced} - shed {shed}"
            )
        if len(sub.subscriber.queue):
            problems.append(f"{sub.name}: queue not empty after the run")
    return {"problems": problems, "divergent": divergent}


def check_sharded(
    verify: Dict[str, Any],
    stats: Dict[str, Dict[str, Any]],
    generator_metrics: Dict[str, Any],
    consumer_metrics: Dict[str, Any],
) -> Dict[str, Any]:
    """``verify`` is the subscriber shard's cross-process audit; ``stats``
    the per-shard link counters ``ShardRunner.finish`` returns."""
    problems: List[str] = []
    divergent = verify["divergent"]
    if not verify["in_sync"]:
        problems.append(f"sub0: {divergent} divergent rows")
    forwarded = sum(s["forwarded"] for s in stats.values())
    delivered = sum(s["delivered"] for s in stats.values())
    dropped = sum(s["dropped"] for s in stats.values())
    if forwarded != delivered:
        problems.append(f"forwarded {forwarded} != delivered {delivered}")
    if dropped:
        problems.append(f"{dropped} messages dropped by the broker")
    published = generator_metrics["publisher.pub.published"]
    applied = consumer_metrics["subscriber.sub0.processed"]
    if applied != published:
        problems.append(f"sub0: applied {applied} != published {published}")
    return {"problems": problems, "divergent": divergent}
