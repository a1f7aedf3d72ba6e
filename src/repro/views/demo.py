"""``python -m repro views --demo`` — the subscriber read path live.

A publisher drives creates, updates and deletes through replication
while the subscriber maintains four derived read models (a count, a
running sum, a top-k board and per-author feeds) in its apply path,
fronted by a versioned cache:

1. **Incremental aggregates**: every landed write folds its row
   transition into the views; after the workload, each incremental
   state must equal a from-scratch recomputation over the base rows
   (the ``INV_VIEW`` identity).
2. **Cache freshness**: every fold writes the views it touched
   through, so reads hit; a write that rides the replication stream
   moves the key's watermark and installs the new value at it, so the
   next read sees it. No cached read may be staler than an
   already-applied write.
3. **Restore rebuild**: a kill-and-restart over the same WAL directory
   rebuilds the views from the restored base rows and flushes the
   cache; the rebuilt aggregates must match pre-crash.

Exit 0 iff every aggregate matches recomputation, the hit/write-through
sequence behaves, and the post-restore rebuild is value-identical.
"""

from __future__ import annotations

from typing import List


def _build(data_dir: str):
    from repro.apps import build_replicated_pair
    from repro.core import Ecosystem
    from repro.views import CountView, FeedView, SumView, TopKView

    eco = Ecosystem()
    eco.enable_durability(data_dir=data_dir, snapshot_every=10_000)
    eco, pub, sub, Post = build_replicated_pair(
        eco, {"author": str, "score": int}, "Post"
    )
    views = sub.enable_views()
    views.declare(CountView("posts", "Post"))
    views.declare(SumView("karma", "Post", "score"))
    views.declare(TopKView("leaderboard", "Post", "score", k=3))
    views.declare(FeedView("timelines", "Post", "author", limit=5))
    return eco, pub, sub, Post


def _check_invariant(views) -> bool:
    """The INV_VIEW identity: incremental == recomputed, per view."""
    clean = True
    for spec in views.specs():
        incremental = views.canonical(spec.name)
        recomputed = views.recompute_canonical(spec.name)
        status = "ok" if incremental == recomputed else "VIOLATION"
        if incremental != recomputed:
            clean = False
        print(f"  {spec.name:<12} incremental={incremental!r:<40} [{status}]")
    return clean


def views_command(args: List[str]) -> int:
    import shutil
    import tempfile

    from repro.core.tools import flags

    data_dir = tempfile.mkdtemp(prefix="repro-views-")
    try:
        return _run_demo(flags(args, writes=30)["writes"], data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _run_demo(writes: int, data_dir: str) -> int:
    eco, pub, sub, post_cls = _build(data_dir)
    authors = ["ada", "bob", "cyd"]

    print(f"views demo: {writes} creates across {len(authors)} authors")
    posts = []
    with pub.controller():
        for i in range(writes):
            posts.append(
                post_cls.create(author=authors[i % len(authors)], score=i)
            )
    sub.subscriber.drain()

    print("after create workload:")
    if not _check_invariant(sub.views):
        return 1

    # Phase 2: cache behavior — warm hits, write-through on write.
    views = sub.views
    views.read("karma")  # the last fold wrote it through: hit
    hits_before = views.cache.stats()["hits"]
    with pub.controller():
        posts[0].score += 1000
        posts[0].save()
    sub.subscriber.drain()
    fresh = views.read("karma")  # the apply wrote the new sum through
    expected = sum(range(writes)) + 1000
    stats = views.cache.stats()
    print(
        f"cache: hits={stats['hits']} misses={stats['misses']} "
        f"invalidations={stats['invalidations']} "
        f"write_through={stats['write_throughs']}"
    )
    if hits_before < 1:
        print("FAILED: warm read did not hit the cache")
        return 1
    if fresh != expected:
        print(f"FAILED: stale read after applied write ({fresh} != {expected})")
        return 1
    print(f"post-write read is fresh: karma={fresh}")

    # Phase 3: deletes and updates keep the aggregates honest.
    with pub.controller():
        for post in posts[: len(posts) // 3]:
            post.destroy()
        for post in posts[len(posts) // 3:]:
            post.score += 7
            post.save()
    sub.subscriber.drain()
    print("after delete/update workload:")
    if not _check_invariant(views):
        return 1

    # Phase 4: kill-and-restart — views rebuild from restored rows.
    before = {spec.name: views.peek(spec.name) for spec in views.specs()}
    eco.durability.wal.sync()
    eco2, pub2, sub2, _ = _build(data_dir)
    report = eco2.durability.restore()
    rebuilt = sub2.views
    print(
        f"restore: replayed={report.replayed} requeued={report.requeued} "
        f"rebuilds={eco2.metrics.value('views.sub.rebuilds')}"
    )
    for name in before:
        # Feeds lose arrival order across a rebuild; compare canonically.
        if rebuilt.canonical(name) != views.canonical(name):
            print(
                f"FAILED: rebuilt view {name!r} diverged: "
                f"{rebuilt.peek(name)!r}"
            )
            return 1
    if not _check_invariant(rebuilt):
        return 1
    print("OK: aggregates match recomputation, cache fresh, rebuild exact")
    return 0
