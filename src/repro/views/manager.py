"""The per-service view manager: maintains declared read models in the
subscriber apply path and keeps the cache tier at the applied frontier.

The subscriber calls :meth:`on_applied` with the engine row transition
of every write it lands (old row state, new row state — captured
around the actual engine write, so coalesced messages contribute
exactly one transition to the merged attributes). Outside a batch the
transition folds into the view states immediately and the affected
cache keys are written in the same step. Inside a batch (a
multi-operation message applied as one engine transaction)
transitions are buffered per thread and folded once on
:meth:`commit_batch` — views update and the cache is written *once
per batch*, after the engine transaction committed, and an aborted
batch simply drops its buffer (the engine rolled back; the rows never
changed, so neither may the views).

View state lives in memory behind the manager lock. A fold writes each
touched view's served value through to the cache **while it holds that
lock**: two folds may touch the same aggregate, and the later fold's
value must be the one the cache ends up holding (rows are ordered per
object by the delivery mode; aggregates are ordered by nothing but this
lock). Lock order is manager → cache KV; a reader never holds the cache
lock while its loader runs, so there is no cycle. A view read therefore
misses only after :meth:`ReplicatedCache.flush` (restore,
:meth:`rebuild`) and then loads :meth:`peek`. On crash restore the
states are rebuilt deterministically from the restored base rows
(:meth:`rebuild`) — the WAL replays raw engine writes without firing
this hook, and a full recompute is both simpler and self-auditing.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.views.cache import ReplicatedCache
from repro.views.specs import ViewSpec


class ViewManager:
    """Derived read models + cache tier for one subscribing service."""

    def __init__(
        self, service: Any, cache: Optional[ReplicatedCache] = None
    ) -> None:
        self.service = service
        metrics = service.ecosystem.metrics
        self.cache = cache if cache is not None else ReplicatedCache(
            service.name, metrics=metrics
        )
        self._specs: Dict[str, ViewSpec] = {}
        #: view name -> (cache key, miss loader), built once per declare.
        self._view_reads: Dict[str, Tuple[str, Callable[[], Any]]] = {}
        #: model name -> specs over it (the apply-path dispatch index).
        self._by_model: Dict[str, List[ViewSpec]] = {}
        self._states: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.RLock()
        self._tls = threading.local()
        self._applied = metrics.counter(f"views.{service.name}.applied")
        self._folds = metrics.counter(f"views.{service.name}.folds")
        self._rebuilds = metrics.counter(f"views.{service.name}.rebuilds")
        self._batch_flushes = metrics.counter(
            f"views.{service.name}.batch_flushes"
        )

    # -- declaration --------------------------------------------------------

    def declare(self, spec: ViewSpec) -> ViewSpec:
        """Register a view and build its state from the current base
        rows (a view declared after bootstrap starts correct)."""
        with self._lock:
            if spec.name in self._specs:
                raise ValueError(f"view {spec.name!r} already declared")
            self._specs[spec.name] = spec
            self._by_model.setdefault(spec.model, []).append(spec)
            self._states[spec.name] = spec.recompute(self._rows(spec.model))
            self._view_reads[spec.name] = (
                ReplicatedCache.view_key(spec.name),
                lambda: self.peek(spec.name),
            )
            self._write_view_through(spec)
        return spec

    def specs(self) -> List[ViewSpec]:
        with self._lock:
            return list(self._specs.values())

    def needs_old_row(self, model: str) -> bool:
        """Apply-path gate: the pre-write row state costs one extra
        engine read, and only aggregate deltas need it — the row cache
        write-through is keyed by id and final state alone."""
        return model in self._by_model

    # -- the apply-path hook -------------------------------------------------

    def on_applied(
        self,
        model: str,
        row_id: Any,
        old_row: Optional[Dict[str, Any]],
        new_row: Optional[Dict[str, Any]],
    ) -> None:
        """One landed engine write. Inside a batch: buffered; outside:
        folded and written to the cache immediately."""
        self._applied.increment()
        buffer = getattr(self._tls, "buffer", None)
        if buffer is not None:
            buffer.append((model, row_id, old_row, new_row))
            return
        self._fold([(model, row_id, old_row, new_row)])

    # -- one engine transaction ------------------------------------------------

    def begin_batch(self) -> None:
        """Start buffering transitions on this thread. Nests: only the
        outermost commit folds."""
        depth = getattr(self._tls, "depth", 0)
        if depth == 0:
            self._tls.buffer = []
        self._tls.depth = depth + 1

    def commit_batch(self) -> None:
        """Fold the buffered transitions and write each affected cache
        key exactly once."""
        depth = getattr(self._tls, "depth", 0)
        if depth <= 0:
            return
        self._tls.depth = depth - 1
        if self._tls.depth > 0:
            return
        buffer, self._tls.buffer = self._tls.buffer, None
        if buffer:
            self._fold(buffer)
            self._batch_flushes.increment()

    def abort_batch(self) -> None:
        """The engine transaction rolled back: the rows never changed,
        so the buffered transitions must not touch the views. The
        retried apply re-enters through :meth:`on_applied` with fresh
        row states."""
        depth = getattr(self._tls, "depth", 0)
        if depth <= 0:
            return
        self._tls.depth = depth - 1
        if self._tls.depth > 0:
            return
        self._tls.buffer = None

    # -- folding -------------------------------------------------------------

    def _fold(
        self,
        transitions: List[Tuple[str, Any, Optional[Dict], Optional[Dict]]],
    ) -> None:
        touched_views: Dict[str, ViewSpec] = {}
        row_writes: Dict[str, Optional[Dict[str, Any]]] = {}
        with self._lock:
            for model, row_id, old_row, new_row in transitions:
                for spec in self._by_model.get(model, ()):
                    spec.apply(self._states[spec.name], old_row, new_row)
                    touched_views[spec.name] = spec
                # Last transition per key wins within the batch.
                row_writes[ReplicatedCache.row_key(model, row_id)] = new_row
            for spec in touched_views.values():
                self._write_view_through(spec)
        self._folds.increment(len(transitions))
        # Rows go outside the state lock (the delivery mode already
        # orders the writes of one object); once per key per fold.
        # Deletes invalidate, surviving rows write through their final
        # state.
        for key, new_row in row_writes.items():
            if new_row is None:
                self.cache.invalidate(key)
            else:
                self.cache.write_through(key, dict(new_row))

    def _write_view_through(self, spec: ViewSpec) -> None:
        """Install one view's served value in the cache. Caller holds
        the state lock — that is what orders two folds of one view."""
        self.cache.write_through(
            self._view_reads[spec.name][0], spec.read(self._states[spec.name])
        )

    # -- read side -----------------------------------------------------------

    def read(self, name: str) -> Any:
        """Cache-aside read of one view's served value."""
        value, _ = self.cache.read(*self._view_reads[name])
        return value

    def read_row(self, model: str, row_id: Any) -> Optional[Dict[str, Any]]:
        """Cache-aside read of one subscribed row, falling back to the
        backing engine on miss."""
        value, _ = self.cache.read(
            ReplicatedCache.row_key(model, row_id),
            lambda: self._find(model, row_id),
        )
        return value

    def peek(self, name: str) -> Any:
        """The authoritative in-memory value (no cache): what the
        conformance checker compares against recomputation."""
        spec = self._specs[name]
        with self._lock:
            return spec.read(self._states[name])

    def canonical(self, name: str) -> Any:
        spec = self._specs[name]
        with self._lock:
            return spec.canonical(self._states[name])

    def recompute_canonical(self, name: str) -> Any:
        """The same projection from a full base-row scan — the
        ``INV_VIEW`` reference value."""
        spec = self._specs[name]
        with self._lock:
            return spec.canonical(spec.recompute(self._rows(spec.model)))

    # -- restore -------------------------------------------------------------

    def rebuild(self) -> int:
        """Recompute every view from the (restored) base rows and drop
        the cache wholesale. WAL replay applies raw engine writes
        without this hook, so restore rebuilds instead of trusting any
        snapshotted view state — deterministic by construction."""
        with self._lock:
            for name, spec in self._specs.items():
                self._states[name] = spec.recompute(self._rows(spec.model))
            count = len(self._specs)
        self.cache.flush()
        self._rebuilds.increment()
        return count

    # -- raw row access --------------------------------------------------------

    def _mapper(self, model: str):
        model_cls = self.service.registry.get(model)
        if model_cls is None:
            return None
        mapper = model_cls.__mapper__
        if mapper is None or mapper.db is None:
            return None
        return mapper

    def _rows(self, model: str) -> List[Dict[str, Any]]:
        mapper = self._mapper(model)
        if mapper is None:
            return []
        return mapper._do_where({}, None, None)

    def _find(self, model: str, row_id: Any) -> Optional[Dict[str, Any]]:
        mapper = self._mapper(model)
        if mapper is None:
            return None
        return mapper._do_find(row_id)
