"""The write-message envelope (Fig 6b).

A message carries every write of one publisher operation (or one
transaction), its dependency map, a timestamp and the publisher's
generation number. The payload is JSON-serialisable end to end, which
is settled where the body is built (``core.marshal.wire_value`` refuses
any other value), not by encoding it.

A message is encoded **at most once**, on first use, and is **immutable
after publish**: :meth:`Message.body` is the canonical JSON of its wire
dict, built when the first consumer of bytes asks — a WAL record about
the message or the forwarder to another shard — and kept in a cell that
every delivery of the publish shares, so whoever asks first fills it
for all. A message nobody logs or ships is never serialised. JSON is
parsed only across a process boundary (:meth:`Message.from_json`:
``Broker.deliver_remote`` and restore); the queues of one process each
get a :meth:`Message.delivery`, sharing the body containers and the
body cell and owning only delivery state. Sound because body fields are
never assigned or mutated in place — :meth:`Message.rewrite`
(coalescing), the one sanctioned change, replaces one delivery's
containers and gives it an empty cell of its own — and because both
edges copy: ``core.marshal`` builds the body in fresh containers, the
subscriber hands applications copies of its mutable values. Payload
dicts must have string keys and read in key order everywhere: the
canonical form sorts them and ``core.marshal`` builds them sorted, so a
local delivery reads exactly as the wire round trip would.

Beside the body cell sits the **facts cell** (:meth:`Message.fact`):
what a subscriber derives from the body alone — the written objects'
versions, the dependency map weakened to a delivery mode, the counter
bumps in the order that mode applies them — derived *at most once per
publish* by the first delivery that asks and shared by every other, as
the body is encoded at most once. It follows the body's life: shared
by :meth:`Message.delivery`, emptied by :meth:`Message.rewrite`, and
empty on a message built by :meth:`Message.from_wire` (restore, the
wire). A fact is never mutated by whoever reads it.
"""

from __future__ import annotations

import itertools
import json
import threading
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional

from repro.errors import BrokerError
from repro.runtime.tracing import Trace

#: Data-plane wire-format schema version. Bump when a field changes
#: meaning; receivers refuse payloads from a *newer* schema instead of
#: silently misreading them. v2: the optional ``trace`` dict may carry
#: per-span ``shard`` tags and a trace ``origin`` (cross-shard tracing);
#: v3: the optional ``cdc`` int tags messages ingested from a
#: transactional outbox with their outbox sequence number; v4: the
#: ``bootstrap`` and ``repair`` flags are gone — targeted repair is a
#: bootstrap transfer, not a message. v1–v3 payloads — which omit the
#: newer optional fields — are still accepted, except one flagged
#: ``"repair": true``: replayed as an ordered apply it would count the
#: wrong counters.
WIRE_VERSION = 4

_seq = itertools.count(1)
_seq_lock = threading.Lock()

#: The C encoder ``json.JSONEncoder(sort_keys=True, separators=(",",
#: ":")).encode`` builds anew on every call, built once — same bytes.
#: It keeps no circular-reference markers: a shared markers dict would
#: keep the ids an encode that raised left in it.
_encode = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", True, False, True
)


def canonical_json(value: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, ASCII-only. The one
    encoding of a message body and of a WAL record (whose CRC replay
    recomputes from exactly this form), so a cached body can be spliced
    into a record verbatim."""
    return "".join(_encode(value, 0))


class Message:
    """One published write message."""

    def __init__(
        self,
        app: str,
        operations: List[Dict[str, Any]],
        dependencies: Dict[str, int],
        published_at: float,
        generation: int = 1,
        external_dependencies: Optional[Dict[str, int]] = None,
        uid: Optional[str] = None,
        trace: Optional[Trace] = None,
        increments: Optional[Dict[str, int]] = None,
        cdc: Optional[int] = None,
        counters: Optional[Dict[str, List[int]]] = None,
    ) -> None:
        with _seq_lock:
            self.seq = next(_seq)  # broker-side FIFO tiebreaker
        #: Stable identity across redeliveries and wire copies: queues
        #: key acks, coalescing and restore state by it. (Whether a
        #: delivery was applied is the subscriber counters' question.)
        self.uid = uid if uid is not None else f"{app}:{self.seq}"
        self.app = app
        self.operations = operations
        self.dependencies = dependencies
        #: Cross-application dependencies: waited on, never incremented
        #: (§4.2). Adopted, like ``dependencies``: the caller hands over
        #: a fresh dict.
        self.external_dependencies = (
            external_dependencies if external_dependencies is not None else {}
        )
        self.published_at = published_at
        self.generation = generation
        #: End-to-end trace context; None unless the ecosystem tracer is
        #: enabled. Serialised with the payload so it survives the wire;
        #: forked per local delivery.
        self.trace = trace
        #: Per-dependency counter bumps on apply. ``None`` means the
        #: plain §4.2 rule (one per write dependency); coalesced
        #: messages carry the summed increments of their constituents.
        self.increments: Optional[Dict[str, int]] = (
            dict(increments) if increments else None
        )
        #: Outbox sequence number when this message was ingested by the
        #: CDC poller from a transactional outbox (``None`` for ORM
        #: writes). CDC messages are exempt from weak-mode shedding:
        #: once the poller's cursor passes an entry, a shed would lose
        #: it until the next anti-entropy repair.
        self.cdc: Optional[int] = cdc
        #: Publisher side only, never serialised: the post-bump
        #: ``[ops, version]`` of each dependency key this publish's own
        #: version-store bump left — what its ``out`` record carries.
        #: ``None`` on a message from the wire: the log tells a forwarded
        #: delivery from a local one by it.
        self.counters = counters
        self.delivery_count = 0
        #: Queue-local dwell bookkeeping (set by ``SubscriberQueue``):
        #: runtime state of one queue's copy, never serialised.
        self.enqueued_at: Optional[float] = None
        self.dwell: Optional[float] = None
        #: One-slot cell holding :meth:`body`, ``None`` until the first
        #: consumer asks; shared by every :meth:`delivery`.
        self._body: List[Optional[str]] = [None]
        #: The facts cell (:meth:`fact`): key -> derived value, shared
        #: by every :meth:`delivery` like ``_body``.
        self._facts: Dict[Hashable, Any] = {}

    def to_wire(self) -> Dict[str, Any]:
        """The wire payload as a dict, trace excluded (traces are runtime
        observability state, not durable data). Shares this message's
        containers — safe to hold because they are replaced, never
        mutated (:meth:`rewrite`)."""
        payload = {
            "wire_version": WIRE_VERSION,
            "uid": self.uid,
            "app": self.app,
            "operations": self.operations,
            "dependencies": self.dependencies,
            "external_dependencies": self.external_dependencies,
            "published_at": self.published_at,
            "generation": self.generation,
        }
        if self.increments:
            payload["increments"] = self.increments
        if self.cdc is not None:
            payload["cdc"] = self.cdc
        return payload

    def body(self) -> str:
        """Canonical JSON of :meth:`to_wire`, encoded on first use and
        kept for every delivery of this publish — what WAL records
        embed and ``to_json`` extends."""
        cell = self._body
        body = cell[0]
        if body is None:
            body = cell[0] = canonical_json(self.to_wire())
        return body

    def fact(self, key: Hashable, derive: Callable[..., Any], *args: Any) -> Any:
        """The fact ``key`` of this publish: ``derive(self, *args)``,
        computed by the first delivery that asks and kept for every
        delivery of the publish. ``key`` must name everything the value
        depends on besides the body (a delivery mode, say)."""
        facts = self._facts
        if key not in facts:
            facts[key] = derive(self, *args)
        return facts[key]

    def to_json(self) -> str:
        body = self.body()
        if self.trace is None:
            return body
        # The trace keeps growing after publish, so it is never cached:
        # spliced onto the body as the payload's last key.
        return f'{body[:-1]},"trace":{json.dumps(self.trace.to_dict())}}}'

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Message":
        """Build a message from a wire dict (adopting its containers).
        The body is *not* taken from whatever text ``data`` was parsed
        from: foreign bytes may be spaced, unsorted or versionless."""
        version = data.get("wire_version", 1)
        if version > WIRE_VERSION:
            raise BrokerError(
                f"message wire_version {version} is newer than supported "
                f"{WIRE_VERSION}; upgrade this subscriber before the publisher"
            )
        if data.get("repair"):
            raise BrokerError(
                f"message {data.get('uid')!r} is a v{version} repair message, "
                "which this release does not apply: re-run the repair "
                "instead (docs/recovery.md)"
            )
        return cls(
            app=data["app"],
            operations=data["operations"],
            dependencies=data["dependencies"],
            published_at=data["published_at"],
            generation=data.get("generation", 1),
            external_dependencies=data.get("external_dependencies"),
            uid=data.get("uid"),
            trace=Trace.from_dict(data["trace"]) if data.get("trace") else None,
            increments=data.get("increments"),
            cdc=data.get("cdc"),
        )

    @classmethod
    def from_json(cls, payload: str) -> "Message":
        return cls.from_wire(json.loads(payload))

    def delivery(self) -> "Message":
        """One local queue's delivery of this message: it shares the
        body containers and the body cell (immutable after publish)
        and owns what a queue writes — ``seq``, delivery count, dwell
        bookkeeping and a fork of the trace. It shares the facts cell
        too."""
        clone = Message.__new__(Message)
        clone.__dict__.update(self.__dict__)
        with _seq_lock:
            clone.seq = next(_seq)
        clone.delivery_count = 0
        clone.enqueued_at = clone.dwell = None
        if self.trace is not None:
            clone.trace = self.trace.fork()
        return clone

    def rewrite(
        self,
        operations: List[Dict[str, Any]],
        dependencies: Dict[str, int],
        external_dependencies: Dict[str, int],
        increments: Dict[str, int],
    ) -> None:
        """Replace the body fields a merge changes — the single
        sanctioned mutation of a published message (flow-control
        coalescing). The arguments must be fresh containers, not the
        old ones edited in place: earlier :meth:`to_wire` dicts (a
        snapshot being written) still hold the old ones. The delivery
        gets empty body and facts cells of its own."""
        self.operations = operations
        self.dependencies = dependencies
        self.external_dependencies = external_dependencies
        self.increments = increments
        self._body = [None]
        self._facts = {}

    @staticmethod
    def advance_sequence(uids: Iterable[str]) -> None:
        """Restore: move the process-wide sequence past every default
        ``app:seq`` uid in ``uids``. A fresh process restarts it at 1,
        and a new publish whose uid collided with a restored one would
        be mistaken for it by the queue's uid-keyed acks."""
        global _seq
        tails = (uid.rpartition(":")[2] for uid in uids)
        high = max((int(tail) for tail in tails if tail.isdigit()), default=0)
        if high > 0:
            with _seq_lock:
                _seq = itertools.count(max(next(_seq), high + 1))

    def counter_increments(self) -> Dict[str, int]:
        """Per-dependency counter bumps on apply: the plain §4.2 rule
        (one per write dependency) unless coalescing summed them."""
        if self.increments is not None:
            return self.increments
        return {dep: 1 for dep in self.dependencies}

    def __repr__(self) -> str:
        ops = [(op["operation"], op.get("id")) for op in self.operations]
        return f"<Message app={self.app} ops={ops} deps={self.dependencies}>"
