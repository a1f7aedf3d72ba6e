"""Cross-process transport over multiprocessing pipes.

A :class:`PeerLink` wraps one duplex pipe to a peer shard: a reader
thread demultiplexes incoming frames (control requests, control
responses, forwarded data-plane payloads), a send lock serializes
outgoing frames, and a pending-reply table matches responses to waiting
requesters. :class:`ProcessTransport` adapts a link to the
:class:`~repro.runtime.transport.control.Transport` interface.

Fault behaviour is structured, never a hang: a request that exceeds its
deadline raises :class:`TransportTimeout`; a request to (or in flight
toward) a dead peer raises :class:`TransportError`. Both paths emit a
flight-recorder event so postmortems see the control plane stall. A
reader that dies on an exception (a data sink refusing a payload, say a
``WALWriteFailed`` from the enqueue) marks the link dead and records a
``transport.reader_failed`` anomaly carrying it, so the next request
fails at once instead of waiting out its deadline.

Frames are small tuples whose payloads are the JSON wire strings of the
envelopes / messages — the pipe carries text, not Python objects, so the
process boundary enforces the same seam the loopback transport does.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from repro.errors import TransportError, TransportTimeout
from repro.runtime.monitor.recorder import FlightRecorder
from repro.runtime.transport.envelopes import ControlRequest, ControlResponse

FRAME_CTRL_REQ = "ctrl_req"
FRAME_CTRL_RESP = "ctrl_resp"
FRAME_DATA = "data"
FRAME_STOP = "stop"


class _PendingReply:
    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[ControlResponse] = None


class PeerLink:
    """One framed duplex connection to a peer process."""

    def __init__(
        self,
        conn: Any,
        dispatch: Callable[[str], str],
        data_sink: Optional[Callable[[str, str], None]] = None,
        recorder: Any = None,
        name: str = "peer",
    ) -> None:
        self.conn = conn
        self.name = name
        self.recorder = recorder or FlightRecorder()
        #: request JSON -> response JSON, run on a per-request thread.
        self._dispatch = dispatch
        #: (subscriber_app, message JSON) -> enqueue locally; a link that
        #: carries control traffic only drops data frames.
        self._data_sink = data_sink or (lambda subscriber_app, payload: None)
        self._send_lock = threading.Lock()
        self._pending: Dict[str, _PendingReply] = {}
        self._pending_lock = threading.Lock()
        self.dead = threading.Event()
        self.data_sent = 0
        self.data_received = 0
        self._reader: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "PeerLink":
        self._reader = threading.Thread(
            target=self._read_loop, name=f"peerlink-{self.name}", daemon=True
        )
        self._reader.start()
        return self

    def close(self) -> None:
        try:
            self.send((FRAME_STOP,))
        except TransportError:
            pass
        self._mark_dead()
        try:
            self.conn.close()
        except OSError:
            pass

    def _mark_dead(self) -> None:
        if self.dead.is_set():
            return
        self.dead.set()
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for slot in pending:
            slot.event.set()  # requesters wake up and see the dead flag

    # -- framing -------------------------------------------------------------

    def send(self, frame: tuple) -> None:
        if self.dead.is_set():
            raise TransportError(f"peer link {self.name!r} is dead")
        try:
            with self._send_lock:
                self.conn.send(frame)
        except (OSError, ValueError, BrokenPipeError) as exc:
            self._mark_dead()
            raise TransportError(
                f"peer link {self.name!r} broke while sending: {exc}"
            ) from exc

    def send_data(self, subscriber_app: str, payload: str) -> None:
        """Forward one data-plane wire payload to the peer's broker."""
        self.data_sent += 1
        self.send((FRAME_DATA, subscriber_app, payload))

    def _read_loop(self) -> None:
        """Demultiplex frames until the pipe closes or a stop frame
        arrives. However the reader ends — an exception from the data
        sink included — the link is dead afterwards."""
        try:
            self._read_frames()
        except Exception as exc:
            self.recorder.anomaly(
                "transport.reader_failed",
                link=self.name,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            self._mark_dead()

    def _read_frames(self) -> None:
        while True:
            try:
                frame = self.conn.recv()
            except (EOFError, OSError, ValueError, TypeError):
                # TypeError: CPython's Connection raises it when the
                # handle is closed out from under a blocked recv.
                return
            kind = frame[0]
            if kind == FRAME_CTRL_REQ:
                # Serve off the reader thread: a handler may itself
                # issue a control request back to this peer (e.g. a
                # federated snapshot whose SLO evaluation reads the
                # publisher's watermarks), and its response can only be
                # demultiplexed here — serving inline would deadlock.
                threading.Thread(
                    target=self._serve_request,
                    args=(frame[1],),
                    name=f"peerlink-{self.name}-serve",
                    daemon=True,
                ).start()
            elif kind == FRAME_CTRL_RESP:
                response = ControlResponse.from_json(frame[1])
                with self._pending_lock:
                    slot = self._pending.pop(response.request_id, None)
                if slot is not None:
                    slot.response = response
                    slot.event.set()
            elif kind == FRAME_DATA:
                self.data_received += 1
                self._data_sink(frame[1], frame[2])
            elif kind == FRAME_STOP:
                return

    def _serve_request(self, request_json: str) -> None:
        try:
            self.send((FRAME_CTRL_RESP, self._dispatch(request_json)))
        except TransportError:
            pass  # link died mid-serve; _mark_dead already ran

    # -- request/response ----------------------------------------------------

    def request(self, envelope: ControlRequest,
                timeout: float) -> ControlResponse:
        if self.dead.is_set():
            self._record("transport.peer_dead", envelope)
            raise TransportError(
                f"control request {envelope.op!r} to {envelope.service!r}: "
                f"peer link {self.name!r} is dead"
            )
        wire = envelope.to_json()  # raises TransportSerializationError early
        slot = _PendingReply()
        with self._pending_lock:
            self._pending[envelope.request_id] = slot
        try:
            self.send((FRAME_CTRL_REQ, wire))
        except TransportError:
            with self._pending_lock:
                self._pending.pop(envelope.request_id, None)
            self._record("transport.peer_dead", envelope)
            raise
        if not slot.event.wait(timeout):
            with self._pending_lock:
                self._pending.pop(envelope.request_id, None)
            self._record("transport.timeout", envelope, timeout=timeout)
            raise TransportTimeout(
                f"control request {envelope.op!r} to {envelope.service!r} "
                f"timed out after {timeout:.1f}s on link {self.name!r}"
            )
        if slot.response is None:  # woken by _mark_dead, not by a reply
            self._record("transport.peer_dead", envelope)
            raise TransportError(
                f"control request {envelope.op!r} to {envelope.service!r}: "
                f"peer link {self.name!r} died before replying"
            )
        return slot.response

    def _record(self, kind: str, envelope: ControlRequest, **data: Any) -> None:
        self.recorder.anomaly(
            kind,
            link=self.name,
            service=envelope.service,
            op=envelope.op,
            request_id=envelope.request_id,
            **data,
        )


class ProcessTransport:
    """Control-plane transport over one :class:`PeerLink`."""

    def __init__(self, link: PeerLink, default_timeout: float = 10.0) -> None:
        self.link = link
        self.default_timeout = default_timeout

    def request(self, envelope: ControlRequest,
                timeout: Optional[float] = None) -> ControlResponse:
        return self.link.request(
            envelope, timeout if timeout is not None else self.default_timeout
        )


def make_dispatcher(control_plane: Any) -> Callable[[str], str]:
    """The server half: request JSON in, response JSON out, run on a
    per-request serve thread against the local handler table."""
    from repro.runtime.tracing import trace_now
    from repro.runtime.transport.control import dispatch_request

    def dispatch(request_json: str) -> str:
        try:
            request = ControlRequest.from_json(request_json)
        except Exception as exc:
            return ControlResponse.failure(
                "unparsed", type(exc).__name__, str(exc)
            ).to_json()
        start = trace_now()
        response = dispatch_request(control_plane.handlers(), request)
        if request.trace:
            # The requester works under a sampled trace: record serving
            # this op as a span of that trace, on this shard's clock.
            cluster = getattr(
                getattr(control_plane, "ecosystem", None), "cluster", None
            )
            if cluster is not None:
                cluster.record_remote_span(
                    request.trace, f"control.{request.op}",
                    start, trace_now() - start,
                )
        try:
            return response.to_json()
        except Exception as exc:
            return ControlResponse.failure(
                request.request_id, type(exc).__name__, str(exc)
            ).to_json()

    return dispatch
