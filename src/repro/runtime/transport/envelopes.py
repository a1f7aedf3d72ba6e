"""Typed, JSON-serializable control-plane envelopes.

The data plane (write messages) rides the broker; everything *else* a
service needs from a peer — bootstrap snapshots, replica digest exchange,
repair triggers, generation queries, publisher watermark reads — rides
these envelopes. Both directions are plain JSON end to end, so a request
can cross a process boundary unchanged and nothing non-serializable can
leak between services.

``CONTROL_WIRE_VERSION`` is the one schema both ends speak: every
process of a fleet runs one tree, and envelopes never reach a disk, so a
peer refuses an envelope of any other version (missing, older or newer)
instead of misreading it. (``Message.from_wire`` still accepts older
versions: WAL and snapshot bodies outlive the process that wrote them.)
"""

from __future__ import annotations

import itertools
import json
import threading
from typing import Any, Dict, Optional

from repro.errors import TransportError, TransportSerializationError

#: Bump when an envelope field changes meaning; receivers refuse every
#: other version. v2: requests may carry an optional ``trace`` context
#: (trace_id, sampled flag, parent span, origin shard) so control-plane
#: work done on behalf of a traced message joins its trace.
CONTROL_WIRE_VERSION = 2

_req_seq = itertools.count(1)
_req_lock = threading.Lock()


def _decode(payload: str) -> Dict[str, Any]:
    """Parse an envelope, refusing any version but this tree's own."""
    data = json.loads(payload)
    version = data.get("wire_version")
    if version != CONTROL_WIRE_VERSION:
        raise TransportError(
            f"control envelope wire_version {version} is not the supported "
            f"{CONTROL_WIRE_VERSION}"
        )
    return data


def _encode(payload: Dict[str, Any], what: str) -> str:
    try:
        return json.dumps(payload)
    except (TypeError, ValueError) as exc:
        raise TransportSerializationError(
            f"{what} is not JSON-serializable: {exc}"
        ) from exc


class ControlRequest:
    """One control-plane request addressed to a service by name."""

    def __init__(
        self,
        service: str,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
        trace: Optional[Dict[str, Any]] = None,
    ) -> None:
        if request_id is None:
            with _req_lock:
                request_id = f"cp-{next(_req_seq)}"
        self.request_id = request_id
        self.service = service
        self.op = op
        self.params: Dict[str, Any] = dict(params or {})
        #: Optional trace context — {"trace_id", "sampled", "parent",
        #: "origin"} — when this request is issued on behalf of a sampled
        #: message (the server side records a ``control.<op>`` span).
        self.trace: Optional[Dict[str, Any]] = trace

    def to_json(self) -> str:
        payload: Dict[str, Any] = {
            "wire_version": CONTROL_WIRE_VERSION,
            "request_id": self.request_id,
            "service": self.service,
            "op": self.op,
            "params": self.params,
        }
        if self.trace:
            payload["trace"] = self.trace
        return _encode(
            payload, f"control request {self.op!r} to {self.service!r}"
        )

    @classmethod
    def from_json(cls, payload: str) -> "ControlRequest":
        data = _decode(payload)
        return cls(
            service=data["service"],
            op=data["op"],
            params=data.get("params"),
            request_id=data.get("request_id"),
            trace=data.get("trace"),
        )

    def __repr__(self) -> str:
        return (
            f"<ControlRequest {self.request_id} {self.op} -> {self.service}>"
        )


class ControlResponse:
    """The peer's answer: a JSON result, or a structured error."""

    def __init__(
        self,
        request_id: str,
        ok: bool,
        result: Optional[Dict[str, Any]] = None,
        error_type: str = "",
        error_message: str = "",
    ) -> None:
        self.request_id = request_id
        self.ok = ok
        self.result: Dict[str, Any] = dict(result or {})
        self.error_type = error_type
        self.error_message = error_message

    @classmethod
    def success(cls, request: ControlRequest,
                result: Optional[Dict[str, Any]]) -> "ControlResponse":
        return cls(request.request_id, ok=True, result=result)

    @classmethod
    def failure(cls, request_id: str, error_type: str,
                error_message: str) -> "ControlResponse":
        return cls(request_id, ok=False, error_type=error_type,
                   error_message=error_message)

    def to_json(self) -> str:
        return _encode(
            {
                "wire_version": CONTROL_WIRE_VERSION,
                "request_id": self.request_id,
                "ok": self.ok,
                "result": self.result,
                "error_type": self.error_type,
                "error_message": self.error_message,
            },
            "control response",
        )

    @classmethod
    def from_json(cls, payload: str) -> "ControlResponse":
        data = _decode(payload)
        return cls(
            request_id=data["request_id"],
            ok=data["ok"],
            result=data.get("result"),
            error_type=data.get("error_type", ""),
            error_message=data.get("error_message", ""),
        )

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"error:{self.error_type}"
        return f"<ControlResponse {self.request_id} {state}>"
