"""The ControlPlane: routing of control requests + the typed client API.

One ``ControlPlane`` per ecosystem (``eco.control``). Services register a
:class:`ControlPlaneHandler` at creation; cross-service subsystems issue
requests through the typed helpers below and never touch the peer's
``Service`` object. Requests to a locally-hosted service go through the
:class:`LoopbackTransport`, which still JSON round-trips every envelope —
the in-process fast path offers exactly the same (and only the same)
information a process boundary would. In a sharded run the
:class:`~repro.runtime.transport.shard.ShardRunner` adds a
:class:`~repro.runtime.transport.process.ProcessTransport` route per
remote service and the same call sites transparently cross processes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ControlPlaneError
from repro.runtime.tracing import current_trace, process_shard
from repro.runtime.transport.envelopes import ControlRequest, ControlResponse
from repro.runtime.transport.handler import ControlPlaneHandler

#: Error codes a typed helper may translate into a soft ``None`` result.
UNKNOWN_SERVICE = "UnknownService"


def dispatch_request(
    handlers: Dict[str, ControlPlaneHandler], request: ControlRequest
) -> ControlResponse:
    """Route one deserialized request to its service handler.

    Shared by the loopback transport and the process-shard pipe server so
    both boundaries answer identically.
    """
    handler = handlers.get(request.service)
    if handler is None:
        return ControlResponse.failure(
            request.request_id,
            UNKNOWN_SERVICE,
            f"no service {request.service!r} behind this control plane",
        )
    return handler.handle(request)


class Transport:
    """Carries one serialized request to a peer and returns its response."""

    def request(self, envelope: ControlRequest,
                timeout: Optional[float] = None) -> ControlResponse:
        raise NotImplementedError


class LoopbackTransport(Transport):
    """In-process transport that still pays the wire format.

    Every request and response is serialized to JSON and parsed back, so
    non-serializable state can never leak between co-hosted services —
    code that works over loopback works unchanged over a process pipe.
    """

    def __init__(self, handlers: Dict[str, ControlPlaneHandler]) -> None:
        self._handlers = handlers

    def request(self, envelope: ControlRequest,
                timeout: Optional[float] = None) -> ControlResponse:
        received = ControlRequest.from_json(envelope.to_json())
        response = dispatch_request(self._handlers, received)
        return ControlResponse.from_json(response.to_json())


class ControlPlane:
    """Per-ecosystem control-plane router and typed client."""

    def __init__(self, ecosystem: Any = None,
                 default_timeout: float = 10.0) -> None:
        self.ecosystem = ecosystem
        self.default_timeout = default_timeout
        self._handlers: Dict[str, ControlPlaneHandler] = {}
        self._routes: Dict[str, Transport] = {}
        self._loopback = LoopbackTransport(self._handlers)

    # -- wiring --------------------------------------------------------------

    def register_service(self, service: Any) -> ControlPlaneHandler:
        handler = ControlPlaneHandler(service)
        self.register_handler(service.name, handler)
        return handler

    def register_handler(self, name: str, handler: Any) -> None:
        """Register a non-service handler (anything with a ``handle``
        method taking a :class:`ControlRequest`) under ``name`` — the
        cluster observability plane registers per-shard pseudo-services
        (``_shard:<name>``) this way."""
        self._handlers[name] = handler

    def add_route(self, service_name: str, transport: Transport) -> None:
        """Answer requests for ``service_name`` via ``transport`` instead
        of a local handler (the service lives in another process)."""
        self._routes[service_name] = transport

    def known(self, service_name: str) -> bool:
        """Whether this control plane can reach ``service_name`` at all."""
        return service_name in self._routes or service_name in self._handlers

    def handlers(self) -> Dict[str, ControlPlaneHandler]:
        """The local handler table (the pipe server dispatches into it)."""
        return self._handlers

    # -- the raw request primitive -------------------------------------------

    def request(self, service_name: str, op: str,
                timeout: Optional[float] = None, **params: Any) -> Dict[str, Any]:
        envelope = ControlRequest(service=service_name, op=op, params=params)
        active = current_trace()
        if active is not None and getattr(active, "trace_id", None):
            # Control work done on behalf of a sampled message joins its
            # trace: the serving side records a ``control.<op>`` span
            # under the same trace_id (cross-shard trace assembly).
            envelope.trace = {
                "trace_id": active.trace_id,
                "sampled": True,
                "parent": active.spans[-1].stage if active.spans else "",
                "origin": process_shard(),
            }
        transport = self._routes.get(service_name, self._loopback)
        response = transport.request(
            envelope, timeout if timeout is not None else self.default_timeout
        )
        if not response.ok:
            raise ControlPlaneError(
                f"control request {op!r} to {service_name!r} failed: "
                f"[{response.error_type}] {response.error_message}",
                error_type=response.error_type,
                service=service_name,
                op=op,
            )
        return response.result

    def _request_or_none(self, service_name: str, op: str,
                         **params: Any) -> Optional[Dict[str, Any]]:
        """Soft variant: an unknown service answers ``None`` (the pre-seam
        callers tolerated a missing publisher by skipping the work)."""
        try:
            return self.request(service_name, op, **params)
        except ControlPlaneError as exc:
            if exc.error_type == UNKNOWN_SERVICE:
                return None
            raise

    # -- typed client helpers -------------------------------------------------

    def watermarks(self, service_name: str) -> Optional[Dict[str, int]]:
        """Publisher version-store snapshot, or None if unreachable."""
        result = self._request_or_none(service_name, "watermarks")
        return None if result is None else result["versions"]

    def outbox_lag(self, service_name: str) -> int:
        """Unpublished CDC outbox entries on the publisher (0 when the
        peer is unreachable, predates the op, or has no outbox)."""
        try:
            result = self._request_or_none(service_name, "outbox_lag")
        except ControlPlaneError:
            return 0
        return int(result["pending"]) if result else 0

    def bootstrap_snapshot(
        self, service_name: str, deps: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """{"versions": {...}, "generation": n} — bootstrap step 1
        (§4.4): every counter, or with ``deps`` those the publisher
        holds."""
        return self.request(service_name, "bootstrap_snapshot", deps=deps)

    def model_dump(
        self, service_name: str, model_name: str,
        ids: Optional[List[Any]] = None,
    ) -> Dict[str, Any]:
        """{"found", "operations", "ids"} — bootstrap step 2: every row
        of the model, or with ``ids`` those rows only (a delete for one
        the publisher no longer holds). Counters come from step 1."""
        return self.request(service_name, "model_dump", model=model_name, ids=ids)

    def model_digest(
        self,
        service_name: str,
        model_name: str,
        remote_fields: Optional[List[str]] = None,
    ) -> Optional[Any]:
        """The publisher's :class:`~repro.repair.digest.ModelDigest` of one
        model (rebuilt from its wire form), or None when there is nothing
        to digest on that side."""
        from repro.repair.digest import ModelDigest

        result = self._request_or_none(
            service_name, "model_digest", model=model_name, fields=remote_fields,
        )
        if result is None or not result.get("found"):
            return None
        return ModelDigest.from_dict(result["digest"])

    def model_schema(self, service_name: str,
                     model_name: str) -> Optional[Dict[str, Optional[str]]]:
        """Field -> python type *name* of a peer model, or None."""
        result = self._request_or_none(
            service_name, "model_schema", model=model_name
        )
        if result is None or not result.get("found"):
            return None
        return result["fields"]

