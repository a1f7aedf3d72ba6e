"""Per-service control-plane handler.

Each :class:`~repro.core.api.Service` registers one handler with the
ecosystem's :class:`~repro.runtime.transport.control.ControlPlane`. The
handler is the *only* code allowed to touch the service's Python objects
on behalf of a peer — every cross-service subsystem (bootstrap, audit,
repair, migration, lag monitoring) reaches it through a serialized
:class:`ControlRequest`, never through the ``Service`` object itself.

Every op returns a JSON-serializable dict. Ops that look something up
(`model_dump`, `model_digest`, `model_schema`) answer ``found: False``
instead of erroring when the model has no local replica, mirroring the
pre-seam behaviour of the in-process callers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.errors import ControlPlaneError
from repro.runtime.transport.envelopes import ControlRequest, ControlResponse


class OpTable:
    """Named ops, each ``params dict -> JSON-serializable dict``, and the
    one dispatch over them. ``owner`` says whose ops they are in the
    unknown-op error."""

    def __init__(
        self, owner: str,
        ops: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]],
    ) -> None:
        self.owner = owner
        self._ops = ops

    def _unknown(self, op: str) -> str:
        return f"unknown {self.owner} op {op!r}"

    def call(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Run ``op`` for an in-process caller; its errors propagate."""
        if op not in self._ops:
            raise ControlPlaneError(
                self._unknown(op), error_type="UnknownOperation", op=op
            )
        return self._ops[op](params)

    def handle(self, request: ControlRequest) -> ControlResponse:
        """Run ``request.op`` for a peer: a structured error, never a
        raw traceback."""
        if request.op not in self._ops:
            return ControlResponse.failure(
                request.request_id, "UnknownOperation", self._unknown(request.op)
            )
        try:
            return ControlResponse.success(
                request, self._ops[request.op](request.params)
            )
        except Exception as exc:
            return ControlResponse.failure(
                request.request_id, type(exc).__name__, str(exc)
            )


class ControlPlaneHandler(OpTable):
    """Answers control-plane requests against one local service."""

    def __init__(self, service: Any) -> None:
        self.service = service
        super().__init__(f"service {service.name!r}", {
            "ping": self._op_ping,
            "generation": self._op_generation,
            "watermarks": self._op_watermarks,
            "bootstrap_snapshot": self._op_bootstrap_snapshot,
            "model_dump": self._op_model_dump,
            "model_digest": self._op_model_digest,
            "model_schema": self._op_model_schema,
            "publish_repairs": self._op_publish_repairs,
            "outbox_lag": self._op_outbox_lag,
        })

    # -- ops -----------------------------------------------------------------

    def _op_ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"service": self.service.name, "pong": True}

    def _op_generation(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"generation": self.service.current_generation()}

    def _op_watermarks(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Publisher version-store snapshot: hashed_dep -> ops counter."""
        return {"versions": self.service.publisher_version_store.snapshot()}

    def _op_outbox_lag(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Unpublished CDC outbox entries on this publisher. The auditor
        folds this into in-transit lag: a committed raw write whose entry
        the poller has not tailed yet is late, not lost (docs/cdc.md)."""
        cdc = getattr(self.service.ecosystem, "cdc", None)
        pending = (
            cdc.outbox_pending(self.service.name) if cdc is not None else 0
        )
        return {"pending": pending}

    def _op_bootstrap_snapshot(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Bootstrap step 1 payload: counters plus the generation the
        subscriber must adopt (§4.4)."""
        return {
            "versions": self.service.publisher_version_store.snapshot(),
            "generation": self.service.current_generation(),
        }

    def _op_model_dump(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Bootstrap step 2 payload: every row of one published model,
        marshaled exactly as a publish would marshal it."""
        from repro.core.marshal import marshal_operation

        service = self.service
        model_cls = service.registry.get(params["model"])
        if model_cls is None or model_cls.__mapper__ is None:
            return {"found": False, "operations": [], "ids": []}
        fields = service.published_fields_for(model_cls)
        if fields is None or model_cls.__mapper__.db is None:
            return {"found": False, "operations": [], "ids": []}
        rows = model_cls.__mapper__._do_where({}, None, None)
        operations = [
            marshal_operation("update", model_cls, row, fields) for row in rows
        ]
        return {
            "found": True,
            "operations": operations,
            "ids": [row["id"] for row in rows],
        }

    def _op_model_digest(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Merkle digest of the authoritative replica of one model."""
        from repro.repair.digest import DEFAULT_LEAVES, publisher_model_digest

        digest = publisher_model_digest(
            self.service,
            params["model"],
            remote_fields=params.get("fields"),
            leaves=params.get("leaves", DEFAULT_LEAVES),
        )
        if digest is None:
            return {"found": False, "digest": None}
        return {"found": True, "digest": digest.to_dict()}

    def _op_model_schema(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Field -> python type name of one local model (replication-based
        migration uses it to shape the clone's fields, §6.5)."""
        model_cls = self.service.registry.get(params["model"])
        if model_cls is None:
            return {"found": False, "fields": {}}
        fields: Dict[str, Any] = {}
        for name, field in model_cls._fields.items():
            py_type = getattr(field, "py_type", None)
            fields[name] = getattr(py_type, "__name__", None)
        return {"found": True, "fields": fields}

    def _op_publish_repairs(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Repair trigger: re-publish the named divergent objects through
        this publisher's ordinary pipeline, flagged ``repair=True``."""
        from repro.repair.repairer import REPAIR_BATCH_SIZE, publish_repairs

        return publish_repairs(
            self.service,
            params["model"],
            params["ids"],
            batch_size=params.get("batch_size", REPAIR_BATCH_SIZE),
        )
