"""Control-plane transport: the only sanctioned path between services.

Data-plane write messages ride the broker (``repro.broker``); everything
else a cross-service subsystem needs — bootstrap snapshots, replica
digest exchange, repair triggers, generation queries, watermark reads —
rides typed JSON envelopes through the per-ecosystem
:class:`ControlPlane`. Two transports answer them:

- :class:`LoopbackTransport` (default): in-process, but every envelope
  still JSON round-trips, so nothing non-serializable can leak across
  the service boundary;
- :class:`ProcessTransport`: the same envelopes over multiprocessing
  pipes, used by the :class:`ShardRunner` to place services into worker
  processes (docs/architecture.md, "Control plane & process shards").
"""

from repro.runtime.transport.control import (
    ControlPlane,
    LoopbackTransport,
    Transport,
    dispatch_request,
)
from repro.runtime.transport.envelopes import (
    CONTROL_WIRE_VERSION,
    ControlRequest,
    ControlResponse,
)
from repro.runtime.transport.handler import ControlPlaneHandler
from repro.runtime.transport.process import (
    PeerLink,
    ProcessTransport,
    make_dispatcher,
)

__all__ = [
    "CONTROL_WIRE_VERSION",
    "ControlPlane",
    "ControlPlaneHandler",
    "ControlRequest",
    "ControlResponse",
    "LoopbackTransport",
    "PeerLink",
    "ProcessTransport",
    "Transport",
    "dispatch_request",
    "make_dispatcher",
]
