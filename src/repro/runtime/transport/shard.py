"""The process-sharded runtime: services placed into worker processes.

Synapse's deployment story (§2, §5) is many independent OS processes
coupled *only* by the message fabric. :class:`ShardRunner` reproduces
that shape inside one host: every shard is a worker process hosting a
subset of the ecosystem's services, and the two sanctioned seams are the
only things that cross the boundary —

- data plane: the broker forwards wire payloads for queues owned by
  other shards (:meth:`~repro.broker.broker.Broker.attach` /
  :meth:`~repro.broker.broker.Broker.deliver_remote`);
- control plane: each shard answers its peers' control requests over a
  :class:`~repro.runtime.transport.process.ProcessTransport`.

Every shard builds the *same* ecosystem from a shared builder function
(declarations are code, so each process can rebuild the full topology),
then narrows ``ecosystem.owned_services`` to its own placement. Nothing
else is shared: no sockets to a common interpreter, no shared memory —
the shards are real processes with their own GIL, which is the point.

Each worker also installs a
:class:`~repro.runtime.monitor.cluster.ClusterPlane`: the shard's name
is stamped on every span it records, a ``_shard:<name>`` pseudo-service
answers cluster federation ops (metrics/health/trace/flight-dump), and
— when ``incident_dir`` is set — anomaly dumps are broadcast so every
shard freezes its matching window into one incident directory. The
parent can reach the federation through :meth:`ShardRunner.
cluster_request`, which relays one op through the first shard.

The builder, scenario and verify callables must be module-level
functions (the spawn start method pickles them by reference).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TransportError, TransportTimeout
from repro.runtime.monitor.cluster import (
    ClusterPlane,
    QUIESCENT_POLLS,
    cluster_quiesce,
    shard_service,
)
from repro.runtime.tracing import set_process_shard
from repro.runtime.transport.process import (
    PeerLink,
    ProcessTransport,
    make_dispatcher,
)

__all__ = [
    "QUIESCENT_POLLS",
    "ShardRunner",
]


def _shard_main(
    shard_name: str,
    builder: Callable[[], Any],
    placement: Dict[str, List[str]],
    scenario: Optional[Callable[[Any, str], Dict[str, Any]]],
    verify: Optional[Callable[[Any, str], Dict[str, Any]]],
    command_conn: Any,
    peer_conns: Dict[str, Any],
    durability_dir: Optional[str] = None,
    incident_dir: Optional[str] = None,
    foreign: Tuple[Any, ...] = (),
) -> None:
    """Worker-process entry point: build, wire the seams, serve commands.
    ``foreign`` are the other shards' pipe ends a fork inherited: closed
    first, so a dead peer's link reads EOF instead of waiting out its
    timeouts."""
    for conn in foreign:
        conn.close()
    try:
        set_process_shard(shard_name)
        ecosystem = builder()
        owned = set(placement[shard_name])
        ecosystem.owned_services = owned
        owner_of = {
            service_name: shard
            for shard, services in placement.items()
            for service_name in services
        }

        # The cluster observability plane is installed (handler first)
        # before any peer link starts: a fast peer may send a cluster op
        # the moment its end of the pipe is live.
        links: Dict[str, PeerLink] = {}
        cluster = ClusterPlane(
            ecosystem,
            shard_name,
            peers=tuple(peer_conns),
            links=links,
            incident_root=(
                os.path.join(incident_dir, "incidents")
                if incident_dir is not None else None
            ),
        ).install()
        if incident_dir is not None and ecosystem.recorder.dump_dir is None:
            # Arm per-shard auto-dumps too (enable_durability respects an
            # already-set dump_dir, so ordering here is safe either way).
            ecosystem.recorder.dump_dir = os.path.join(incident_dir, shard_name)

        for peer, conn in peer_conns.items():
            links[peer] = PeerLink(
                conn,
                dispatch=make_dispatcher(ecosystem.control),
                data_sink=ecosystem.broker.deliver_remote,
                recorder=ecosystem.recorder,
                name=f"{shard_name}->{peer}",
            ).start()
        for service_name, owner in owner_of.items():
            if owner != shard_name and owner in links:
                ecosystem.control.add_route(
                    service_name, ProcessTransport(links[owner])
                )
        for peer in links:
            ecosystem.control.add_route(
                shard_service(peer), ProcessTransport(links[peer])
            )
        ecosystem.broker.attach(placement=(
            lambda sub: owner_of.get(sub, shard_name) == shard_name,
            lambda sub, payload: links[owner_of[sub]].send_data(sub, payload),
        ))
        # Durability: each shard logs to its own WAL directory (the
        # crash unit is the process), and restores whatever a previous
        # incarnation of this shard left behind before accepting work.
        restored: Optional[Dict[str, Any]] = None
        if durability_dir is not None:
            shard_dir = os.path.join(durability_dir, shard_name)
            report = ecosystem.enable_durability(data_dir=shard_dir).restore()
            restored = {
                "snapshot_id": report.snapshot_id,
                "replayed": report.replayed,
                "requeued": report.requeued,
                "applied": report.applied,
                "unrecoverable": report.unrecoverable,
            }
    except Exception as exc:  # startup failure: report, don't hang the parent
        command_conn.send(("error", f"{type(exc).__name__}: {exc}"))
        return

    command_conn.send(("ready", shard_name))
    try:
        while True:
            frame = command_conn.recv()
            kind = frame[0]
            if kind == "run":
                result = scenario(ecosystem, shard_name) if scenario else {}
                ecosystem.drain_all()
                command_conn.send(("scenario_done", result))
            elif kind == "quiesce":
                # Mesh-wide quiescence driven from inside this shard:
                # peers drain as part of answering snapshot ops.
                quiesce_timeout = frame[1] if len(frame) > 1 else 30.0
                try:
                    polls = cluster_quiesce(ecosystem, timeout=quiesce_timeout)
                    command_conn.send(
                        ("quiesced", {"quiesced": True, "polls": polls})
                    )
                except TransportTimeout:
                    command_conn.send(
                        ("quiesced", {"quiesced": False, "polls": -1})
                    )
            elif kind == "cluster":
                # A federated observability op relayed for the parent
                # CLI; failures answer structured, the shard stays up.
                op, params = frame[1], frame[2] if len(frame) > 2 else {}
                try:
                    result = cluster.serve(op, params)
                except Exception as exc:
                    result = {"error": f"{type(exc).__name__}: {exc}"}
                command_conn.send(("cluster_result", result))
            elif kind == "verify":
                result = verify(ecosystem, shard_name) if verify else {}
                command_conn.send(("verified", result))
            elif kind == "finish":
                ecosystem.drain_all()
                # Clean shutdown: checkpoint so the next incarnation
                # restores from a snapshot instead of a full replay.
                ecosystem.durability.snapshot()
                ecosystem.durability.close()
                command_conn.send(("result", {
                    "shard": shard_name,
                    "owned": sorted(owned),
                    "routed": ecosystem.metrics.value("broker.routed"),
                    "dropped": ecosystem.metrics.value("broker.dropped"),
                    "forwarded": sum(l.data_sent for l in links.values()),
                    "delivered": sum(l.data_received for l in links.values()),
                    "anomalies": len(ecosystem.recorder.anomalies()),
                    "restored": restored,
                }))
                break
            else:
                command_conn.send(("error", f"unknown command {kind!r}"))
                break
    except (EOFError, OSError):
        pass  # parent went away; nothing left to answer
    except Exception as exc:
        try:
            command_conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        for link in links.values():
            link.close()


class ShardRunner:
    """Place an ecosystem's services into worker processes and drive a
    scenario across them.

    ``placement`` maps shard name -> the service names it owns; every
    service of the built ecosystem must appear in exactly one shard.
    ``scenario(ecosystem, shard_name)`` runs concurrently on every shard
    (the per-shard workload); ``verify(ecosystem, shard_name)`` runs
    after the mesh quiesces (cross-shard audits ride the control plane).
    Both return JSON-ish dicts that :meth:`run` collects per shard.

    :meth:`run` drives the whole lifecycle in one call; the phase
    methods (:meth:`start`, :meth:`run_scenarios`, :meth:`quiesce`,
    :meth:`run_verify`, :meth:`finish`, :meth:`close`) are also public
    so interactive drivers — ``watch --cluster`` rounds, the ``trace``
    CLI — can interleave workload rounds with federation pulls.
    """

    def __init__(
        self,
        builder: Callable[[], Any],
        placement: Dict[str, List[str]],
        scenario: Optional[Callable[[Any, str], Dict[str, Any]]] = None,
        verify: Optional[Callable[[Any, str], Dict[str, Any]]] = None,
        timeout: float = 60.0,
        durability_dir: Optional[str] = None,
        incident_dir: Optional[str] = None,
    ) -> None:
        if len(placement) < 1:
            raise ValueError("placement needs at least one shard")
        self.builder = builder
        self.placement = {name: list(services)
                          for name, services in placement.items()}
        self.scenario = scenario
        self.verify = verify
        self.timeout = timeout
        #: When set, each shard WALs to ``<durability_dir>/<shard>/`` and
        #: restores from it on startup (docs/durability.md).
        self.durability_dir = durability_dir
        #: When set, each shard arms flight-recorder auto-dumps under
        #: ``<incident_dir>/<shard>/`` and correlated incident dumps
        #: under ``<incident_dir>/incidents/<incident-id>/``.
        self.incident_dir = incident_dir
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._ctx = multiprocessing.get_context("spawn")
        self.shards: List[str] = sorted(self.placement)
        self._command: Dict[str, Any] = {}
        self._processes: Dict[str, Any] = {}
        self._started = False

    # -- parent-side protocol ------------------------------------------------

    def _recv(self, conn: Any, shard: str, expected: str,
              timeout: Optional[float] = None) -> Any:
        if not conn.poll(timeout if timeout is not None else self.timeout):
            raise TransportTimeout(
                f"shard {shard!r} sent no {expected!r} within "
                f"{self.timeout:.0f}s"
            )
        try:
            frame = conn.recv()
        except EOFError as exc:
            raise TransportError(f"shard {shard!r} died") from exc
        if frame[0] == "error":
            raise TransportError(f"shard {shard!r} failed: {frame[1]}")
        if frame[0] != expected:
            raise TransportError(
                f"shard {shard!r} answered {frame[0]!r}, expected {expected!r}"
            )
        return frame[1] if len(frame) > 1 else None

    # -- lifecycle phases ----------------------------------------------------

    def start(self) -> None:
        """Spawn every shard process, wire the pipe mesh, await ready."""
        if self._started:
            raise TransportError("ShardRunner already started")
        shards = self.shards
        # Full mesh of pair pipes plus one command pipe per shard.
        peer_conns: Dict[str, Dict[str, Any]] = {name: {} for name in shards}
        for i, a in enumerate(shards):
            for b in shards[i + 1:]:
                end_a, end_b = self._ctx.Pipe()
                peer_conns[a][b] = end_a
                peer_conns[b][a] = end_b
        mesh = [end for ends in peer_conns.values() for end in ends.values()]
        forked = self._ctx.get_start_method() == "fork"
        for name in shards:
            parent_end, child_end = self._ctx.Pipe()
            self._command[name] = parent_end
            own = list(peer_conns[name].values())
            foreign = tuple(end for end in mesh if forked and end not in own)
            self._processes[name] = self._ctx.Process(
                target=_shard_main,
                name=f"shard-{name}",
                args=(name, self.builder, self.placement, self.scenario,
                      self.verify, child_end, peer_conns[name],
                      self.durability_dir, self.incident_dir, foreign),
            )
        self._started = True
        for name in shards:
            self._processes[name].start()
        # The parent's copies of the pipe ends belong to the children.
        for name in shards:
            for conn in peer_conns[name].values():
                conn.close()
        for name in shards:
            self._recv(self._command[name], name, "ready")

    def run_scenarios(self, shards: Optional[List[str]] = None) -> Dict[str, Any]:
        """Run the scenario concurrently on every shard (or on
        ``shards`` only — a crash phase sequences them); collect
        results."""
        names = self.shards if shards is None else shards
        for name in names:
            self._command[name].send(("run",))
        return {
            name: self._recv(self._command[name], name, "scenario_done")
            for name in names
        }

    def run_to_death(self, shard: str) -> Optional[int]:
        """Run the scenario on one shard that is expected not to survive
        it (a crash phase's victim); returns the process's exit code,
        None if it outlives the timeout."""
        self._command[shard].send(("run",))
        self._processes[shard].join(timeout=self.timeout)
        return self._processes[shard].exitcode

    def quiesce(self, shard: Optional[str] = None) -> int:
        """Drain the whole mesh: delegate to one shard's
        :func:`~repro.runtime.monitor.cluster.cluster_quiesce` (every
        other shard drains while answering its ``snapshot`` ops).
        ``shard`` defaults to the first; a crash phase targets a
        survivor explicitly. Returns the number of polls."""
        target = shard if shard is not None else self.shards[0]
        self._command[target].send(("quiesce", self.timeout))
        result = self._recv(
            self._command[target], target, "quiesced",
            timeout=self.timeout + 10.0,
        )
        if not result["quiesced"]:
            raise TransportTimeout(
                f"shard mesh did not quiesce within {self.timeout:.0f}s"
            )
        return result["polls"]

    def cluster_request(self, op: str, shard: Optional[str] = None,
                        **params: Any) -> Dict[str, Any]:
        """Relay one federated observability op (``snapshot``,
        ``trace_ids``, ``trace_fetch``)
        through ``shard`` (default: the first) and return its answer."""
        target = shard if shard is not None else self.shards[0]
        self._command[target].send(("cluster", op, params))
        result = self._recv(self._command[target], target, "cluster_result")
        if isinstance(result, dict) and "error" in result:
            raise TransportError(
                f"cluster op {op!r} via shard {target!r} failed: "
                f"{result['error']}"
            )
        return result

    def run_verify(self) -> Dict[str, Any]:
        for name in self.shards:
            self._command[name].send(("verify",))
        return {
            name: self._recv(self._command[name], name, "verified")
            for name in self.shards
        }

    def finish(self, shards: Optional[List[str]] = None) -> Dict[str, Any]:
        """Final drain + per-shard stats; shard processes exit after.
        ``shards`` names the ones still alive after a crash phase."""
        names = self.shards if shards is None else shards
        for name in names:
            self._command[name].send(("finish",))
        stats = {
            name: self._recv(self._command[name], name, "result")
            for name in names
        }
        for name in names:
            self._processes[name].join(timeout=self.timeout)
        return stats

    def close(self) -> None:
        """Terminate anything still alive and release the pipes."""
        for process in self._processes.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._command.values():
            conn.close()
        self._command.clear()
        self._processes.clear()

    # -- the one-call lifecycle ----------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Start the shards, run the scenario everywhere, wait for the
        mesh to drain, verify, and collect per-shard results."""
        started = time.monotonic()
        results: Dict[str, Any] = {name: {} for name in self.shards}
        try:
            self.start()
            scenarios = self.run_scenarios()
            polls = self.quiesce()
            verifies = self.run_verify()
            stats = self.finish()
            for name in self.shards:
                results[name]["scenario"] = scenarios[name]
                results[name]["verify"] = verifies[name]
                results[name]["stats"] = stats[name]
        finally:
            self.close()
        return {
            "shards": results,
            "quiesce_polls": polls,
            "elapsed": time.monotonic() - started,
        }
