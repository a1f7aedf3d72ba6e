"""Control-plane transport: loopback seam semantics and the structured
fault paths of the process transport (timeouts and dead peers must be
errors plus flight-recorder evidence, never hangs)."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.apps import build_replicated_pair
from repro.errors import (
    ControlPlaneError,
    TransportError,
    TransportSerializationError,
    TransportTimeout,
    WALWriteFailed,
)
from repro.repair.digest import ModelDigest, publisher_model_digest
from repro.runtime.monitor.recorder import FlightRecorder
from repro.runtime.transport import (
    ControlRequest,
    PeerLink,
    ProcessTransport,
    make_dispatcher,
)


@pytest.fixture
def eco():
    eco, pub, sub, User = build_replicated_pair(
        fields={"name": str, "score": int}, model="User"
    )
    with pub.controller():
        for i in range(4):
            User.create(name=f"user-{i}", score=i)
    sub.subscriber.drain()
    return eco


class TestLoopbackSeam:
    def test_typed_helpers_answer_over_json(self, eco):
        control = eco.control
        watermarks = control.watermarks("pub")
        assert watermarks is not None and len(watermarks) == 4
        assert all(v >= 1 for v in watermarks.values())
        dump = control.model_dump("pub", "User")
        assert dump["found"] and len(dump["ids"]) == 4
        schema = control.model_schema("pub", "User")
        assert schema == {"id": "int", "name": "str", "score": "int"}

    def test_unknown_service_is_soft_none_or_error(self, eco):
        assert eco.control.watermarks("ghost") is None
        assert eco.control.model_digest("ghost", "User") is None
        with pytest.raises(ControlPlaneError) as excinfo:
            eco.control.request("ghost", "watermarks")
        assert excinfo.value.error_type == "UnknownService"

    def test_unknown_op_is_structured_error(self, eco):
        with pytest.raises(ControlPlaneError) as excinfo:
            eco.control.request("pub", "steal_the_heap")
        assert excinfo.value.error_type == "UnknownOperation"

    def test_non_serializable_params_rejected_before_the_wire(self, eco):
        with pytest.raises(TransportSerializationError):
            eco.control.request("pub", "watermarks", payload=object())

    def test_digest_round_trips_through_wire_form(self, eco):
        local = publisher_model_digest(
            eco.local_service("pub"), "User", ["name", "score"]
        )
        remote = eco.control.model_digest(
            "pub", "User", remote_fields=["name", "score"]
        )
        assert isinstance(remote, ModelDigest)
        assert remote.objects == local.objects
        rebuilt = ModelDigest.from_dict(remote.to_dict())
        assert rebuilt.objects == local.objects
        assert rebuilt.divergent_ids(local) == []


def _echo_dispatch(request_json: str) -> str:
    from repro.runtime.transport import ControlResponse

    request = ControlRequest.from_json(request_json)
    return ControlResponse.success(request, {"echo": request.op}).to_json()


def _link_pair(dispatch_b=_echo_dispatch, recorder=None, data_sink=None):
    conn_a, conn_b = multiprocessing.Pipe()
    link_a = PeerLink(conn_a, dispatch=_echo_dispatch, data_sink=data_sink,
                      recorder=recorder, name="a->b").start()
    link_b = PeerLink(conn_b, dispatch=dispatch_b, name="b->a").start()
    return link_a, link_b


class TestProcessTransportFaults:
    def test_request_response_over_a_real_pipe(self):
        link_a, link_b = _link_pair()
        try:
            transport = ProcessTransport(link_a)
            response = transport.request(ControlRequest("svc", "ping"))
            assert response.ok and response.result == {"echo": "ping"}
        finally:
            link_a.close()
            link_b.close()

    def test_timeout_is_structured_and_recorded(self):
        recorder = FlightRecorder()
        never = threading.Event()

        def stuck_dispatch(request_json: str) -> str:
            never.wait(5.0)  # peer wedged: no reply within the deadline
            return _echo_dispatch(request_json)

        link_a, link_b = _link_pair(dispatch_b=stuck_dispatch,
                                    recorder=recorder)
        try:
            with pytest.raises(TransportTimeout, match="timed out"):
                link_a.request(ControlRequest("svc", "ping"), timeout=0.1)
            kinds = [e.kind for e in recorder.anomalies()]
            assert "transport.timeout" in kinds
        finally:
            never.set()
            link_a.close()
            link_b.close()

    def test_dead_peer_is_structured_and_recorded(self):
        recorder = FlightRecorder()
        link_a, link_b = _link_pair(recorder=recorder)
        link_b.close()
        link_a.dead.wait(5.0)
        try:
            with pytest.raises(TransportError, match="dead"):
                link_a.request(ControlRequest("svc", "ping"), timeout=1.0)
            kinds = [e.kind for e in recorder.anomalies()]
            assert "transport.peer_dead" in kinds
        finally:
            link_a.close()

    def test_peer_death_mid_request_wakes_the_requester(self):
        recorder = FlightRecorder()
        hold = threading.Event()

        def stuck_dispatch(request_json: str) -> str:
            hold.wait(5.0)
            return _echo_dispatch(request_json)

        link_a, link_b = _link_pair(dispatch_b=stuck_dispatch,
                                    recorder=recorder)
        errors = []

        def requester():
            try:
                link_a.request(ControlRequest("svc", "ping"), timeout=5.0)
            except TransportError as exc:  # includes TransportTimeout
                errors.append(exc)

        thread = threading.Thread(target=requester)
        thread.start()
        time.sleep(0.05)  # let the request get onto the wire
        link_a._mark_dead()
        thread.join(timeout=5.0)
        hold.set()
        link_b.close()
        link_a.close()
        assert not thread.is_alive(), "requester hung on a dead link"
        assert errors and not isinstance(errors[0], TransportTimeout)

    def test_a_failing_data_sink_kills_the_link_loudly(self):
        """A payload the receiving shard cannot enqueue (a WAL write
        failure there, say) ends the reader: the link is dead and says
        why, and the next request fails at once instead of waiting out
        its deadline with nobody left to read the reply."""
        recorder = FlightRecorder()

        def full_disk(subscriber_app: str, payload: str) -> None:
            raise WALWriteFailed("WAL segment 1 write failed (ENOSPC)")

        link_a, link_b = _link_pair(recorder=recorder, data_sink=full_disk)
        try:
            link_b.send_data("sub", "{}")
            assert link_a.dead.wait(5.0), "reader died without marking the link"
            start = time.monotonic()
            with pytest.raises(TransportError) as excinfo:
                link_a.request(ControlRequest("svc", "ping"), timeout=5.0)
            assert not isinstance(excinfo.value, TransportTimeout)
            assert time.monotonic() - start < 1.0
            failed = recorder.events("transport.reader_failed")
            assert len(failed) == 1
            assert failed[0].data["link"] == "a->b"
            assert "WALWriteFailed" in failed[0].data["error"]
        finally:
            link_a.close()
            link_b.close()

    def test_dispatcher_survives_garbage_frames(self, eco):
        dispatch = make_dispatcher(eco.control)
        from repro.runtime.transport import ControlResponse

        response = ControlResponse.from_json(dispatch("this is not json"))
        assert not response.ok
        response = ControlResponse.from_json(
            dispatch(ControlRequest("ghost", "ping").to_json())
        )
        assert not response.ok and response.error_type == "UnknownService"
