"""Golden tests for the wire formats.

The data-plane message JSON and the control-plane envelope JSON are the
two contracts every process boundary depends on: these tests pin the
exact serialized shape, so an accidental field rename/retype shows up as
a diff here instead of as silent corruption between shards. On purpose,
expectations are written as literal dicts, not round trips through the
code being tested.
"""

from __future__ import annotations

import json

import pytest

from repro.broker.message import WIRE_VERSION, Message
from repro.errors import BrokerError, TransportError
from repro.runtime.transport import (
    CONTROL_WIRE_VERSION,
    ControlRequest,
    ControlResponse,
)


def make_message(**overrides):
    defaults = dict(
        app="pub",
        operations=[{
            "operation": "update",
            "types": ["User"],
            "id": 7,
            "attributes": {"name": "ada", "score": 3},
        }],
        dependencies={"pub/users/7": 4},
        published_at=123.5,
        generation=2,
        uid="pub:41",
    )
    defaults.update(overrides)
    return Message(**defaults)


class TestMessageGolden:
    def test_plain_message_exact_payload(self):
        payload = json.loads(make_message().to_json())
        assert payload == {
            "wire_version": 4,
            "uid": "pub:41",
            "app": "pub",
            "operations": [{
                "operation": "update",
                "types": ["User"],
                "id": 7,
                "attributes": {"name": "ada", "score": 3},
            }],
            "dependencies": {"pub/users/7": 4},
            "external_dependencies": {},
            "published_at": 123.5,
            "generation": 2,
        }

    def test_flags_and_external_deps_serialize(self):
        # v4: the ``bootstrap``/``repair`` flags are gone from the body.
        payload = json.loads(make_message(
            external_dependencies={"other/posts/1": 9},
        ).to_json())
        assert "bootstrap" not in payload and "repair" not in payload
        assert payload["external_dependencies"] == {"other/posts/1": 9}

    def test_coalesce_metadata_exact_payload(self):
        message = make_message(increments={"pub/users/7": 3})
        payload = json.loads(message.to_json())
        # Absent on plain messages: the key is conditional, not null.
        plain = json.loads(make_message().to_json())
        assert "increments" not in plain
        # A merge carries its summed bumps and nothing else: no history
        # of the uids it absorbed.
        assert payload == {**plain, "increments": {"pub/users/7": 3}}

    def test_round_trip_preserves_everything(self):
        message = make_message(
            external_dependencies={"other/posts/1": 9},
            increments={"pub/users/7": 2},
        )
        # An older body also names the uids its merges absorbed: it
        # loads unchanged, the list ignored.
        older = json.loads(message.to_json())
        older["coalesced_uids"] = ["pub:39"]
        back = Message.from_json(json.dumps(older))
        assert back.uid == message.uid
        assert back.app == message.app
        assert back.operations == message.operations
        assert back.dependencies == message.dependencies
        assert back.external_dependencies == message.external_dependencies
        assert back.published_at == message.published_at
        assert back.generation == message.generation
        assert back.counter_increments() == {"pub/users/7": 2}
        assert back.to_wire() == message.to_wire()

    def test_newer_wire_version_is_refused(self):
        data = json.loads(make_message().to_json())
        data["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(BrokerError, match="wire_version"):
            Message.from_json(json.dumps(data))

    def test_versionless_legacy_payload_still_parses(self):
        data = json.loads(make_message().to_json())
        del data["wire_version"]
        assert Message.from_json(json.dumps(data)).uid == "pub:41"

    def test_older_payloads_still_parse(self):
        # Receivers refuse only *newer* versions: a v1 sender (pre
        # trace-context shards), v2 sender (pre CDC front-end) or v3
        # sender (pre flag removal) must interoperate with a v4 receiver.
        for version in (1, 2, 3):
            data = json.loads(make_message().to_json())
            data["wire_version"] = version
            data.update(bootstrap=False, repair=False)
            back = Message.from_json(json.dumps(data))
            assert back.uid == "pub:41"
            assert not hasattr(back, "repair") and not hasattr(back, "bootstrap")

    def test_v3_repair_message_is_refused(self):
        # A v3 WAL or peer may still hold a repair message; applied as
        # an ordered message it would count the wrong counters.
        data = json.loads(make_message().to_json())
        data.update(wire_version=3, bootstrap=False, repair=True)
        with pytest.raises(BrokerError, match="repair message"):
            Message.from_json(json.dumps(data))

    def test_cdc_field_is_conditional(self):
        # v3: CDC-ingested messages carry the outbox sequence; ORM-path
        # messages stay byte-identical to v2 modulo the version field.
        payload = json.loads(make_message(cdc=17).to_json())
        assert payload["cdc"] == 17
        back = Message.from_json(make_message(cdc=17).to_json())
        assert back.cdc == 17
        plain = json.loads(make_message().to_json())
        assert "cdc" not in plain
        assert Message.from_json(make_message().to_json()).cdc is None


class TestControlEnvelopeGolden:
    def test_request_exact_payload(self):
        request = ControlRequest(
            service="social0",
            op="model_digest",
            params={"model": "Post", "fields": ["title"]},
            request_id="cp-9",
        )
        assert json.loads(request.to_json()) == {
            "wire_version": 2,
            "request_id": "cp-9",
            "service": "social0",
            "op": "model_digest",
            "params": {"model": "Post", "fields": ["title"]},
        }

    def test_request_trace_context_is_conditional(self):
        # v2: a sampled caller attaches a trace context; plain requests
        # stay byte-identical to v1 modulo the version field.
        traced = ControlRequest(
            service="social0",
            op="ping",
            request_id="cp-10",
            trace={"trace_id": "pub:41", "sampled": True,
                   "parent": "broker.route", "origin": "shard0"},
        )
        payload = json.loads(traced.to_json())
        assert payload["trace"] == {
            "trace_id": "pub:41", "sampled": True,
            "parent": "broker.route", "origin": "shard0",
        }
        back = ControlRequest.from_json(traced.to_json())
        assert back.trace == payload["trace"]
        plain = ControlRequest("social0", "ping", request_id="cp-11")
        assert "trace" not in json.loads(plain.to_json())
        assert ControlRequest.from_json(plain.to_json()).trace is None

    def test_response_exact_payloads(self):
        ok = ControlResponse("cp-9", ok=True, result={"found": True})
        assert json.loads(ok.to_json()) == {
            "wire_version": 2,
            "request_id": "cp-9",
            "ok": True,
            "result": {"found": True},
            "error_type": "",
            "error_message": "",
        }
        err = ControlResponse.failure("cp-9", "UnknownService", "no go")
        assert json.loads(err.to_json()) == {
            "wire_version": 2,
            "request_id": "cp-9",
            "ok": False,
            "result": {},
            "error_type": "UnknownService",
            "error_message": "no go",
        }

    def test_newer_envelope_version_is_refused(self):
        data = json.loads(ControlRequest("s", "ping").to_json())
        data["wire_version"] = CONTROL_WIRE_VERSION + 1
        with pytest.raises(TransportError, match="wire_version"):
            ControlRequest.from_json(json.dumps(data))
        data = json.loads(ControlResponse("cp-1", ok=True).to_json())
        data["wire_version"] = CONTROL_WIRE_VERSION + 1
        with pytest.raises(TransportError, match="wire_version"):
            ControlResponse.from_json(json.dumps(data))

    @pytest.mark.parametrize("version", [None, 1])
    def test_missing_or_older_envelope_version_is_refused(self, version):
        # Envelopes never reach a disk and every process runs one tree:
        # there is no older peer to accept, only a misread to avoid.
        for envelope in (ControlRequest("s", "ping"),
                         ControlResponse("cp-1", ok=True)):
            data = json.loads(envelope.to_json())
            if version is None:
                del data["wire_version"]
            else:
                data["wire_version"] = version
            with pytest.raises(TransportError, match="wire_version"):
                type(envelope).from_json(json.dumps(data))
