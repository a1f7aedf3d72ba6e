"""Coverage for the smaller core modules: delivery, dependencies,
marshal, tools, clock, fault plans."""

import pytest

from repro.apps import build_replicated_pair
from repro.clock import Clock, VirtualClock
from repro.core import Ecosystem
from repro.core.delivery import (
    CAUSAL,
    GLOBAL,
    GLOBAL_OBJECT,
    WEAK,
    check_subscription_mode,
    effective_dependencies,
    rank,
    validate_mode,
)
from repro.core.dependencies import ControllerContext, dep_name
from repro.core.marshal import marshal_attributes, marshal_operation
from repro.core.tools import describe_ecosystem, to_dot
from repro.databases.base import FaultPlan
from repro.databases.document import MongoLike
from repro.errors import DeliveryModeError, FaultInjected
from repro.orm import Field, Model, VirtualField, bind_model


class TestDeliveryModes:
    def test_ranks(self):
        assert rank(WEAK) < rank(CAUSAL) < rank(GLOBAL)

    def test_validate_mode_rejects_unknown(self):
        with pytest.raises(DeliveryModeError):
            validate_mode("eventual")

    def test_subscription_mode_check(self):
        check_subscription_mode(WEAK, GLOBAL)
        check_subscription_mode(CAUSAL, CAUSAL)
        with pytest.raises(DeliveryModeError):
            check_subscription_mode(GLOBAL, CAUSAL)

    def test_effective_dependencies_weakening(self):
        deps = {GLOBAL_OBJECT: 5, "app/users/id/1": 2, "app/posts/id/9": 3}
        assert effective_dependencies(deps, GLOBAL, set()) == deps
        causal = effective_dependencies(deps, CAUSAL, set())
        assert GLOBAL_OBJECT not in causal and len(causal) == 2
        weak = effective_dependencies(deps, WEAK, {"app/posts/id/9"})
        assert weak == {"app/posts/id/9": 3}


class TestControllerContext:
    def make(self):
        eco = Ecosystem()
        service = eco.service("svc", database=MongoLike("m"))
        return service

    def test_read_dedup(self):
        service = self.make()
        ctx = ControllerContext(service)
        ctx.record_local_read("a")
        ctx.record_local_read("a")
        ctx.record_local_read("b")
        assert ctx.read_deps == ["a", "b"]

    def test_external_reads_keep_max_version(self):
        ctx = ControllerContext(self.make())
        ctx.record_external_read("x", 3)
        ctx.record_external_read("x", 1)
        ctx.record_external_read("x", 7)
        assert ctx.external_deps == {"x": 7}

    def test_user_dep(self):
        service = self.make()

        @service.model()
        class User(Model):
            name = Field(str)

        user = User.create(name="a")
        ctx = ControllerContext(service, user=user)
        assert ctx.user_dep == f"svc/users/id/{user.id}"
        assert ControllerContext(service).user_dep is None

    def test_explicit_deps(self):
        service = self.make()

        @service.model()
        class Thing(Model):
            name = Field(str)

        thing = Thing.create(name="t")
        ctx = ControllerContext(service)
        ctx.add_read_deps(thing)
        ctx.add_write_deps(thing)
        assert ctx.read_deps == [f"svc/things/id/{thing.id}"]
        assert ctx.extra_write_deps == [f"svc/things/id/{thing.id}"]

    def test_dep_name_format(self):
        assert dep_name("pub3", "users", 100) == "pub3/users/id/100"


class TestMarshal:
    def test_virtual_attribute_marshalling(self):
        class Profile(Model):
            raw = Field(str)
            loud = VirtualField()

            def loud_get(self):
                return (self.raw or "").upper()

        bind_model(Profile, MongoLike("m"))
        attrs = marshal_attributes(Profile, {"id": 1, "raw": "hi"}, ["raw", "loud"])
        assert attrs == {"raw": "hi", "loud": "HI"}

    def test_unknown_field_rejected(self):
        class Thing(Model):
            a = Field(int)

        bind_model(Thing, MongoLike("m"))
        with pytest.raises(KeyError):
            marshal_attributes(Thing, {"id": 1}, ["ghost"])

    def test_delete_operations_include_attributes(self):
        class Thing(Model):
            a = Field(int)

        bind_model(Thing, MongoLike("m"))
        op = marshal_operation("delete", Thing, {"id": 3, "a": 7}, ["a"])
        assert op["operation"] == "delete"
        assert op["id"] == 3
        assert op["attributes"] == {"a": 7}


class TestTools:
    def build(self):
        eco = Ecosystem()
        eco.service("pub", database=MongoLike("p"))
        eco.service("sub", database=MongoLike("s"))
        return build_replicated_pair(eco, model="User", mode="weak")[0]

    def test_describe(self):
        text = describe_ecosystem(self.build())
        assert "pub [mongodb]" in text
        assert "publishes User(name) [causal]" in text
        assert "subscribes pub/User(name) [weak]" in text

    def test_dot_styles_by_mode(self):
        dot = to_dot(self.build())
        assert '"pub" -> "sub" [style=dashed];' in dot
        assert dot.startswith("digraph synapse {")


class TestClocks:
    def test_virtual_clock_sleep_advances(self):
        clock = VirtualClock()
        clock.sleep(1.5)
        assert clock.now() == 1.5
        assert clock.monotonic() == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_wall_clock_monotonic(self):
        clock = Clock()
        a = clock.monotonic()
        b = clock.monotonic()
        assert b >= a


class TestFaultPlan:
    def test_fail_next_writes(self):
        plan = FaultPlan(fail_next_writes=2)
        with pytest.raises(FaultInjected):
            plan.check_write()
        with pytest.raises(FaultInjected):
            plan.check_write()
        plan.check_write()  # budget exhausted

    def test_down_blocks_reads_and_writes(self):
        plan = FaultPlan(down=True)
        with pytest.raises(FaultInjected):
            plan.check_read()
        with pytest.raises(FaultInjected):
            plan.check_write()

    def test_deterministic_counters_unaffected(self):
        """The armed fail_next/skip_next counters need no RNG."""
        plan = FaultPlan(fail_next_writes=1, skip_next_writes=1)
        plan.check_write()  # skipped
        with pytest.raises(FaultInjected):
            plan.check_write()
        plan.check_write()  # plan exhausted

    def test_engine_fault_injection(self):
        db = MongoLike("m")
        db.faults.fail_next_writes = 1
        with pytest.raises(FaultInjected):
            db.insert_one("c", {"a": 1})
        db.insert_one("c", {"a": 1})
        assert db.count("c") == 1
