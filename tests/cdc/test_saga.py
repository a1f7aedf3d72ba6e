"""The saga scenario pack: convergence through both front-ends,
compensation on decline, the INV_SAGA detector, and injected loss
healed by targeted repair (docs/cdc.md, "The saga pack")."""

from __future__ import annotations

from repro.cdc.saga import (
    _rows,
    build_saga_ecosystem,
    check_saga_invariant,
    run_saga,
    run_sagas,
)


class TestSagaConvergence:
    def test_mixed_sagas_balance_and_converge(self):
        saga = build_saga_ecosystem(mode="causal")
        outcomes = run_sagas(saga, 6, seed=0, decline_every=3)
        assert len(outcomes) == 6
        assert sum(1 for o in outcomes if not o.approved) == 2
        assert check_saga_invariant(saga) == []
        for service in saga.subscribing_services():
            assert service.audit_replication().in_sync
        assert saga.eco.cdc.idle()

    def test_declined_saga_compensates(self):
        """Decline path: the reservation is released through the same
        raw front-end that took it, and the order cancels via the ORM."""
        saga = build_saga_ecosystem()
        run_saga(saga, index=0, qty=3, approved=False)
        saga.eco.drain_all()
        (reservation,) = _rows(saga.inventory, "Reservation")
        assert reservation["state"] == "released"
        (order_row,) = _rows(saga.order, "Order")
        assert order_row["state"] == "cancelled"
        assert check_saga_invariant(saga) == []

    def test_approved_saga_keeps_reservation(self):
        saga = build_saga_ecosystem()
        run_saga(saga, index=0, qty=2, approved=True)
        saga.eco.drain_all()
        (reservation,) = _rows(saga.inventory, "Reservation")
        assert reservation["state"] == "reserved"
        (order_row,) = _rows(saga.order, "Order")
        assert order_row["state"] == "confirmed"
        assert check_saga_invariant(saga) == []


class TestInvariantDetector:
    def test_missing_compensation_detected(self):
        saga = build_saga_ecosystem()
        run_saga(saga, index=0, qty=3, approved=False)
        saga.eco.drain_all()
        # Corrupt the books underneath everything: flip the released
        # reservation back, bypassing ORM and outbox alike.
        (reservation,) = _rows(saga.inventory, "Reservation")
        model = saga.inventory.registry.get("Reservation")
        model.__mapper__._do_update(reservation["id"], {"state": "reserved"})
        problems = check_saga_invariant(saga)
        assert any("compensation never landed" in p for p in problems)

    def test_quantity_imbalance_detected(self):
        saga = build_saga_ecosystem()
        run_saga(saga, index=0, qty=3, approved=True)
        saga.eco.drain_all()
        (reservation,) = _rows(saga.inventory, "Reservation")
        model = saga.inventory.registry.get("Reservation")
        model.__mapper__._do_update(reservation["id"], {"qty": 4})
        problems = check_saga_invariant(saga)
        assert any("inventory imbalance" in p for p in problems)

    def test_orphan_reservation_detected(self):
        saga = build_saga_ecosystem()
        run_saga(saga, index=0, qty=1, approved=True)
        saga.eco.drain_all()
        (reservation,) = _rows(saga.inventory, "Reservation")
        model = saga.inventory.registry.get("Reservation")
        model.__mapper__._do_update(reservation["id"], {"order_id": 999})
        problems = check_saga_invariant(saga)
        assert any("unknown order" in p for p in problems)
        assert any("no reservation at all" in p for p in problems)


class TestLossHealing:
    def test_injected_loss_heals_via_targeted_repair(self):
        """The §6.5 incident inside a saga workload: one routed message
        lost, one replica diverges, targeted repair converges all three
        services and the books still balance."""
        saga = build_saga_ecosystem()
        run_sagas(saga, 3, seed=1)
        for service in saga.subscribing_services():
            assert service.audit_replication().in_sync

        saga.eco.broker.drop_next(1)
        run_saga(saga, index=99, qty=2, approved=True)
        saga.eco.drain_all()
        diverged = [
            service for service in saga.subscribing_services()
            if not service.audit_replication().in_sync
        ]
        assert diverged

        for service in diverged:
            assert service.repair_replication().verified_in_sync
        saga.eco.drain_all()
        for service in saga.subscribing_services():
            assert service.audit_replication().in_sync
        assert check_saga_invariant(saga) == []
