"""The saga scenario pack: compensating writes through both front-ends.

A classic order/payment/inventory saga over three heterogeneous-store
services. Order placement and payment go through the ORM interceptor;
inventory reservations and their compensating releases go through the
CDC raw-write front-end (``raw_session``) — the workload that proves
both intercept paths compose under one delivery contract.

Per saga::

    1. order:      ORM create   Order(qty, state="placed")
    2. inventory:  raw insert   Reservation(order_id, qty, "reserved")
    3. payment:    ORM create   Payment(order_id, approved|declined)
    4a. approved:  ORM update   Order.state = "confirmed"
    4b. declined:  raw update   Reservation.state = "released"   (compensation)
                   ORM update   Order.state = "cancelled"

The ``INV_SAGA`` invariant (``saga.inventory-balance``) holds at
quiescence: every unit ordered is either still reserved or was released
by a compensation — ``reserved_qty + released_qty == ordered_qty`` —
and per order the reservation state matches the order outcome
(confirmed ⇒ reserved, cancelled ⇒ released).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class SagaOutcome:
    """What one driven saga did (the demo prints these)."""

    order_id: Any
    qty: int
    approved: bool


@dataclass
class SagaEcosystem:
    """The three-service saga topology plus its model classes."""

    eco: Any
    order: Any
    payment: Any
    inventory: Any
    order_cls: type
    payment_cls: type
    outcomes: List[SagaOutcome] = field(default_factory=list)

    def subscribing_services(self) -> List[Any]:
        return [self.order, self.payment, self.inventory]


def build_saga_ecosystem(mode: str = "causal") -> SagaEcosystem:
    """Order on a relational store, payment and inventory on document
    stores; every service both publishes its own model and subscribes
    to the others it acts on."""
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike
    from repro.databases.relational import PostgresLike
    from repro.orm import Field, Model

    eco = Ecosystem()
    order = eco.service(
        "order", database=PostgresLike("order-db"), delivery_mode=mode
    )
    payment = eco.service(
        "payment", database=MongoLike("payment-db"), delivery_mode=mode
    )
    inventory = eco.service(
        "inventory", database=MongoLike("inventory-db"), delivery_mode=mode
    )

    @order.model(publish=["customer", "qty", "state"], name="Order")
    class Order(Model):
        customer = Field(str)
        qty = Field(int, default=0)
        state = Field(str, default="placed")

    @payment.model(publish=["order_id", "amount", "state"], name="Payment")
    class Payment(Model):
        order_id = Field(int)
        amount = Field(int, default=0)
        state = Field(str, default="pending")

    @inventory.model(publish=["order_id", "qty", "state"], name="Reservation")
    class Reservation(Model):
        order_id = Field(int)
        qty = Field(int, default=0)
        state = Field(str, default="reserved")

    @payment.model(
        subscribe={
            "from": "order",
            "fields": ["customer", "qty", "state"],
            "mode": mode,
        },
        name="Order",
    )
    class PaymentOrder(Model):
        customer = Field(str)
        qty = Field(int, default=0)
        state = Field(str, default="")

    @inventory.model(
        subscribe={
            "from": "order",
            "fields": ["customer", "qty", "state"],
            "mode": mode,
        },
        name="Order",
    )
    class InventoryOrder(Model):
        customer = Field(str)
        qty = Field(int, default=0)
        state = Field(str, default="")

    @order.model(
        subscribe={
            "from": "inventory",
            "fields": ["order_id", "qty", "state"],
            "mode": mode,
        },
        name="Reservation",
    )
    class OrderReservation(Model):
        order_id = Field(int)
        qty = Field(int, default=0)
        state = Field(str, default="")

    @order.model(
        subscribe={
            "from": "payment",
            "fields": ["order_id", "amount", "state"],
            "mode": mode,
        },
        name="Payment",
    )
    class OrderPayment(Model):
        order_id = Field(int)
        amount = Field(int, default=0)
        state = Field(str, default="")

    # The raw-write front-end: reservations and compensating releases
    # bypass the ORM and flow through the transactional outbox.
    inventory.enable_outbox()
    return SagaEcosystem(
        eco=eco,
        order=order,
        payment=payment,
        inventory=inventory,
        order_cls=Order,
        payment_cls=Payment,
    )


def run_saga(saga: SagaEcosystem, index: int, qty: int,
             approved: bool) -> SagaOutcome:
    """Drive one saga end to end (compensating on decline)."""
    order_cls, payment_cls = saga.order_cls, saga.payment_cls
    with saga.order.controller():
        placed = order_cls.create(customer=f"cust-{index}", qty=qty)
    raw = saga.inventory.raw_session()
    reservation = raw.insert(
        "Reservation",
        {"order_id": placed.id, "qty": qty, "state": "reserved"},
    )
    with saga.payment.controller():
        payment_cls.create(
            order_id=placed.id,
            amount=qty * 10,
            state="approved" if approved else "declined",
        )
    if approved:
        with saga.order.controller():
            placed.state = "confirmed"
            placed.save()
    else:
        # Compensation: release the hold through the same raw front-end
        # that took it, then cancel the order through the ORM.
        raw.update("Reservation", reservation["id"], {"state": "released"})
        with saga.order.controller():
            placed.state = "cancelled"
            placed.save()
    outcome = SagaOutcome(order_id=placed.id, qty=qty, approved=approved)
    saga.outcomes.append(outcome)
    return outcome


def run_sagas(saga: SagaEcosystem, count: int, seed: int = 0,
              decline_every: int = 3) -> List[SagaOutcome]:
    """Drive ``count`` sagas with a deterministic mix of approvals and
    declines (every ``decline_every``-th declines), then drain."""
    rng = random.Random(seed)
    for i in range(count):
        run_saga(
            saga,
            index=i,
            qty=rng.randint(1, 5),
            approved=(i + 1) % decline_every != 0,
        )
    saga.eco.drain_all()
    return saga.outcomes


def _rows(service: Any, model_name: str) -> List[Dict[str, Any]]:
    model_cls = service.registry.get(model_name)
    return model_cls.__mapper__._do_where({}, None, None)


def check_saga_invariant(saga: SagaEcosystem) -> List[str]:
    """``INV_SAGA`` at quiescence; returns one detail string per
    imbalance (empty = the books balance).

    Checked against the *publisher-side* rows (order's orders,
    inventory's reservations): replication fidelity is the audit's job,
    saga balance is this one's.
    """
    problems: List[str] = []
    orders = {row["id"]: row for row in _rows(saga.order, "Order")}
    reservations = _rows(saga.inventory, "Reservation")

    ordered = sum(row.get("qty") or 0 for row in orders.values())
    reserved = sum(
        row.get("qty") or 0 for row in reservations
        if row.get("state") == "reserved"
    )
    released = sum(
        row.get("qty") or 0 for row in reservations
        if row.get("state") == "released"
    )
    if reserved + released != ordered:
        problems.append(
            f"inventory imbalance: reserved={reserved} + released={released} "
            f"!= ordered={ordered}"
        )
    seen_orders = set()
    for row in reservations:
        order_row = orders.get(row.get("order_id"))
        if order_row is None:
            problems.append(
                f"reservation {row.get('id')} references unknown order "
                f"{row.get('order_id')}"
            )
            continue
        seen_orders.add(order_row["id"])
        state, order_state = row.get("state"), order_row.get("state")
        if order_state == "confirmed" and state != "reserved":
            problems.append(
                f"order {order_row['id']} confirmed but its reservation is "
                f"{state!r} (expected 'reserved')"
            )
        elif order_state == "cancelled" and state != "released":
            problems.append(
                f"order {order_row['id']} cancelled but its reservation is "
                f"{state!r} (compensation never landed)"
            )
    for order_id, order_row in orders.items():
        if order_row.get("state") in ("confirmed", "cancelled") \
                and order_id not in seen_orders:
            problems.append(
                f"order {order_id} settled as {order_row['state']!r} with "
                "no reservation at all"
            )
    return problems
