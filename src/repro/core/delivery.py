"""Delivery modes and their ordering rules (§3.2).

``global`` > ``causal`` > ``weak``. A subscriber may only select a mode
at most as strong as its publisher supports, and may weaken messages by
ignoring part of their dependency information (§4.2).
"""

from __future__ import annotations

from repro.errors import DeliveryModeError

GLOBAL = "global"
CAUSAL = "causal"
WEAK = "weak"

_RANKS = {WEAK: 0, CAUSAL: 1, GLOBAL: 2}

#: The write dependency added to every operation under global ordering.
GLOBAL_OBJECT = "__global__"


def validate_mode(mode: str) -> str:
    if mode not in _RANKS:
        raise DeliveryModeError(
            f"unknown delivery mode {mode!r}; pick one of {sorted(_RANKS)}"
        )
    return mode


def rank(mode: str) -> int:
    validate_mode(mode)
    return _RANKS[mode]


def check_subscription_mode(subscriber_mode: str, publisher_mode: str) -> None:
    """Subscribers can only select semantics at most as strong as the
    publisher supports (§3.2)."""
    if rank(subscriber_mode) > rank(publisher_mode):
        raise DeliveryModeError(
            f"subscriber requested {subscriber_mode!r} but the publisher "
            f"only supports {publisher_mode!r}"
        )


def effective_dependencies(
    dependencies: dict, mode: str, object_deps: set
) -> dict:
    """Weaken a message's dependency map to the subscriber's mode.

    - global: respect everything.
    - causal: drop the global-object dependency.
    - weak: keep only the written objects' own dependencies.

    ``mode`` is one :func:`validate_mode` already passed: a subscription
    is checked when it is declared, not on every message.
    """
    if mode == GLOBAL:
        return dict(dependencies)
    if mode == CAUSAL:
        return {d: v for d, v in dependencies.items() if d != GLOBAL_OBJECT}
    return {d: v for d, v in dependencies.items() if d in object_deps}
