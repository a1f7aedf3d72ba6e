"""Property: a repair that says "verified in sync" has healed.

Digest-equal rows are not enough: a counter left behind, or a message
still waiting after the repair's drain, wedges the next write while the
rows compare equal (ROADMAP (17)). Whenever targeted repair reports
``verified_in_sync``, the next write must land by ``drain()`` alone, in
causal, weak and global mode; otherwise the repair must say it is not
verified.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.durability.test_restore import build_pipeline, replicas_in_sync

MODES = st.sampled_from(["causal", "weak", "global"])


def lose_one_create(data_dir, mode, before, after, updates):
    """Creates around one lost create, then drain and repair."""
    eco, pub, sub, manager, PubDoc, _SubDoc = build_pipeline(data_dir, mode=mode)
    with pub.controller():
        docs = [PubDoc.create(name=f"before-{i}", value=i) for i in range(before)]
    eco.broker.drop_next(1)
    with pub.controller():
        docs.append(PubDoc.create(name="lost", value=-1))
        docs += [PubDoc.create(name=f"after-{i}", value=i) for i in range(after)]
        for doc in docs[:updates]:
            doc.update(value=doc.value + 100)
    sub.subscriber.drain()
    return pub, sub, manager, PubDoc, sub.repair_replication()


@given(
    mode=MODES,
    before=st.integers(0, 3),
    after=st.integers(0, 2),
    updates=st.integers(0, 2),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_a_verified_repair_lets_the_next_write_land_by_drain(mode, before, after, updates):
    with tempfile.TemporaryDirectory() as data_dir:
        pub, sub, manager, PubDoc, result = lose_one_create(
            data_dir, mode, before, after, updates
        )
        try:
            if result.verified_in_sync:
                with pub.controller():
                    PubDoc.create(name="next", value=99)
                sub.subscriber.drain()
                assert replicas_in_sync(pub, sub)
                assert sub.subscriber.stuck_dependencies() == {}
        finally:
            manager.close()


def test_the_verdict_names_what_is_left(tmp_path):
    """Causal heals and says so; global (ROADMAP (17a), not fixed here)
    reports the gate counter it left behind instead of "in sync"."""
    _pub, _sub, manager, _PubDoc, healed = lose_one_create(
        tmp_path / "causal", "causal", 1, 0, 0
    )
    manager.close()
    assert healed.verified_in_sync and healed.stuck == {}
    _pub, _sub, manager, _PubDoc, wedged = lose_one_create(
        tmp_path / "global", "global", 1, 0, 0
    )
    manager.close()
    assert wedged.verification.in_sync  # the rows alone compare equal
    assert not wedged.verified_in_sync
    assert wedged.verification.lag["pub"].version_lag == 1
    assert "NOT verified: version_lag 1" in wedged.summary_lines()[-1]
