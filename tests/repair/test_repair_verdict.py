"""Property: a repair that says "verified in sync" has healed.

Digest-equal rows are not enough: a counter left behind, or a message
still waiting after the repair's drain, wedges the next write while the
rows compare equal (ROADMAP (17)). Whenever targeted repair reports
``verified_in_sync``, the next write must land by ``drain()`` alone, in
causal, weak and global mode; otherwise the repair must say it is not
verified. Since the repair is a scoped bootstrap, one lost create is
always healed and says so. The draws cover the shapes that once wedged it: a session
user, a publisher generation bump before the repair, and a write still
queued behind the loss when the repair runs.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orm import Field, Model
from tests.durability.test_restore import build_pipeline

MODES = st.sampled_from(["causal", "weak", "global"])


def lose_one_create(
    data_dir, mode, before, after, updates, user=False, bump=False, queued=False,
    lose_queued=False,
):
    """Creates around one lost create — all in one session user's
    controllers when ``user`` — and a drain; then a publisher generation
    bump and a drain (``bump``), one more update of the lost doc left
    queued (``queued``) or lost as well (``lose_queued``), and a repair.
    Returns the pipeline, the session user (or None) and the repair
    result."""
    eco, pub, sub, manager, PubDoc, _SubDoc = build_pipeline(data_dir, mode=mode)
    session = None
    if user:
        @pub.model(name="User")
        class User(Model):  # unpublished: a session user only
            name = Field(str)

        session = User.create(name="u")
    with pub.controller(user=session):
        docs = [PubDoc.create(name=f"before-{i}", value=i) for i in range(before)]
    eco.broker.drop_next(1)
    with pub.controller(user=session):
        docs.append(PubDoc.create(name="lost", value=-1))
        docs += [PubDoc.create(name=f"after-{i}", value=i) for i in range(after)]
        for doc in docs[:updates]:
            doc.update(value=doc.value + 100)
    sub.subscriber.drain()
    if bump:
        pub.recover_publisher_version_store()
        sub.subscriber.drain()
    if queued:
        if lose_queued:
            eco.broker.drop_next(1)
        with pub.controller(user=session):
            docs[before].update(value=7)
    return pub, sub, manager, PubDoc, session, sub.repair_replication()


def next_write_lands(pub, sub, PubDoc, session):
    """One more create and an update of the lost doc, in the session
    when there is one, land by a drain alone."""
    with pub.controller(user=session):
        PubDoc.create(name="next", value=99)
        PubDoc.find_by(name="lost").update(value=98)
    sub.subscriber.drain()
    return sub.audit_replication().in_sync and sub.subscriber.stuck_dependencies() == {}


@given(
    mode=MODES,
    before=st.integers(0, 3),
    after=st.integers(0, 2),
    updates=st.integers(0, 2),
    user=st.booleans(),
    bump=st.booleans(),
    queued=st.booleans(),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_a_verified_repair_lets_the_next_write_land_by_drain(
    mode, before, after, updates, user, bump, queued
):
    with tempfile.TemporaryDirectory() as data_dir:
        pub, sub, manager, PubDoc, session, result = lose_one_create(
            data_dir, mode, before, after, updates, user, bump, queued
        )
        try:
            assert result.verified_in_sync, result.summary_lines()
            assert next_write_lands(pub, sub, PubDoc, session)
        finally:
            manager.close()


def test_the_verdict_names_what_is_left(tmp_path):
    """Causal and global (ROADMAP (17a)) both heal and say so: the
    repair's bootstrap raises the ``__global__`` gate counter the lost
    create left behind, so nothing is left for the verdict to name."""
    *_, manager, _PubDoc, _session, healed = lose_one_create(
        tmp_path / "causal", "causal", 1, 0, 0
    )
    manager.close()
    assert healed.verified_in_sync and healed.stuck == {}
    *_, manager, _PubDoc, _session, healed = lose_one_create(
        tmp_path / "global", "global", 1, 0, 0
    )
    manager.close()
    assert healed.verified_in_sync and healed.stuck == {}
    assert healed.verification.lag["pub"].version_lag == 0
    assert healed.summary_lines()[-1].endswith("verified in sync")
