"""The names of the durable transitions are a contract.

``repro.runtime.interleave.TRANSITIONS`` is the one list of them. Four
things must agree with it: the WAL layouts (one per record type, taking
the transition's fields), the manager's record -> owner map derived from
it, the record -> owner table in docs/durability.md ("Restore"), and the
conformance checker, whose ``_on_<label>`` handlers may name a
transition or an event some yield or observe point emits — nothing
else. docs/observability.md lists every transition name.
"""

from __future__ import annotations

import ast
import inspect
import os
import re

import repro
from repro.core.subscriber import _WEAK_EVENTS
from repro.durability import wal
from repro.durability.manager import DurabilityManager
from repro.runtime.conformance.checker import DeliveryChecker
from repro.runtime.interleave import TRANSITIONS

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
DOCS = os.path.join(os.path.dirname(os.path.dirname(SRC_ROOT)), "docs")

#: The checker's handlers named after a durable transition.
CHECKED_TRANSITIONS = {
    "queue.published", "queue.coalesced", "queue.shed", "queue.deferred",
    "queue.acked", "queue.decommissioned", "generation.flush",
}


def _doc(name):
    with open(os.path.join(DOCS, name), encoding="utf-8") as fh:
        return fh.read()


def _handler(label):
    return "_on_" + label.replace(".", "_")


def test_one_row_per_name_and_per_record():
    names = [transition.name for transition in TRANSITIONS]
    records = [transition.record for transition in TRANSITIONS]
    assert len(set(names)) == len(names) == len(set(records)) == 13


def test_every_record_has_a_layout_over_its_transitions_fields():
    assert set(wal.LAYOUTS) == {transition.record for transition in TRANSITIONS}
    for transition in TRANSITIONS:
        arity = len(inspect.signature(wal.LAYOUTS[transition.record]).parameters)
        # The sink hands ``out`` its post-bump counters too.
        assert arity == len(transition.fields) + (transition.record == "out"), (
            transition
        )


def test_the_owner_map_is_derived_from_the_table():
    assert DurabilityManager._OWNERS == {
        transition.record: getattr(DurabilityManager, "_to_" + transition.owner)
        for transition in TRANSITIONS
    }


def test_the_restore_table_names_each_transition_its_record_and_owner():
    """Each row of docs/durability.md's table: the transition names, the
    records they write (in the same order) and an owner method the
    record's ``_to_<owner>`` hands it to."""
    section = _doc("durability.md").split("## Restore", 1)[1]
    rows = re.findall(r"^\| (`[^|]*) \| (`[^|]*) \| `([\w.]+)` \|", section, flags=re.M)
    by_name = {transition.name: transition for transition in TRANSITIONS}
    seen = []
    for names, records, method in rows:
        names = re.findall(r"`([^`]+)`", names)
        records = re.findall(r"`([^`]+)`", records)
        assert len(names) == len(records), (names, records)
        for name, record in zip(names, records):
            assert by_name[name].record == record, (name, record)
            owner = DurabilityManager._OWNERS[record]
            assert method.rpartition(".")[2] + "(" in inspect.getsource(owner), (
                record, method,
            )
            seen.append(name)
    assert sorted(seen) == sorted(by_name)


def _point_labels():
    """Every label a ``yield_point``/``observe_point`` under ``src/``
    is called with, and those the live apply's teller emits by table."""
    labels = set(_WEAK_EVENTS.values())
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(dirpath, filename), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            labels.update(
                node.args[0].value
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("yield_point", "observe_point")
                and node.args
                and isinstance(node.args[0], ast.Constant)
            )
    return labels


def test_checker_handlers_name_a_transition_or_an_emitted_event():
    names = {transition.name for transition in TRANSITIONS}
    known = {_handler(label): label for label in names | _point_labels()}
    handlers = {
        attr for attr in dir(DeliveryChecker) if attr.startswith("_on_")
    }
    assert handlers <= set(known), sorted(handlers - set(known))
    durable = {known[handler] for handler in handlers} & names
    assert durable == CHECKED_TRANSITIONS


def test_observability_lists_every_transition():
    text = _doc("observability.md")
    missing = [t.name for t in TRANSITIONS if f"`{t.name}`" not in text]
    assert missing == []
