"""Lint-style guard for the control-plane seam.

After the message-passing-only refactor, no subsystem may reach into a
peer service's heap: cross-service reads ride ``ecosystem.control``
envelopes and cross-service writes ride the broker. The one sanctioned
way to hold a ``Service`` *object* is the ecosystem's own registry, so
this test greps the source tree for ``.services[...]``-style
dereferences and fails — naming the offending lines — when one appears
outside the allowlist:

- ``core/api.py`` — the registry itself (and the local_* accessors);
- ``core/tools.py`` — operator-facing topology/introspection CLI,
  which deliberately inspects one in-process ecosystem;
- ``__main__.py`` — CLI glue;
- ``runtime/transport/`` — the seam's own implementation.

Adding a new shortcut means either refactoring it onto the control
plane or consciously widening this allowlist in review.
"""

from __future__ import annotations

import os
import re

import repro

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: Module paths (relative to the ``repro`` package, '/'-separated) that
#: may hold peer Service objects.
ALLOWLIST = (
    "core/api.py",
    "core/tools.py",
    "__main__.py",
)
ALLOWLIST_DIRS = (
    "runtime/transport/",
)

#: Dereferences of the ecosystem's service registry.
SHORTCUT = re.compile(
    r"\.services\s*(\[|\.get\(|\.values\(|\.items\(|\.keys\()"
)


def _allowlisted(rel_path: str) -> bool:
    return rel_path in ALLOWLIST or any(
        rel_path.startswith(prefix) for prefix in ALLOWLIST_DIRS
    )


def _source_lines():
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                rel_path = os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")
                with open(path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, start=1):
                        yield rel_path, lineno, line


def iter_violations():
    for rel_path, lineno, line in _source_lines():
        if not _allowlisted(rel_path) and SHORTCUT.search(line):
            yield f"{rel_path}:{lineno}: {line.strip()}"


def test_no_cross_service_object_shortcuts():
    violations = list(iter_violations())
    assert violations == [], (
        "cross-service shared-object shortcut(s) outside the seam "
        "allowlist — route them through ecosystem.control or the broker:\n"
        + "\n".join(violations)
    )


def test_allowlist_entries_exist():
    """A deleted/renamed module must not linger as a stale allowlist
    entry silently widening the seam."""
    for rel_path in ALLOWLIST:
        assert os.path.exists(os.path.join(SRC_ROOT, rel_path)), rel_path
    for prefix in ALLOWLIST_DIRS:
        assert os.path.isdir(os.path.join(SRC_ROOT, prefix)), prefix


# -- the one publish path -------------------------------------------------------
#
# ``SynapsePublisher._prepare`` is the only implementation of the §4.2
# publisher algorithm (collect → lock → write → marshal → bump → build →
# ship). A second caller of any of its steps is a second copy of it
# starting to grow, so each step may be *called* only from the modules
# listed here — same allowlist + stale-allowlist style as above.

#: Calls, not definitions.
BUILD_MESSAGE = r"(?<!def )\bbuild_message\("
BROKER_PUBLISH = r"\.broker\.publish\("
REGISTER_OPERATION = r"(?<!def )\bregister_operation\("

#: call pattern -> modules (relative to ``repro``) that may contain it.
PUBLISH_STEPS = {
    BUILD_MESSAGE: ("core/publisher.py", "core/testing.py"),
    BROKER_PUBLISH: ("core/publisher.py",),
    REGISTER_OPERATION: ("core/publisher.py",),
}

#: A ``_``-prefixed attribute of a service's SynapsePublisher.
PUBLISHER_INTERNAL = re.compile(r"\bpublisher\._(?!_)")

#: (module, pattern, exact number of sites the module holds).
SINGLE_SITES = (
    ("core/publisher.py", BUILD_MESSAGE, 1),
    ("core/publisher.py", BROKER_PUBLISH, 1),
    ("broker/broker.py", r'"broker\.drop"', 1),
    ("broker/broker.py", r"\.add\(STAGE_ROUTE\b", 1),
)


def test_publish_steps_are_called_from_the_publisher_only():
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        for pattern, allowed in PUBLISH_STEPS.items()
        if rel_path not in allowed and re.search(pattern, line)
    ]
    assert violations == [], (
        "a step of the publisher algorithm is called outside "
        "SynapsePublisher — hand the write to the publisher instead "
        "(write / ingest_cdc / publish_repair):\n" + "\n".join(violations)
    )


def test_publisher_internals_stay_inside_core():
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if not rel_path.startswith("core/") and PUBLISHER_INTERNAL.search(line)
    ]
    assert violations == [], "\n".join(violations)


def test_version_bump_has_one_caller():
    """``register_operation`` runs from ``_register_with_recovery`` (the
    §4.4 retry wrapper) and nowhere else, so marshal-before-bump is a
    property of the one function that calls *that*."""
    import ast

    with open(os.path.join(SRC_ROOT, "core/publisher.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    callers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "register_operation"
    }
    assert callers == {"_register_with_recovery"}


def test_one_site_per_step():
    for rel_path, pattern, expected in SINGLE_SITES:
        with open(os.path.join(SRC_ROOT, rel_path), encoding="utf-8") as fh:
            found = len(re.findall(pattern, fh.read()))
        assert found == expected, (rel_path, pattern, found)


def test_publish_allowlist_entries_exist_and_are_used():
    """A stale entry would silently widen the rule."""
    lines = list(_source_lines())
    for pattern, allowed in PUBLISH_STEPS.items():
        for rel_path in allowed:
            assert any(
                path == rel_path and re.search(pattern, line)
                for path, _lineno, line in lines
            ), (pattern, rel_path)


# -- the one reading of a subscription ----------------------------------------
#
# A subscription's field map is the contract between two schemas (§3.1)
# and ``core/subscriber.py`` is its only interpreter: ``hydrate`` (remote
# → local, run by the live apply, bootstrap and WAL replay) and
# ``project`` (local → remote, what the audit digest hashes). The
# per-message step (land the operations, move the counters, remember the
# uid) lives there too; restore, repair and the conformance checker call
# the subscriber's public surface.

#: A ``_``-prefixed attribute of a service's SynapseSubscriber.
SUBSCRIBER_INTERNAL = re.compile(r"\b(?:sub|subscriber)\._(?!_)")

#: Iterating a spec's remote -> local map (``_fields`` is the ORM's).
FIELD_MAP = r"(?<!_)\bfields\.items\(\)"
FIELD_MAP_READERS = ("core/subscriber.py",)

#: The deleted mirrors of the subscriber algorithm.
MIRRORS = re.compile(r"_replay_apply|_raw_apply_operation")


def test_subscriber_internals_stay_inside_core():
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if not rel_path.startswith("core/") and SUBSCRIBER_INTERNAL.search(line)
    ]
    assert violations == [], (
        "a module outside core/ reaches into SynapseSubscriber — use its "
        "public surface (replay_apply / has_applied / applied_uids / "
        "restore_applied / enter_generation / object_deps):\n"
        + "\n".join(violations)
    )


def test_field_map_is_read_in_one_module():
    readers = {
        rel_path
        for rel_path, _lineno, line in _source_lines()
        if re.search(FIELD_MAP, line)
    }
    # Equality, so a stale entry fails as loudly as a second reader.
    assert readers == set(FIELD_MAP_READERS), (
        "a subscription's field map is interpreted by SubscriptionSpec "
        "(hydrate / project) only"
    )


def test_no_mirror_of_the_subscriber_algorithm():
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if MIRRORS.search(line)
    ]
    assert violations == [], "\n".join(violations)


def test_counter_arithmetic_exists_once():
    """The repair / weak / ordered arithmetic is ``_land`` + ``_count``:
    one freshness check, one fast-forward, one bump — for the live apply
    and for replay."""
    for pattern, expected in (
        (r"\.is_stale\(", 1),
        (r"\.fast_forward\(", 1),
        (r"\.apply_counts\(", 1),
    ):
        found = [
            f"{rel_path}:{lineno}"
            for rel_path, lineno, line in _source_lines()
            if not rel_path.startswith("versionstore/") and re.search(pattern, line)
        ]
        assert len(found) == expected and found[0].startswith(
            "core/subscriber.py"
        ), (pattern, found)
