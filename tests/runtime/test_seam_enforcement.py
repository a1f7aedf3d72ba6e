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


# -- a scenario is a script, not a subsystem ------------------------------------
#
# Scenario code (the conformance scenarios, the ``demo.py`` modules,
# ``watch`` and ``__main__``) shares three pieces: the replicated-pair
# builder in ``apps/pair.py``, the crash-then-restore skeleton private
# to ``conformance/scenarios.py``, and the product's own converge step
# (``drain_all()``; ``repair_replication().verified_in_sync``). Each
# rule below fails when a hand-built copy is pasted back.

REPO_ROOT = os.path.dirname(os.path.dirname(SRC_ROOT))

#: A document-store ``…pub…-db`` or relational ``…sub…-db`` engine being
#: constructed, literal or f-string: the pair being declared by hand.
PAIR_DECLARED = r'(MongoLike|PostgresLike)\(f?"[^"]*(pub|sub)[^"]*-db"\)'
PAIR_BUILDER = "apps/pair.py"
#: Renames + a published virtual: the one fixture that *is* different.
MAPPED_FIXTURE = "runtime/conformance/scenarios.py"

#: module -> how many ``.restore()`` calls it makes (``durability/``
#: defines the method and has no reason to call it).
RESTORE_CALLERS = {
    "runtime/transport/shard.py": 1,
    "runtime/conformance/harness.py": 1,
    "runtime/conformance/scenarios.py": 1,
    "views/demo.py": 1,
}


def _scenario_modules():
    return sorted({
        rel_path for rel_path, _lineno, _line in _source_lines()
        if rel_path.endswith("/demo.py") or rel_path.endswith("/watch.py")
    })


def test_the_replicated_pair_is_declared_in_one_module():
    sites = [
        (rel_path, match.group(0))
        for rel_path, _lineno, line in _source_lines()
        for match in re.finditer(PAIR_DECLARED, line)
    ]
    assert {rel_path for rel_path, _ in sites} == {PAIR_BUILDER, MAPPED_FIXTURE}, (
        "declare a publisher -> replica pair with "
        "repro.apps.build_replicated_pair:\n"
        + "\n".join(f"{rel_path}: {text}" for rel_path, text in sites)
    )
    # One of each engine per module: the builder's, the mapped fixture's.
    assert len(sites) == 4, sites


def test_restore_is_called_from_the_skeletons_only():
    import ast

    calls = {}
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            found = sum(
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "restore"
                and not node.args and not node.keywords
                for node in ast.walk(tree)
            )
            if found:
                rel_path = os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")
                calls[rel_path] = found
    # Equality, so a stale entry fails as loudly as a new caller.
    assert calls == RESTORE_CALLERS, (
        "an ecosystem is restored by hand — a crash scenario belongs on "
        "conformance/scenarios.py's skeleton"
    )


def test_scenarios_and_demos_spell_no_repair_ladder():
    """audit -> if not in_sync -> repair(report=...) -> verified is what
    ``repair_replication()`` already does."""
    scripts = _scenario_modules() + [MAPPED_FIXTURE, "__main__.py"]
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if rel_path in scripts
        and re.search(r"repair_replication\(\s*report=|repair_subscriber\(", line)
    ]
    assert violations == [], "\n".join(violations)


def test_the_sigkill_child_block_exists_once():
    found = [
        f"{rel_path}:{lineno}"
        for rel_path, lineno, line in _source_lines()
        if rel_path.startswith("runtime/conformance/")
        and re.search(r"exitcode != -signal\.SIGKILL|get_context\(\"fork\"\)", line)
    ]
    assert len(found) == 2 and all(
        site.startswith(MAPPED_FIXTURE) for site in found
    ), found


def test_demo_parameters_do_not_travel_through_the_environment():
    modules = _scenario_modules()
    assert len(modules) == 6, modules  # five demo.py + monitor/watch.py
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if rel_path in modules and re.search(r"\benviron\b|\bgetenv\b", line)
    ]
    assert violations == [], (
        "bind demo parameters onto the module-level callables with "
        "functools.partial:\n" + "\n".join(violations)
    )
    # The deleted knobs are not mentioned anywhere a reader would look
    # (spelled in halves so this file does not match itself).
    knobs = re.compile("REPRO_" + "SHARD_|REPRO_" + "RECOVER_")
    mentions = []
    for top in ("src", "tests", "benchmarks", "examples", "docs", ".github",
                ".claude", "README.md"):
        root = os.path.join(REPO_ROOT, top)
        paths = [root] if os.path.isfile(root) else [
            os.path.join(dirpath, filename)
            for dirpath, _dirnames, filenames in os.walk(root)
            for filename in filenames
            if filename.endswith((".py", ".md", ".yml", ".json"))
        ]
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                if knobs.search(fh.read()):
                    mentions.append(os.path.relpath(path, REPO_ROOT))
    assert mentions == []


def test_cli_flags_have_one_reader():
    """``repro.core.tools.flags`` — no private ``_flag`` parser."""
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if re.search(r"def _(int_|str_)?flag(_value)?\(", line)
    ]
    assert violations == [], "\n".join(violations)


def test_command_table_docstring_and_readme_agree():
    import repro.__main__ as cli

    table = set(cli.COMMANDS)
    assert cli.DEMO_ONLY <= table
    documented = set(re.findall(r"^    (\w+)", cli.__doc__, flags=re.M))
    assert documented == table
    readme = os.path.join(REPO_ROOT, "README.md")
    with open(readme, encoding="utf-8") as fh:
        toured = set(re.findall(r"`python -m repro (\w+)", fh.read()))
    assert toured == table


# -- the one worker step ------------------------------------------------------
#
# What happens to a popped batch lives in ``SubscriberWorkerPool.process``
# and ``.settle`` (``runtime/workers.py``); the pool's threads and the
# conformance harness's virtual workers both run them. ``drain`` is the
# deliberate second consumer: it holds what it could not apply and
# re-queues once at the end.

#: method -> the (module, function) sites that may call it.
WORKER_STEP_CALLERS = {
    "defer": {("runtime/workers.py", "settle")},
    "_give_up": {("runtime/workers.py", "settle")},
    "nack": {("runtime/workers.py", "settle"), ("core/subscriber.py", "drain")},
    "process_batch": {
        ("runtime/workers.py", "process"), ("core/subscriber.py", "drain"),
    },
}


def test_the_worker_step_has_one_implementation():
    import ast

    callers = {method: set() for method in WORKER_STEP_CALLERS}
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel_path = os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    method = getattr(getattr(node, "func", None), "attr", None)
                    if isinstance(node, ast.Call) and method in callers:
                        callers[method].add((rel_path, function.name))
    # Equality, so a stale entry fails as loudly as a third copy.
    assert callers == WORKER_STEP_CALLERS, (
        "a popped batch is settled outside SubscriberWorkerPool — run "
        "pool.process(batch) and pool.settle(...) inside one queue.step"
    )
