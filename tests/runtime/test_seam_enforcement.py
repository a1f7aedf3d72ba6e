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
        "(write / ingest_cdc):\n" + "\n".join(violations)
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
# per-message step (land the operations, move the counters) lives there
# too; restore, repair and the conformance checker call the subscriber's
# public surface. "Already applied?" is answered by the counters
# (``SynapseSubscriber.applied``), never by a remembered set of uids.

#: A ``_``-prefixed attribute of a service's SynapseSubscriber.
SUBSCRIBER_INTERNAL = re.compile(r"\b(?:sub|subscriber)\._(?!_)")

#: Iterating a spec's remote -> local map (``_fields`` is the ORM's).
FIELD_MAP = r"(?<!_)\bfields\.items\(\)"
FIELD_MAP_READERS = ("core/subscriber.py",)

#: The deleted mirrors of the subscriber algorithm.
MIRRORS = re.compile(r"_replay_apply|_raw_apply_operation")

#: A second answer to "already applied?": the retired window's names, or
#: any ``applied``-named set or deque.
APPLIED_WINDOW = re.compile(
    r"\bhas_applied\b|\bapplied_uids?\b"
    r"|\w*applied\w*\s*(:[^=]*)?=\s*(set|deque)\("
)


def test_subscriber_internals_stay_inside_core():
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if not rel_path.startswith("core/") and SUBSCRIBER_INTERNAL.search(line)
    ]
    assert violations == [], (
        "a module outside core/ reaches into SynapseSubscriber — use its "
        "public surface (replay_apply / applied / durable_state / "
        "restore_state / enter_generation / object_deps):\n"
        + "\n".join(violations)
    )


def test_applied_is_a_counter_question():
    """The subscriber's per-object counters are the one answer to
    "already applied?" (docs/delivery_semantics.md): no module keeps a
    uid-keyed applied set or deque beside them."""
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if APPLIED_WINDOW.search(line)
    ]
    assert violations == [], (
        "a second answer to 'already applied?' — ask "
        "SynapseSubscriber.applied (the counters) instead:\n"
        + "\n".join(violations)
    )


def test_applied_window_finder_knows_every_spelling():
    for line in (
        "if self.has_applied(message.uid):",
        "uids.extend(service.subscriber.applied_uids())",
        'self._applied_uids: "deque[str]" = deque(maxlen=4096)',
        "self._applied_uid_set: set = set()",
        "applied = set()",
    ):
        assert APPLIED_WINDOW.search(line), line
    for line in (
        "if self.applied(message):",
        "applied: Dict[str, Dict[str, Any]] = {}",
        "report.applied += 1",
    ):
        assert not APPLIED_WINDOW.search(line), line


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
}


def _scenario_modules():
    return sorted({
        rel_path for rel_path, _lineno, _line in _source_lines()
        if rel_path.endswith(("/demo.py", "/watch.py")) or rel_path == MAPPED_FIXTURE
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


#: ``tests/`` and the benchmark scripts, scanned for hand-built pairs;
#: ``benchmarks/e2e`` is the pinned harness and keeps its own setup.
PAIR_SCAN_DIRS = ("tests", "benchmarks")
PAIR_SCAN_SKIP = ("benchmarks/e2e/",)

#: ``module::function`` -> why that one-model publisher -> replica pair
#: is declared by hand and not with the builder.
HAND_BUILT_PAIRS = {
    "benchmarks/bench_cluster_trace_overhead.py::build_full":
        "the pre-e2e cluster benchmark, kept as is until it is deleted",
    "benchmarks/bench_propagation_latency.py::run_propagation":
        "each replica times its apply in an after_save callback",
    "tests/broker/test_shared_delivery.py::body_immutable_scenario":
        "the replica's before_save callback mutates the applied value",
    "tests/broker/test_shared_delivery.py::tagging_pipeline":
        "the replica's before_save callback mutates the applied value",
    "tests/core/test_bootstrap_anti_entropy.py::test_ghost_delete_fires_destroy_callbacks":
        "the replica's after_destroy callback is what the test observes",
    "tests/durability/test_restore_mapped.py::build_local_state":
        "the replica computes a local column in a before_save callback",
}


def _model_decorators(function):
    """``(published, replicas, other)``: the ``.model(...)`` calls in
    ``function`` that publish a persisted model, that subscribe to one
    publisher under the same attribute names, and the rest that
    subscribe (decorators, multi-publisher models, renames and virtuals,
    observers) — shapes the builder does not declare."""
    import ast

    published, replicas, other = 0, 0, 0
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "model":
            keywords = {keyword.arg: keyword.value for keyword in node.keywords}
            subscribe = keywords.get("subscribe")
            if subscribe is None:
                published += "publish" in keywords and "ephemeral" not in keywords
                continue
            mapped = isinstance(subscribe, ast.Dict) and any(
                getattr(key, "value", None) == "fields" and isinstance(value, ast.Dict)
                for key, value in zip(subscribe.keys, subscribe.values)
            )
            plain = not (
                mapped or isinstance(subscribe, ast.List)
                or "publish" in keywords or "observer" in keywords
            )
            replicas += plain
            other += not plain
    return published, replicas, other


def _hand_built_pairs():
    """Every innermost function that declares one published model and a
    replica of it: the shape ``build_replicated_pair`` declares."""
    import ast

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for top in PAIR_SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO_ROOT, top)):
            for filename in sorted(filenames):
                path = os.path.join(dirpath, filename)
                rel_path = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
                if not filename.endswith(".py") or rel_path.startswith(PAIR_SCAN_SKIP):
                    continue
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if not isinstance(node, functions):
                        continue
                    nested = any(
                        inner is not node and isinstance(inner, functions)
                        and _model_decorators(inner)[0]
                        for inner in ast.walk(node)
                    )
                    published, replicas, other = _model_decorators(node)
                    if not nested and published == 1 and replicas and not other:
                        yield f"{rel_path}::{node.name}"


def test_tests_and_benchmarks_take_the_replicated_pair_builder():
    found = set(_hand_built_pairs())
    # Equality, so a stale entry fails as loudly as a new copy.
    assert found == set(HAND_BUILT_PAIRS), (
        "declare a one-model publisher -> replica pair with "
        "repro.apps.build_replicated_pair (or allow-list it here with its "
        "reason):\n" + "\n".join(sorted(found ^ set(HAND_BUILT_PAIRS)))
    )


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
    scripts = _scenario_modules() + ["__main__.py"]
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
    # The two shard demo.py, monitor/watch.py and the directed scenarios.
    assert len(modules) == 4, modules
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
    documented = set(re.findall(r"^    (\w+)", cli.__doc__, flags=re.M))
    assert documented == table
    readme = os.path.join(REPO_ROOT, "README.md")
    with open(readme, encoding="utf-8") as fh:
        toured = set(re.findall(r"`python -m repro (\w+)", fh.read()))
    assert toured == table


def test_each_failure_model_row_names_what_executes_it():
    """docs/architecture.md's failure-model table: each row's last column
    names registered directed scenarios or, where none runs it, tests."""
    from repro.runtime.conformance.scenarios import SCENARIOS

    with open(os.path.join(REPO_ROOT, "docs", "architecture.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Failure model", 1)[1]
    header, _rule, *rows = re.search(r"^\|.*(\n\|.*)*", section, re.M).group(0).splitlines()
    assert header.split("|")[-2].strip() == "scenario"
    for row in rows:
        names = re.findall(r"`([^`]+)`", row.split("|")[-2])
        assert names and all(
            name in SCENARIOS or os.path.isfile(os.path.join(REPO_ROOT, name.split("::")[0]))
            for name in names
        ), row


# -- the one worker step ------------------------------------------------------
#
# What happens to a popped batch lives in ``SubscriberWorkerPool.process``
# and ``.settle`` (``runtime/workers.py``); the pool's threads and the
# conformance harness's virtual workers both run them inside the pool's
# step gate (``stepping``), and both heal a decommissioned queue the
# pool's way. ``drain`` is the
# deliberate second consumer: it holds what it could not apply and
# re-queues once at the end.

#: method -> the (module, function) sites that may call it.
WORKER_STEP_CALLERS = {
    "defer": {("runtime/workers.py", "settle")},
    "heal": {
        ("runtime/workers.py", "settle"), ("runtime/workers.py", "_run"),
        ("runtime/conformance/harness.py", "_subscriber_loop"),
    },
    "nack": {("runtime/workers.py", "settle"), ("core/subscriber.py", "drain")},
    "process_batch": {
        ("runtime/workers.py", "process"), ("core/subscriber.py", "drain"),
    },
    "stepping": {
        ("runtime/workers.py", "_run"),
        ("runtime/conformance/harness.py", "_subscriber_loop"),
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


# -- off is a configuration, not a code path -------------------------------------
#
# Flow control, the WAL, CDC, the shard placement, the observers and a
# pool's batch sizer are always attached; "disabled" is an object that
# does nothing (``FLOW_OFF``, ``DURABILITY_OFF``, a CDC manager with no
# pollers, ``EVERY_QUEUE_LOCAL``, a recorder nobody reads). So no hook
# asks whether one is there, and no subsystem reads another's privates
# to find out what it holds.

#: What a presence check would be about, by the name it reads (leading
#: underscores ignored).
ATTACHMENTS = {
    "flow", "durability", "cdc", "recorder", "monitor", "tracer",
    "placement", "sizer",
}

#: A ``_``-prefixed attribute of the broker or of a queue's flow state.
BROKER_OR_FLOW_INTERNAL = re.compile(r"\b(?:broker|flow)\._(?!_)")


def _names_attachment(node) -> bool:
    import ast

    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        # A message's own fields (``message.cdc``) are data.
        if isinstance(node.value, ast.Name) and node.value.id == "message":
            return False
        name = node.attr
    else:
        return False
    return name.lstrip("_") in ATTACHMENTS


def _none_defaulted(function) -> set:
    args = function.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += list(zip(args.kwonlyargs, args.kw_defaults))
    return {
        arg.arg for arg, default in pairs
        if getattr(default, "value", 0) is None
    }


def presence_checks(tree) -> list:
    """Line numbers of every ``x is (not) None`` on an attachment and
    every three-argument ``getattr`` that reads or probes one. Exempt:
    the ``Message`` class's own fields, and a ``None``-defaulted argument
    of a module-level (pure) function, ``to_json(monitor=None)``."""
    import ast

    found = []

    def visit(node, exempt):
        if isinstance(node, ast.ClassDef) and node.name == "Message":
            return
        if isinstance(node, ast.FunctionDef) and node in tree.body:
            exempt = _none_defaulted(node)
        if isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(getattr(o, "value", 0) is None for o in operands) and any(
                _names_attachment(o) and getattr(o, "id", None) not in exempt
                for o in operands
            ):
                found.append(node.lineno)
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and len(node.args) == 3
            and (
                _names_attachment(node.args[0])
                or str(getattr(node.args[1], "value", "")).lstrip("_") in ATTACHMENTS
            )
        ):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, exempt)

    visit(tree, set())
    return found


def test_presence_check_finder_knows_every_spelling():
    import ast

    snippet = "\n".join([
        "if self.flow is not None: pass",
        "if queue.durability is None: pass",
        "recorder = getattr(eco, 'recorder', None)",
        "with getattr(self.durability, 'step', NO_STEP): pass",
        "if None is self._sizer: pass",
        "if message.cdc is None: pass",
        "if flow.capacity is not None: pass",
        "def to_json(registry, monitor=None):",
        "    return monitor is not None",
    ])
    assert presence_checks(ast.parse(snippet)) == [1, 2, 3, 4, 5]


def test_no_hook_asks_whether_a_subsystem_is_attached():
    import ast

    violations = []
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel_path = os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                lines = fh.read()
            violations += [
                f"{rel_path}:{lineno}: {lines.splitlines()[lineno - 1].strip()}"
                for lineno in presence_checks(ast.parse(lines))
            ]
    assert violations == [], (
        "a hook asks whether a subsystem is there — every subsystem is "
        "always attached; give it an off form that does nothing instead:\n"
        + "\n".join(violations)
    )


def test_broker_and_flow_internals_stay_home():
    """The durability manager snapshots queues and shed ledgers through
    their owners (``Broker.local_queues``, ``SubscriberQueue
    .durable_state``, ``QueueFlow.with_ledger``), never through their
    private fields."""
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if not rel_path.startswith(("broker/", "runtime/flow/"))
        and BROKER_OR_FLOW_INTERNAL.search(line)
    ]
    assert violations == [], "\n".join(violations)


# -- each component restores itself -------------------------------------------
#
# Restore hands each snapshot section and each WAL record to the
# component that owns the state (the table in docs/durability.md,
# "Restore"): the queue replays its own records, the version store
# restores its own counters, the subscriber its generations and dedup
# window, ``Message`` its sequence. ``durability/`` keeps the log.

#: What ``durability/`` may not touch of another package: version-store
#: keys and KV, the message sequence, subscriber state by assignment.
FOREIGN_STATE = re.compile(
    r"\._key\b|\.kv\.|\b_seq(_lock)?\b"
    r"|\bgenerations\[[^\]]*\]\s*=(?!=)|\.bootstrapping\s*=(?!=)"
)

#: Calls of the engine storage primitives (definitions excluded).
STORAGE_WRITE = re.compile(r"(?<!def )\b_do_(insert|update|delete)\(")
#: Who may call them: the mapper (its CRUD surface and the one raw
#: writer), the outbox's live write path, and a demo's injected
#: divergence.
STORAGE_WRITERS = {"orm/mapper.py", "cdc/outbox.py", "runtime/transport/demo.py"}


def test_durability_touches_no_foreign_state():
    violations = [
        f"{rel_path}:{lineno}: {line.strip()}"
        for rel_path, lineno, line in _source_lines()
        if rel_path.startswith("durability/") and FOREIGN_STATE.search(line)
    ]
    assert violations == [], (
        "durability/ restores another component's state by hand — give "
        "the owner a restore method:\n" + "\n".join(violations)
    )


def test_foreign_state_finder_knows_every_spelling():
    for line in (
        "key = pvs._key(hashed)", "pvs.kv.flushall()", "next(message_mod._seq)",
        "with _seq_lock:", "sub.generations[app] = g", "sub.bootstrapping = True",
    ):
        assert FOREIGN_STATE.search(line), line
    for line in ("if sub.generations[app] == g:", "Message.advance_sequence(uids)"):
        assert not FOREIGN_STATE.search(line), line


def test_replay_record_only_dispatches():
    """``_replay_record(rec, report)`` hands a record to its owner: it
    takes no per-queue map, and the manager keeps none of the maps the
    queue's own replay holds."""
    import ast

    with open(os.path.join(SRC_ROOT, "durability/manager.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    args = [arg.arg for arg in functions["_replay_record"].args.args]
    assert args == ["self", "rec", "report"]
    names = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    } | {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    assert not names & {"pending", "stats", "decommissioned", "shed", "max_seq"}


def test_one_raw_row_writer():
    """Snapshot restore and every WAL replay write rows through
    ``Mapper.upsert_raw`` / ``delete_raw``; nothing else spells a
    find-then-write at the storage layer."""
    upserts = [
        f"{rel_path}:{lineno}"
        for rel_path, lineno, line in _source_lines()
        if re.search(r"\bdef \w*upsert\w*\(", line)
    ]
    assert len(upserts) == 1 and upserts[0].startswith("orm/mapper.py"), upserts
    writers = {
        rel_path
        for rel_path, _lineno, line in _source_lines()
        if STORAGE_WRITE.search(line)
    }
    # Equality, so a stale entry fails as loudly as a new writer.
    assert writers == STORAGE_WRITERS


# -- one transition, announced once -------------------------------------------
#
# A durable pipeline transition is a row of ``interleave.TRANSITIONS`` and
# is announced by one ``emit`` inside the lock that orders it: the WAL
# hears it through the log's one sink (``log_transition``), the
# conformance checker through the record-only event ``emit`` hands the
# hook. A per-record ``log_*`` hook, a yield point repeating the
# transition's label, or a ``record_only`` flag choosing between a pause
# and a record would be a second announcement of the same step.

#: The one module and function that may call the log's sink.
SINK_CALLER = ("runtime/interleave.py", "emit")


def transition_seam_violations(tree, rel_path: str, names) -> list:
    """Line numbers of every spelling the rule forbids: a ``def log_*``
    other than ``log_transition``, a ``.log_*(`` call anywhere but
    :data:`SINK_CALLER`, a ``yield_point``/``observe_point`` labelled
    with a transition name (``names``), a ``record_only`` parameter."""
    import ast

    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            if node.name.startswith("log_") and node.name != "log_transition":
                found.append(node.lineno)
            function = node.name
        elif isinstance(node, ast.arg) and node.arg == "record_only":
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr.startswith("log_"):
                if (rel_path, function) != SINK_CALLER:
                    found.append(node.lineno)
            elif (
                getattr(func, "id", None) in ("yield_point", "observe_point")
                and node.args
                and getattr(node.args[0], "value", None) in names
            ):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(found)


def _parsed_sources():
    import ast

    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                rel_path = os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
                yield rel_path, source, ast.parse(source)


def test_transition_seam_finder_knows_every_spelling():
    import ast

    snippet = ast.parse("\n".join([
        "def log_pub(self, queue_name, message): pass",
        "def log_transition(self, transition, fields): pass",
        "self.durability.log_ack(self.name, message)",
        "def emit(log, transition, *fields):",
        "    log.log_transition(transition, fields)",
        "yield_point('queue.acked', queue=name, message=message)",
        "observe_point('generation.flush', app=app, generation=g)",
        "yield_point()",
        "yield_point('queue.ack', queue=name, message=message)",
        "def apply_counts(self, counts, record_only=False): pass",
    ]))
    names = {"queue.acked", "generation.flush"}
    assert transition_seam_violations(snippet, "runtime/interleave.py", names) == [
        1, 3, 6, 7, 10,
    ]
    assert transition_seam_violations(snippet, "broker/queue.py", names) == [
        1, 3, 5, 6, 7, 10,
    ]


def test_each_transition_is_announced_once():
    import ast

    from repro.runtime.interleave import TRANSITIONS

    names = {transition.name for transition in TRANSITIONS}
    violations, sinks = [], []
    for rel_path, source, tree in _parsed_sources():
        lines = source.splitlines()
        violations += [
            f"{rel_path}:{lineno}: {lines[lineno - 1].strip()}"
            for lineno in transition_seam_violations(tree, rel_path, names)
        ]
        sinks += [
            rel_path for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("log_")
        ]
    assert violations == [], (
        "a durable transition is announced twice — one "
        "emit(log, TRANSITION, *fields) inside the ordering lock, then a "
        "label-less yield_point() where the thread may switch:\n"
        + "\n".join(violations)
    )
    assert sinks == ["durability/manager.py"]
