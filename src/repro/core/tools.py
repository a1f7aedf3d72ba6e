"""Operator tooling: ecosystem topology description (the Fig 10/11 view)
and the CLI's flag reader."""

from __future__ import annotations

from typing import Any, Dict, List


def flags(args: List[str], **defaults: Any) -> Dict[str, Any]:
    """Value-taking CLI flags by keyword: ``flags(args, writes=20,
    queue_limit=None)`` reads ``--writes N`` and ``--queue-limit Q``.
    A given flag is coerced to the type of its default (left a string
    under a ``None`` default); an absent one is its default."""
    out = dict(defaults)
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        if flag in args:
            value = args[args.index(flag) + 1]
            out[key] = value if default is None else type(default)(value)
    return out


def describe_ecosystem(ecosystem: Any) -> str:
    """Human-readable topology: services, engines, publications and
    subscriptions with their delivery modes."""
    lines: List[str] = ["== ecosystem topology =="]
    for name in sorted(ecosystem.services):
        service = ecosystem.services[name]
        engine = (
            service.database.engine_family if service.database is not None
            else "(no DB)"
        )
        lines.append(f"  {name} [{engine}]")
        for model_cls, fields in service._published.items():
            lines.append(
                f"    publishes {model_cls.__name__}({', '.join(fields)}) "
                f"[{service.delivery_mode}]"
            )
        for (from_app, model_name), spec in sorted(service.subscriber.specs.items()):
            flavour = " (observer)" if spec.observer else ""
            lines.append(
                f"    subscribes {from_app}/{model_name}"
                f"({', '.join(spec.fields)}) [{spec.mode}]{flavour}"
            )
    return "\n".join(lines)


def publisher_file(service: Any) -> dict:
    """The per-publisher file of §3.1: every published model with its
    attributes and the publisher's delivery mode, handed to developers
    writing subscribers. JSON-serialisable."""
    models = {}
    for model_cls, fields in service._published.items():
        models[model_cls.__name__] = {
            "uri": f"{service.name}/{model_cls.__name__}",
            "attributes": list(fields),
            "types": model_cls.type_chain(),
        }
    return {
        "app": service.name,
        "delivery_mode": service.delivery_mode,
        "models": models,
    }


def to_dot(ecosystem: Any) -> str:
    """GraphViz DOT of the service graph (solid = causal, dashed = weak,
    bold = global)."""
    styles = {"causal": "solid", "weak": "dashed", "global": "bold"}
    lines = ["digraph synapse {", "  rankdir=LR;"]
    for name in sorted(ecosystem.services):
        service = ecosystem.services[name]
        engine = (
            service.database.engine_family if service.database is not None
            else "ephemeral"
        )
        lines.append(f'  "{name}" [label="{name}\\n({engine})"];')
    seen = set()
    for name in sorted(ecosystem.services):
        service = ecosystem.services[name]
        for (from_app, _model), spec in sorted(service.subscriber.specs.items()):
            key = (from_app, name, spec.mode)
            if key in seen:
                continue
            seen.add(key)
            style = styles.get(spec.mode, "solid")
            lines.append(f'  "{from_app}" -> "{name}" [style={style}];')
    lines.append("}")
    return "\n".join(lines)
