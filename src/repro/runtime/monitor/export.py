"""Snapshot exposition: Prometheus text format and JSON.

Both printers read snapshots, never the live registry. Counters
export as ``counter`` samples, gauges as ``gauge`` samples, histograms
as ``summary`` families (``{quantile="0.5"|"0.99"}`` + ``_sum`` +
``_count``), all under the ``repro_`` prefix with dots mangled to underscores — e.g.
``subscriber.sub.dep_wait`` becomes ``repro_subscriber_sub_dep_wait``.
Mangling is a pure function of the registry name, so exposition names
are stable across snapshots and processes.

:func:`parse_prometheus` is the round-trip half: it parses the text
format back into ``{name: value | summary-dict}`` so tests (and
scrape-side tooling) can assert that every registry instrument survives
exposition.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Optional

#: Every exported sample name starts with this.
PREFIX = "repro_"

_QUANTILES = (("0.5", "p50"), ("0.99", "p99"))

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)

_LABEL_KEY_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def mangle(name: str) -> str:
    """Registry dot-name -> Prometheus sample name."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return PREFIX + safe


def escape_label_value(value: str) -> str:
    """Escape one label value per the exposition format: ``\\`` -> ``\\\\``,
    ``"`` -> ``\\"``, newline -> ``\\n`` (hostile service/shard names must
    not be able to break out of the quoted string)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    out: list = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def format_labels(labels: Dict[str, str]) -> str:
    """``{key="escaped value",...}`` with sorted keys; "" when empty."""
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + body + "}"


def _parse_labels(raw: str) -> Dict[str, str]:
    """Scan a label body, honouring ``\\"`` escapes inside quoted values
    (the regex above captures greedily up to the final ``}``)."""
    labels: Dict[str, str] = {}
    i = 0
    while i < len(raw):
        if raw[i] in ", ":
            i += 1
            continue
        match = _LABEL_KEY_RE.match(raw, i)
        if match is None:
            raise ValueError(f"unparseable label body: {raw!r}")
        key = match.group(0)
        i = match.end()
        if raw[i:i + 2] != '="':
            raise ValueError(f"unparseable label body: {raw!r}")
        i += 2
        start = i
        while i < len(raw):
            if raw[i] == "\\":
                i += 2
                continue
            if raw[i] == '"':
                break
            i += 1
        if i >= len(raw):
            raise ValueError(f"unterminated label value in: {raw!r}")
        labels[key] = unescape_label_value(raw[start:i])
        i += 1  # past the closing quote
    return labels


def to_prometheus(
    metrics: Dict[str, Any], labels: Optional[Dict[str, str]] = None
) -> str:
    """Render one ``MetricsRegistry.snapshot()`` in Prometheus text format.

    The instrument kind is the snapshot value's type: an ``int`` is a
    counter, a ``float`` a gauge, a summary dict a histogram. Families
    come out counters first, then gauges, then summaries, each sorted by
    name. ``labels`` (e.g. ``{"shard": "shard0"}``) are attached to
    every sample, escaped per the format, so hostile names cannot
    corrupt the exposition.
    """
    labels = labels or {}
    suffix = format_labels(labels)
    lines = []
    ordered = sorted(metrics.items(), key=lambda item: (
        isinstance(item[1], dict), isinstance(item[1], float), item[0],
    ))
    for name, value in ordered:
        sample = mangle(name)
        if isinstance(value, dict):
            lines.append(f"# TYPE {sample} summary")
            for quantile, key in _QUANTILES:
                quantile_labels = format_labels(dict(labels, quantile=quantile))
                lines.append(f"{sample}{quantile_labels} {value[key]:.9g}")
            lines.append(f"{sample}_sum{suffix} {value['sum']:.9g}")
            lines.append(f"{sample}_count{suffix} {value['count']}")
        elif isinstance(value, float):
            lines += [f"# TYPE {sample} gauge", f"{sample}{suffix} {value:.9g}"]
        else:
            lines += [f"# TYPE {sample} counter", f"{sample}{suffix} {value}"]
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, Any]:
    """Parse :func:`to_prometheus` output back into plain data.

    Counters map to their integer-ish value; summaries map to
    ``{"quantiles": {"0.5": v, "0.99": v}, "sum": v, "count": n}``.
    Samples carrying labels beyond ``quantile`` are keyed by
    ``name{canonical-labels}`` (sorted, re-escaped) and additionally
    expose their parsed labels under a ``"labels"`` entry for summaries,
    so a merged multi-shard exposition round-trips losslessly.
    """
    out: Dict[str, Any] = {}
    summaries: Dict[str, Dict[str, Any]] = {}
    types: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name = match.group("name")
        raw_labels = match.group("labels")
        labels = _parse_labels(raw_labels) if raw_labels else {}
        quantile = labels.pop("quantile", None)
        value = float(match.group("value"))
        # Extra labels (shard, service, ...) become part of the key, so
        # the same instrument from two shards stays two entries.
        key_suffix = format_labels(labels)

        def _summary(base: str) -> Dict[str, Any]:
            entry = summaries.setdefault(base + key_suffix, {})
            if labels:
                entry["labels"] = labels
            return entry

        if name.endswith("_sum") and types.get(name[:-4]) == "summary":
            _summary(name[:-4])["sum"] = value
        elif name.endswith("_count") and types.get(name[:-6]) == "summary":
            _summary(name[:-6])["count"] = int(value)
        elif types.get(name) == "summary" and quantile is not None:
            _summary(name).setdefault("quantiles", {})[quantile] = value
        else:
            out[name + key_suffix] = (
                int(value) if value == int(value) else value
            )
    out.update(summaries)
    return out


def to_json(report: Dict[str, Any]) -> str:
    """JSON exposition of an observability report — ``{"shards": {name:
    snapshot}, "missing": [...]}`` as ``ClusterPlane.snapshot`` returns
    it, plus whatever the caller adds (``watch`` adds ``round``)."""
    return json.dumps(report, indent=2, sort_keys=True)
