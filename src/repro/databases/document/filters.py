"""MongoDB-style filter and update evaluation.

A filter is a conjunction of dot-path equalities with Mongo's
array-membership semantics (a scalar condition matches when the field is
an array containing it); an update sets dot-paths with ``$set``. These
are the shapes the ORM mapper sends; any other ``$``-operator raises
rather than being ignored.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import DatabaseError

_MISSING = object()


def get_path(doc: Dict[str, Any], path: str) -> Any:
    """Resolve ``a.b.c`` through nested dicts; returns _MISSING when absent."""
    current: Any = doc
    for part in path.split("."):
        if isinstance(current, dict):
            if part not in current:
                return _MISSING
            current = current[part]
        elif isinstance(current, list) and part.isdigit():
            idx = int(part)
            if idx >= len(current):
                return _MISSING
            current = current[idx]
        else:
            return _MISSING
    return current


def set_path(doc: Dict[str, Any], path: str, value: Any) -> None:
    """Set ``a.b.c`` creating intermediate dicts."""
    if "." not in path:
        doc[path] = value
        return
    parts = path.split(".")
    current = doc
    for part in parts[:-1]:
        nxt = current.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            current[part] = nxt
        current = nxt
    current[parts[-1]] = value


def check_filter(query: Dict[str, Any]) -> None:
    """Raise on a ``$``-operator, at the top level or in a field's
    condition: a filter this engine ignored would silently match nothing."""
    for path, condition in query.items():
        keys = [path, *condition] if isinstance(condition, dict) else [path]
        for key in keys:
            if key.startswith("$"):
                raise DatabaseError(f"unsupported filter operator {key!r}")


def matches_filter(doc: Dict[str, Any], query: Dict[str, Any]) -> bool:
    """True when the document satisfies every condition of a filter that
    :func:`check_filter` accepted. An absent field matches ``None``."""
    for path, condition in query.items():
        value = get_path(doc, path)
        if isinstance(value, list) and not isinstance(condition, list):
            if condition not in value:
                return False
        elif value is _MISSING:
            if condition is not None:
                return False
        elif value != condition:
            return False
    return True


def set_fields(update: Dict[str, Any]) -> Dict[str, Any]:
    """The ``{path: value}`` mapping of a ``{"$set": ...}`` update; any
    other operator, or a whole-document replacement, raises."""
    for key in update:
        if key != "$set":
            raise DatabaseError(f"unsupported update operator {key!r}: only $set")
    return update.get("$set", {})


def _deep_copy(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _deep_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_deep_copy(v) for v in value]
    return value
