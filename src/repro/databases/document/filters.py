"""MongoDB-style filter evaluation.

Supports dot-path field access, the common ``$``-operators, and Mongo's
array-membership semantics (a scalar condition matches when the field is
an array containing a matching element).
"""

from __future__ import annotations

import re
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
    parts = path.split(".")
    current = doc
    for part in parts[:-1]:
        nxt = current.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            current[part] = nxt
        current = nxt
    current[parts[-1]] = value


def _compare(op: str, value: Any, target: Any) -> bool:
    if op == "$ne":
        return value != target
    if op == "$exists":
        return (value is not _MISSING) == bool(target)
    if value is _MISSING or value is None:
        return False
    if op == "$gt":
        return _safe_order(value, target) and value > target
    if op == "$gte":
        return _safe_order(value, target) and value >= target
    if op == "$lt":
        return _safe_order(value, target) and value < target
    if op == "$lte":
        return _safe_order(value, target) and value <= target
    if op == "$in":
        return value in target
    if op == "$nin":
        return value not in target
    if op == "$regex":
        return isinstance(value, str) and re.search(target, value) is not None
    if op == "$all":
        return isinstance(value, list) and all(t in value for t in target)
    if op == "$size":
        return isinstance(value, list) and len(value) == target
    if op == "$elemMatch":
        if not isinstance(value, list):
            return False
        return any(
            matches_filter(element, target) if isinstance(element, dict)
            else _match_condition(element, target)
            for element in value
        )
    raise DatabaseError(f"unknown filter operator {op!r}")


def _safe_order(a: Any, b: Any) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return not isinstance(a, bool) and not isinstance(b, bool)
    return type(a) is type(b)


def _match_condition(value: Any, condition: Any) -> bool:
    """Match one field value against one condition (scalar or op-dict)."""
    if isinstance(condition, dict) and any(k.startswith("$") for k in condition):
        checks = []
        for op, target in condition.items():
            if op in ("$in", "$nin", "$all") and isinstance(value, list):
                # Array field: $in matches when any element is in target.
                if op == "$in":
                    checks.append(any(v in target for v in value))
                    continue
                if op == "$nin":
                    checks.append(all(v not in target for v in value))
                    continue
            checks.append(_compare(op, value, target))
        return all(checks)
    # Scalar equality; Mongo semantics: an array field matches when it
    # contains the scalar (or equals the whole array).
    if isinstance(value, list) and not isinstance(condition, list):
        return condition in value
    if value is _MISSING:
        return condition is None
    return value == condition


def matches_filter(doc: Dict[str, Any], query: Dict[str, Any]) -> bool:
    """True when the document satisfies the whole filter document."""
    for key, condition in query.items():
        if key == "$or":
            if not any(matches_filter(doc, sub) for sub in condition):
                return False
            continue
        if key == "$and":
            if not all(matches_filter(doc, sub) for sub in condition):
                return False
            continue
        if key == "$nor":
            if any(matches_filter(doc, sub) for sub in condition):
                return False
            continue
        if not _match_condition(get_path(doc, key), condition):
            return False
    return True


def apply_update(doc: Dict[str, Any], update: Dict[str, Any]) -> Dict[str, Any]:
    """Apply a Mongo update document; returns the new document.

    A document without ``$``-operators replaces everything but ``_id``.
    """
    if not any(k.startswith("$") for k in update):
        new_doc = dict(update)
        new_doc["_id"] = doc["_id"]
        return new_doc
    new_doc = _deep_copy(doc)
    for op, spec in update.items():
        if op == "$set":
            for path, value in spec.items():
                set_path(new_doc, path, value)
        elif op == "$inc":
            for path, delta in spec.items():
                current = get_path(new_doc, path)
                base = current if isinstance(current, (int, float)) else 0
                set_path(new_doc, path, base + delta)
        elif op == "$push":
            for path, value in spec.items():
                current = get_path(new_doc, path)
                arr = list(current) if isinstance(current, list) else []
                arr.append(value)
                set_path(new_doc, path, arr)
        elif op == "$pull":
            for path, value in spec.items():
                current = get_path(new_doc, path)
                if isinstance(current, list):
                    set_path(new_doc, path, [v for v in current if v != value])
        elif op == "$addToSet":
            for path, value in spec.items():
                current = get_path(new_doc, path)
                arr = list(current) if isinstance(current, list) else []
                if value not in arr:
                    arr.append(value)
                set_path(new_doc, path, arr)
        else:
            raise DatabaseError(f"unknown update operator {op!r}")
    return new_doc


def _deep_copy(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _deep_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_deep_copy(v) for v in value]
    return value
