"""WHERE-clause expression trees.

``where_from_dict({"name": "ada"})`` builds an expression the planner can
both evaluate against a row and introspect for index-equality candidates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class Expression:
    """Base predicate over a row (``dict`` of column -> value)."""

    def matches(self, row: Dict[str, Any]) -> bool:
        raise NotImplementedError

    def equality_candidates(self) -> List[Tuple[str, Any]]:
        """(column, value) pairs usable for index point-lookups.

        Only conjunctive top-level equalities qualify: the planner may use
        any one of them to narrow the scan, then re-check the full predicate.
        """
        return []

    def __bool__(self) -> bool:
        # ``and``/``or``/``not`` would silently drop a predicate.
        raise TypeError("a WHERE expression has no truth value")


class Always(Expression):
    """Matches every row; the default WHERE clause."""

    def matches(self, row: Dict[str, Any]) -> bool:
        return True

    def __repr__(self) -> str:
        return "ALWAYS"


ALWAYS = Always()


class Eq(Expression):
    def __init__(self, column: str, value: Any) -> None:
        self.column = column
        self.value = value

    def matches(self, row: Dict[str, Any]) -> bool:
        return row.get(self.column) == self.value

    def equality_candidates(self) -> List[Tuple[str, Any]]:
        return [(self.column, self.value)]

    def __repr__(self) -> str:
        return f"({self.column} = {self.value!r})"


class And(Expression):
    def __init__(self, *parts: Expression) -> None:
        self.parts = parts

    def matches(self, row: Dict[str, Any]) -> bool:
        return all(p.matches(row) for p in self.parts)

    def equality_candidates(self) -> List[Tuple[str, Any]]:
        out: List[Tuple[str, Any]] = []
        for p in self.parts:
            out.extend(p.equality_candidates())
        return out

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


def where_from_dict(conditions: Optional[Dict[str, Any]]) -> Expression:
    """Build a conjunction of equalities from a mapping (Mongo-ish sugar)."""
    if not conditions:
        return ALWAYS
    parts: List[Expression] = [Eq(column, value) for column, value in conditions.items()]
    if len(parts) == 1:
        return parts[0]
    return And(*parts)
