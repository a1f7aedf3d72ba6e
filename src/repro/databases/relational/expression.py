"""WHERE-clause expression trees.

``Col("age") >= 21`` builds an expression the planner can both evaluate
against a row and introspect for index-equality candidates.
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

    def __and__(self, other: "Expression") -> "Expression":
        return And(self, other)

    def __or__(self, other: "Expression") -> "Expression":
        return Or(self, other)

    def __bool__(self) -> bool:
        # ``and``/``or``/``not`` would silently drop a predicate, and
        # ``Col(c) != v`` (no ``!=`` node) would quietly become a bool.
        raise TypeError("a WHERE expression has no truth value; use & and |")


class Always(Expression):
    """Matches every row; the default WHERE clause."""

    def matches(self, row: Dict[str, Any]) -> bool:
        return True

    def __repr__(self) -> str:
        return "ALWAYS"


ALWAYS = Always()


class _Comparison(Expression):
    op = "?"

    def __init__(self, column: str, value: Any) -> None:
        self.column = column
        self.value = value

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


def _comparable(row_value: Any, target: Any) -> bool:
    """Guard mixed-type comparisons that Python 3 would raise on."""
    if row_value is None or target is None:
        return False
    if isinstance(row_value, (int, float)) and isinstance(target, (int, float)):
        return True
    return type(row_value) is type(target)


class Eq(_Comparison):
    op = "="

    def matches(self, row: Dict[str, Any]) -> bool:
        return row.get(self.column) == self.value

    def equality_candidates(self) -> List[Tuple[str, Any]]:
        return [(self.column, self.value)]


class Lt(_Comparison):
    op = "<"

    def matches(self, row: Dict[str, Any]) -> bool:
        v = row.get(self.column)
        return _comparable(v, self.value) and v < self.value


class Gt(_Comparison):
    op = ">"

    def matches(self, row: Dict[str, Any]) -> bool:
        v = row.get(self.column)
        return _comparable(v, self.value) and v > self.value


class Ge(_Comparison):
    op = ">="

    def matches(self, row: Dict[str, Any]) -> bool:
        v = row.get(self.column)
        return _comparable(v, self.value) and v >= self.value


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


class Or(Expression):
    def __init__(self, *parts: Expression) -> None:
        self.parts = parts

    def matches(self, row: Dict[str, Any]) -> bool:
        return any(p.matches(row) for p in self.parts)

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


class Col:
    """Column reference with operator overloading: ``Col('age') > 3``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: Any) -> Expression:  # type: ignore[override]
        return Eq(self.name, other)

    def __lt__(self, other: Any) -> Expression:
        return Lt(self.name, other)

    def __gt__(self, other: Any) -> Expression:
        return Gt(self.name, other)

    def __ge__(self, other: Any) -> Expression:
        return Ge(self.name, other)

    __hash__ = None  # type: ignore[assignment]


def where_from_dict(conditions: Optional[Dict[str, Any]]) -> Expression:
    """Build a conjunction of equalities from a mapping (Mongo-ish sugar)."""
    if not conditions:
        return ALWAYS
    parts: List[Expression] = [Eq(column, value) for column, value in conditions.items()]
    if len(parts) == 1:
        return parts[0]
    return And(*parts)
