"""Mini relational engine (PostgreSQL / MySQL / Oracle stand-ins).

Typed schemas, secondary indexes, an expression-tree WHERE planner,
transactions with undo logs and two-phase-commit hooks, and optional
``RETURNING *`` support (present on the PostgreSQL/Oracle-like variants,
absent on the MySQL-like variant, mirroring §4.1 of the paper).
"""

from repro.databases.relational.engine import (
    MySQLLike,
    OracleLike,
    PostgresLike,
    RelationalDatabase,
)
from repro.databases.relational.expression import ALWAYS
from repro.databases.relational.schema import Column, Index, TableSchema
from repro.databases.relational.types import (
    Boolean,
    Float,
    Integer,
    Json,
    Text,
    Timestamp,
)

__all__ = [
    "RelationalDatabase",
    "PostgresLike",
    "MySQLLike",
    "OracleLike",
    "TableSchema",
    "Column",
    "Index",
    "ALWAYS",
    "Integer",
    "Float",
    "Text",
    "Boolean",
    "Json",
    "Timestamp",
]
