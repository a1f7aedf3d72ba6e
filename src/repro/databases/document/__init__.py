"""Schemaless document store (MongoDB / TokuMX / RethinkDB stand-ins)."""

from repro.databases.document.engine import (
    DocumentDatabase,
    MongoLike,
    RethinkDBLike,
    TokuMXLike,
)

__all__ = [
    "DocumentDatabase",
    "MongoLike",
    "TokuMXLike",
    "RethinkDBLike",
]
