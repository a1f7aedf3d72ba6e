"""Table 3: per-engine support code size.

The paper reports the ORM-specific and DB-specific lines of code needed
to support each engine (474 for ActiveRecord, ~200-300 per further ORM,
~50 per extra SQL vendor). We measure the analogous quantity in this
code base: the mapper (ORM adapter) source size per engine family, and
the per-vendor delta (the variant subclasses).

The paper's argument is that support code stays small, so the same file
tracks the size of the whole tree: code lines per package under
``src/repro`` (``python benchmarks/bench_table3_loc.py`` prints just
that table and writes nothing; ``--max-total N`` also exits 1 when the
total exceeds ``N`` — CI pins ``N`` at the last merged total, so the
number can only go down).
"""

from __future__ import annotations

import argparse
import ast
import inspect
import io
import os
import sys
import tokenize
from typing import Dict, Optional

from benchmarks.common import emit, format_table
from repro.databases.columnar.engine import CassandraLike
from repro.databases.document.engine import MongoLike, RethinkDBLike, TokuMXLike
from repro.databases.graph.engine import Neo4jLike
from repro.databases.relational.engine import MySQLLike, OracleLike, PostgresLike
from repro.databases.search.engine import ElasticsearchLike
from repro.orm import engine_mappers


_PACKAGE_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)
_NOT_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})


def loc_of(obj) -> int:
    return len(inspect.getsource(obj).splitlines())


def code_lines(source: str) -> int:
    """Lines of ``source`` that carry code: blank lines, comment-only
    lines and docstrings do not count, so neither deleting comments nor
    trimming prose moves the number."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def package_code_lines(root: str = _PACKAGE_ROOT) -> Dict[str, int]:
    """Code lines per top-level package under ``root`` (subpackages
    roll up into their parent; modules directly in ``root`` are
    ``(top level)``), plus a ``total`` row."""
    out: Dict[str, int] = {}
    for directory, _dirs, files in os.walk(root):
        relative = os.path.relpath(directory, root)
        package = "(top level)" if relative == "." else relative.split(os.sep)[0]
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    out[package] = out.get(package, 0) + code_lines(handle.read())
    out = dict(sorted(out.items()))
    out["total"] = sum(out.values())
    return out


def package_table(counts: Optional[Dict[str, int]] = None) -> list:
    return format_table(
        "Code lines per package under src/repro "
        "(non-blank, non-comment, docstrings excluded)",
        ["package", "code lines"],
        [[name, count] for name, count in (counts or package_code_lines()).items()],
    )


def test_table3_support_code_size(benchmark):
    mapper_loc = {
        "ActiveRecord (relational)": loc_of(engine_mappers.RelationalMapper),
        "Mongoid (document)": loc_of(engine_mappers.DocumentMapper),
        "Cequel (columnar)": loc_of(engine_mappers.ColumnarMapper),
        "Stretcher (search)": loc_of(engine_mappers.SearchMapper),
        "Neo4j (graph)": loc_of(engine_mappers.GraphMapper),
    }
    vendor_delta = {
        "PostgreSQL": loc_of(PostgresLike),
        "MySQL": loc_of(MySQLLike),
        "Oracle": loc_of(OracleLike),
        "MongoDB": loc_of(MongoLike),
        "TokuMX": loc_of(TokuMXLike),
        "RethinkDB": loc_of(RethinkDBLike),
        "Cassandra": loc_of(CassandraLike),
        "Elasticsearch": loc_of(ElasticsearchLike),
        "Neo4j": loc_of(Neo4jLike),
    }
    rows = [[name, loc] for name, loc in mapper_loc.items()]
    lines = format_table(
        "Table 3 (analogue) — ORM-adapter code per engine family",
        ["ORM adapter", "LoC"], rows,
    )
    rows2 = [[name, loc] for name, loc in vendor_delta.items()]
    lines += format_table(
        "Table 3 (analogue) — per-vendor variant code",
        ["vendor stand-in", "LoC"], rows2,
    )
    lines += package_table()
    emit(lines)

    # Shape: the first adapter (relational) is the largest; further
    # vendors of a supported family cost ~a few lines (the paper's "for
    # free with ActiveRecord" observation).
    assert mapper_loc["ActiveRecord (relational)"] == max(mapper_loc.values())
    for vendor in ("Oracle", "TokuMX", "RethinkDB"):
        assert vendor_delta[vendor] < 15

    benchmark(lambda: [loc_of(cls) for cls in
                       (engine_mappers.RelationalMapper, MongoLike)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--max-total", type=int, metavar="N",
        help="exit 1 when src/repro holds more than N code lines",
    )
    args = parser.parse_args(argv)
    counts = package_code_lines()
    print("\n".join(package_table(counts)))
    total = counts["total"]
    if args.max_total is not None and total > args.max_total:
        print(f"FAIL: {total} code lines under src/repro, over the "
              f"--max-total of {args.max_total}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - prints the tracked number
    sys.exit(main())
