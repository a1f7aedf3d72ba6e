"""Search engine (Elasticsearch stand-in): analyzers, inverted index,
TF-IDF scored queries and the terms aggregation."""

from repro.databases.search.analysis import ANALYZERS, analyze
from repro.databases.search.engine import ElasticsearchLike, SearchDatabase
from repro.databases.search.query import Match, MatchAll, Term

__all__ = [
    "SearchDatabase",
    "ElasticsearchLike",
    "Term",
    "Match",
    "MatchAll",
    "analyze",
    "ANALYZERS",
]
