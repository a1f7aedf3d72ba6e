"""Search query AST with TF-IDF scoring.

Queries evaluate against an index object exposing ``field_index(field)``
(an :class:`InvertedIndex`), ``field_analyzer(field)`` and
``all_doc_ids()``; ``matches`` returns ``{doc_id: score}``.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from repro.databases.search.analysis import analyze


class Query:
    def matches(self, index: Any) -> Dict[Any, float]:
        raise NotImplementedError


class MatchAll(Query):
    """Every document, score 1."""

    def matches(self, index: Any) -> Dict[Any, float]:
        return {doc_id: 1.0 for doc_id in index.all_doc_ids()}


class Term(Query):
    """Exact term in an analysed field (no analysis of the query string)."""

    def __init__(self, field: str, value: str) -> None:
        self.field = field
        self.value = value

    def matches(self, index: Any) -> Dict[Any, float]:
        inv = index.field_index(self.field)
        total_docs = max(len(index.all_doc_ids()), 1)
        df = inv.document_frequency(self.value)
        if df == 0:
            return {}
        idf = 1.0 + math.log(total_docs / df)
        return {
            doc_id: inv.term_frequency(self.value, doc_id) * idf
            for doc_id in inv.doc_ids(self.value)
        }


class Match(Query):
    """Analysed full-text match: query text is tokenised with the field's
    analyzer; documents matching any token score as the sum of TF-IDF."""

    def __init__(self, field: str, text: str) -> None:
        self.field = field
        self.text = text

    def matches(self, index: Any) -> Dict[Any, float]:
        analyzer = index.field_analyzer(self.field)
        scores: Dict[Any, float] = {}
        for token in analyze(self.text, analyzer):
            for doc_id, score in Term(self.field, token).matches(index).items():
                scores[doc_id] = scores.get(doc_id, 0.0) + score
        return scores
