"""Per-field inverted index with term frequencies."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Set


class InvertedIndex:
    """term -> {doc_id: term_frequency} for one analysed field."""

    def __init__(self) -> None:
        self.postings: Dict[str, Dict[Any, int]] = defaultdict(dict)
        self.doc_lengths: Dict[Any, int] = {}

    def add(self, doc_id: Any, tokens: Iterable[str]) -> None:
        tokens = list(tokens)
        self.doc_lengths[doc_id] = len(tokens)
        for token in tokens:
            bucket = self.postings[token]
            bucket[doc_id] = bucket.get(doc_id, 0) + 1

    def remove(self, doc_id: Any) -> None:
        self.doc_lengths.pop(doc_id, None)
        empty_terms: List[str] = []
        for term, bucket in self.postings.items():
            bucket.pop(doc_id, None)
            if not bucket:
                empty_terms.append(term)
        for term in empty_terms:
            del self.postings[term]

    def doc_ids(self, term: str) -> Set[Any]:
        return set(self.postings.get(term, ()))

    def term_frequency(self, term: str, doc_id: Any) -> int:
        return self.postings.get(term, {}).get(doc_id, 0)

    def document_frequency(self, term: str) -> int:
        return len(self.postings.get(term, ()))
