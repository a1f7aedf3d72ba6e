"""Text analysis pipelines (Elasticsearch analyzer semantics).

- ``simple``: split on non-letters, lowercase (the analyzer used in the
  paper's Sub1b example).
- ``standard``: split on non-alphanumerics, lowercase, drop English
  stopwords.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List

_LETTERS = re.compile(r"[a-zA-Z]+")
_ALNUM = re.compile(r"[a-zA-Z0-9]+")

STOPWORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)


def simple_analyzer(text: str) -> List[str]:
    return [t.lower() for t in _LETTERS.findall(text)]


def standard_analyzer(text: str) -> List[str]:
    return [
        token
        for token in (t.lower() for t in _ALNUM.findall(text))
        if token not in STOPWORDS
    ]


ANALYZERS: Dict[str, Callable[[str], List[str]]] = {
    "simple": simple_analyzer,
    "standard": standard_analyzer,
}


def analyze(text: str, analyzer: str = "standard") -> List[str]:
    """Tokenise ``text`` with the named analyzer."""
    try:
        fn = ANALYZERS[analyzer]
    except KeyError:
        raise ValueError(f"unknown analyzer {analyzer!r}") from None
    return fn(text)
