"""Full-text inverted index (slide 75: "Full-text search — in general quite
common.  Riak: Solr index + operations — wildcards, proximity search, range
search, Boolean operators, grouping").

A classic positional inverted index: term → {rid → [positions]}.  Queries
support the Solr-flavoured operations the tutorial lists:

* term and phrase search (positions make phrases exact);
* boolean combinators AND / OR / NOT;
* trailing-wildcard prefix search (``data*``);
* proximity search (two terms within *k* positions);
* simple TF scoring for ranked results.

MarkLogic's "universal index" (slide 81) — an inverted index over every word
*and* every element/property value — is realized by feeding documents through
:func:`extract_text` which walks nested values.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Any, Iterable

from repro.core import datamodel
from repro.core.datamodel import SortKey
from repro.indexes.base import Index, IndexCapabilities

__all__ = ["FullTextIndex", "tokenize", "extract_text"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_STOPWORDS = frozenset(
    "a an and are as at be by for from has he in is it its of on that the to was were will with".split()
)


def tokenize(text: str, keep_stopwords: bool = False) -> list[str]:
    """Lowercase word tokens in order (positions matter for phrases)."""
    tokens = _TOKEN_RE.findall(text.lower())
    if keep_stopwords:
        return tokens
    return [token for token in tokens if token not in _STOPWORDS]


def extract_text(value: Any) -> str:
    """Flatten any model value into searchable text (the universal-index
    behaviour: every word, JSON property value and XML text node)."""
    tag = datamodel.type_of(value)
    if tag is datamodel.TypeTag.STRING:
        return value
    if tag is datamodel.TypeTag.OBJECT:
        return " ".join(extract_text(item) for item in value.values())
    if tag is datamodel.TypeTag.ARRAY:
        return " ".join(extract_text(item) for item in value)
    if tag is datamodel.TypeTag.NULL:
        return ""
    return str(value)


class FullTextIndex(Index):
    """Positional inverted index with boolean, phrase, wildcard and
    proximity queries."""

    kind = "fulltext"
    capabilities = IndexCapabilities(point=False, text=True)

    def __init__(self, name: str = "", keep_stopwords: bool = False):
        self.name = name
        self._keep_stopwords = keep_stopwords
        self._postings: dict[str, dict[Any, list[int]]] = defaultdict(dict)
        self._doc_lengths: dict[Any, int] = {}

    # -- protocol ----------------------------------------------------------

    def insert(self, key: Any, rid: Any) -> None:
        """Index the text (or document) *key* under *rid*."""
        tokens = tokenize(extract_text(key), self._keep_stopwords)
        if rid in self._doc_lengths:
            self.delete(None, rid)
        for position, token in enumerate(tokens):
            self._postings[token].setdefault(rid, []).append(position)
        self._doc_lengths[rid] = len(tokens)

    def delete(self, key: Any, rid: Any) -> None:
        """Remove *rid* entirely (the text is not needed to unindex)."""
        if rid not in self._doc_lengths:
            return
        empty_terms = []
        for term, postings in self._postings.items():
            postings.pop(rid, None)
            if not postings:
                empty_terms.append(term)
        for term in empty_terms:
            del self._postings[term]
        del self._doc_lengths[rid]

    def search(self, key: Any) -> list[Any]:
        """Documents containing every token of *key* (implicit AND)."""
        return sorted(self.search_all(tokenize(str(key), self._keep_stopwords)), key=SortKey)

    def clear(self) -> None:
        self._postings.clear()
        self._doc_lengths.clear()

    def __len__(self) -> int:
        return len(self._postings)

    @property
    def document_count(self) -> int:
        return len(self._doc_lengths)

    # -- query operations -----------------------------------------------------

    def search_term(self, term: str) -> set:
        return set(self._postings.get(term.lower(), {}))

    def search_all(self, terms: Iterable[str]) -> set:
        """Boolean AND."""
        result: set | None = None
        for term in terms:
            hits = self.search_term(term)
            result = hits if result is None else result & hits
            if not result:
                return set()
        return result if result is not None else set()

    def search_any(self, terms: Iterable[str]) -> set:
        """Boolean OR."""
        result: set = set()
        for term in terms:
            result |= self.search_term(term)
        return result

    def search_not(self, include: str, exclude: str) -> set:
        """Boolean NOT: docs with *include* but without *exclude*."""
        return self.search_term(include) - self.search_term(exclude)

    def rank(self, terms: Iterable[str], limit: int = 10) -> list[tuple[Any, float]]:
        """TF-scored OR query: (rid, score) sorted best-first."""
        scores: dict[Any, float] = defaultdict(float)
        for term in terms:
            for rid, positions in self._postings.get(term.lower(), {}).items():
                length = max(self._doc_lengths.get(rid, 1), 1)
                scores[rid] += len(positions) / length
        ranked = sorted(scores.items(), key=lambda item: (-item[1], SortKey(item[0])))
        return ranked[:limit]
