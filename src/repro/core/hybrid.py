"""Combining click-graph similarity with text-based similarity.

The paper's conclusions (Section 11) note that "methods for combining our
similarity scores with semantic text-based similarities could be considered".
This module provides that extension:

* :class:`TextSimilarity` -- a purely lexical query similarity (Jaccard
  overlap of stemmed tokens), useful on its own as another baseline and as
  the text component of the hybrid.
* :class:`HybridSimilarity` -- a linear combination of any click-graph
  method with the text similarity, ``alpha * graph + (1 - alpha) * text``.
  Pairs that only one component knows about are still scored, which lets the
  hybrid cover queries that have click evidence but no lexical overlap and
  vice versa.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.scores import SimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.graph.click_graph import ClickGraph
from repro.text.normalize import tokenize
from repro.text.porter import stem

__all__ = ["TextSimilarity", "HybridSimilarity", "text_similarity"]

Node = Hashable


def text_similarity(first: Node, second: Node) -> float:
    """Jaccard overlap of the stemmed tokens of two query strings."""
    first_stems = {stem(token) for token in tokenize(str(first))}
    second_stems = {stem(token) for token in tokenize(str(second))}
    union = first_stems | second_stems
    if not union:
        return 0.0
    return len(first_stems & second_stems) / len(union)


class TextSimilarity(QuerySimilarityMethod):
    """Lexical query-query similarity over the queries present in a click graph.

    Only pairs with at least one shared stemmed token receive a score, so the
    all-pairs computation stays near-linear via a stem -> queries index.
    """

    name = "text"

    def _compute_query_scores(self, graph: ClickGraph) -> SimilarityScores:
        scores = SimilarityScores()
        by_stem = {}
        for query in graph.queries():
            # dict.fromkeys dedups while keeping token order -- iterating a
            # set here would visit stems in hash order and make the
            # insertion order of by_stem (and anything downstream that
            # enumerates it) vary with PYTHONHASHSEED.
            for token in dict.fromkeys(tokenize(str(query))):
                by_stem.setdefault(stem(token), set()).add(query)
        seen = set()
        for queries in by_stem.values():
            ordered = sorted(queries, key=repr)
            for i, first in enumerate(ordered):
                for second in ordered[i + 1:]:
                    key = (first, second)
                    if key in seen:
                        continue
                    seen.add(key)
                    value = text_similarity(first, second)
                    if value > 0.0:
                        scores.set(first, second, value)
        return scores


class HybridSimilarity(QuerySimilarityMethod):
    """Linear combination of a click-graph method and text similarity.

    ``alpha`` is the weight of the click-graph component; ``alpha=1`` reduces
    to the graph method, ``alpha=0`` to pure text similarity.
    """

    name = "hybrid"

    def __init__(self, graph_method: QuerySimilarityMethod, alpha: float = 0.7) -> None:
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.graph_method = graph_method
        self.alpha = alpha
        self.name = f"hybrid({graph_method.name}, alpha={alpha:g})"
        self._text = TextSimilarity()

    def _compute_query_scores(self, graph: ClickGraph) -> SimilarityScores:
        # Always refit the inner method.  It used to be skipped when
        # `graph_method.graph is graph`, but graphs are mutated *in place*
        # by RewriteEngine.refresh (and may be by callers), and an identity
        # check cannot see that -- the method holds the very object that
        # changed -- so the shortcut served stale pre-mutation scores.
        self.graph_method.fit(graph)
        self._text.fit(graph)
        graph_scores = self.graph_method.similarities()
        text_scores = self._text.similarities()

        combined = SimilarityScores()
        # Order-preserving union: graph pairs first, then text-only pairs.
        # A set union here would enumerate pairs in hash order, making the
        # insertion order of `combined` depend on PYTHONHASHSEED.
        pairs = dict.fromkeys((a, b) for a, b, _ in graph_scores.pairs())
        pairs.update(dict.fromkeys((a, b) for a, b, _ in text_scores.pairs()))
        for first, second in pairs:
            value = self.alpha * graph_scores.score(first, second) + (1 - self.alpha) * (
                text_scores.score(first, second)
            )
            if value > 0.0:
                combined.set(first, second, value)
        return combined

    def component_scores(self, first: Node, second: Node) -> tuple:
        """The (graph, text) components behind a hybrid score, for inspection."""
        self._require_fitted()
        return (
            self.graph_method.query_similarity(first, second),
            self._text.query_similarity(first, second),
        )
