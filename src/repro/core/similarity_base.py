"""Common interface of all query-similarity methods.

Every method (Pearson, the SimRank family and the extra baselines) follows
the same two-phase protocol: :meth:`QuerySimilarityMethod.fit` analyses a
click graph once, after which query-query similarities and ranked rewrite
candidates can be read off repeatedly.  The evaluation harness only talks to
this interface, so methods are interchangeable.
"""

from __future__ import annotations

import abc
from typing import Hashable, List, Optional, Tuple

from repro.core.scores import SimilarityScores
from repro.graph.click_graph import ClickGraph

__all__ = ["QuerySimilarityMethod"]

Node = Hashable


class QuerySimilarityMethod(abc.ABC):
    """Base class for query-query similarity methods over a click graph."""

    #: Short machine-readable method name used by the registry and reports.
    name: str = "base"

    def __init__(self) -> None:
        self._graph: Optional[ClickGraph] = None
        self._query_scores: Optional[SimilarityScores] = None
        #: Bumped by every fit() and restore(); serving layers compare it to
        #: detect an out-of-band refit/restore and drop their caches.
        self._fit_generation = 0

    # ------------------------------------------------------------------- fit

    def fit(self, graph: ClickGraph) -> "QuerySimilarityMethod":
        """Analyse the click graph and cache query-query similarity scores.

        The replacement score store is computed *fully* before being
        published into ``self._query_scores`` (a single reference
        assignment), so a fit that raises mid-computation leaves the
        previously fitted scores untouched and still serving.  This is the
        build-then-publish half of the serving tier's refresh contract
        (see :meth:`repro.api.engine.RewriteEngine.refresh`).
        """
        self._graph = graph
        self._query_scores = self._compute_query_scores(graph)
        self._fit_generation += 1
        return self

    @abc.abstractmethod
    def _compute_query_scores(self, graph: ClickGraph) -> SimilarityScores:
        """Compute the pairwise query similarity scores for ``graph``."""

    def restore(
        self, scores: SimilarityScores, graph: Optional[ClickGraph] = None
    ) -> "QuerySimilarityMethod":
        """Adopt precomputed query scores as the fitted state, skipping the fit.

        This is the snapshot-loading path (:mod:`repro.api.snapshot`): the
        score store written by a previous :meth:`fit` is plugged back in, and
        every serving read -- :meth:`query_similarity`, :meth:`top_rewrites`,
        :meth:`covers` -- behaves exactly as if that fit had just returned.
        Backend-specific extras that do not feed query serving (ad-side
        scores, shard introspection, per-iteration histories) are *not*
        restored and keep their unfitted defaults.
        """
        self._graph = graph
        self._query_scores = scores
        self._fit_generation += 1
        return self

    # ---------------------------------------------------------------- access

    @property
    def is_fitted(self) -> bool:
        return self._query_scores is not None

    @property
    def graph(self) -> ClickGraph:
        self._require_fitted()
        return self._graph

    def similarities(self) -> SimilarityScores:
        """The full set of query-query similarity scores."""
        self._require_fitted()
        return self._query_scores

    def query_similarity(self, first: Node, second: Node) -> float:
        """Similarity of two queries (1 for identical queries, 0 if unrelated)."""
        self._require_fitted()
        return self._query_scores.score(first, second)

    def top_rewrites(
        self, query: Node, k: int = 5, minimum: float = 0.0
    ) -> List[Tuple[Node, float]]:
        """The ``k`` highest-scoring rewrite candidates for ``query``.

        These are *unfiltered* candidates; the sponsored-search front-end
        (:class:`repro.core.rewriter.QueryRewriter`) applies stemming-based
        deduplication and bid-term filtering on top.
        """
        self._require_fitted()
        return self._query_scores.top(query, k=k, minimum=minimum)

    def covers(self, query: Node) -> bool:
        """Whether the method can propose at least one rewrite for ``query``."""
        self._require_fitted()
        return bool(self._query_scores.top(query, k=1))

    # ------------------------------------------------------------------ misc

    def _require_fitted(self) -> None:
        if self._query_scores is None:
            raise RuntimeError(
                f"{type(self).__name__} has not been fitted; call .fit(graph) first"
            )

    def _require_fit_extra(self, value, what: str):
        """Guard for state that :meth:`fit` computes but :meth:`restore` cannot.

        Engine snapshots persist only the query-side scores, so on a restored
        method the backend extras (ad-side scores, iteration traces) are
        absent; accessing them must fail with this clear message rather than
        an ``AttributeError`` on ``None``.
        """
        if value is None:
            raise RuntimeError(
                f"{type(self).__name__} has no {what}: it is computed by "
                "fit() and not part of an engine snapshot -- refit on a "
                "click graph to recompute it"
            )
        return value

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}(name={self.name!r}, {state})"
