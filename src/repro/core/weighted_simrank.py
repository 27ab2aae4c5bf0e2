"""Weighted SimRank -- "Simrank++" (paper Section 8).

Weighted SimRank changes the underlying random walk so the resulting scores
are *consistent* with the click graph's weights (Definition 8.1).  The
transition factor from a node ``α`` to a neighbour ``i`` combines two pieces:

* ``spread(i) = exp(-variance(i))`` -- how concentrated the weights of the
  edges incident to ``i`` are (a "reliable" ad whose clicks are spread evenly
  over its queries passes more similarity), and
* ``normalized_weight(α, i) = w(α, i) / sum_{j in E(α)} w(α, j)`` -- the share
  of ``α``'s weight that goes to ``i``.

The similarity equations then read (with the evidence factor of Section 7):

.. math::

   s_w(q, q') = evidence(q, q') \\cdot C_1
       \\sum_{i \\in E(q)} \\sum_{j \\in E(q')} W(q, i) W(q', j) s_w(i, j)

and symmetrically for ads, with ``s_w(v, v) = 1``.  The fixpoint is computed
by Jacobi iteration from the identity, like plain SimRank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.config import SimrankConfig
from repro.core.evidence import evidence_score
from repro.core.scores import SimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.simrank import _component_pairs, _max_delta, _to_scores
from repro.graph.click_graph import ClickGraph, WeightSource

__all__ = ["WeightedSimrank", "WeightedSimrankResult", "spread", "transition_factors"]

Node = Hashable
Pair = Tuple[Node, Node]


def spread(
    graph: ClickGraph,
    node: Node,
    side: str,
    source: WeightSource = WeightSource.EXPECTED_CLICK_RATE,
) -> float:
    """``spread(i) = exp(-variance(i))`` of the weights incident to ``i``.

    ``side`` says which side of the bipartite graph ``node`` lives on
    (``'query'`` or ``'ad'``).  Population variance is used; a node with a
    single incident edge has zero variance and spread 1.
    """
    if side == "query":
        weights = list(graph.query_weights(node, source).values())
    elif side == "ad":
        weights = list(graph.ad_weights(node, source).values())
    else:
        raise ValueError(f"side must be 'query' or 'ad', got {side!r}")
    if not weights:
        return 1.0
    mean = sum(weights) / len(weights)
    variance = sum((weight - mean) ** 2 for weight in weights) / len(weights)
    return math.exp(-variance)


def transition_factors(
    graph: ClickGraph,
    source: WeightSource = WeightSource.EXPECTED_CLICK_RATE,
) -> Tuple[Dict[Tuple[Node, Node], float], Dict[Tuple[Node, Node], float]]:
    """The ``W(q, i)`` and ``W(α, i)`` factors of the weighted random walk.

    Returns ``(query_factors, ad_factors)`` where ``query_factors[(q, a)]``
    is ``W(q, a) = spread(a) * normalized_weight(q, a)`` and
    ``ad_factors[(a, q)] = W(a, q) = spread(q) * normalized_weight(a, q)``.
    """
    ad_spread = {ad: spread(graph, ad, "ad", source) for ad in graph.ads()}
    query_spread = {query: spread(graph, query, "query", source) for query in graph.queries()}

    query_factors: Dict[Tuple[Node, Node], float] = {}
    for query in graph.queries():
        weights = graph.query_weights(query, source)
        total = sum(weights.values())
        if total <= 0:
            continue
        for ad, weight in weights.items():
            query_factors[(query, ad)] = ad_spread[ad] * weight / total

    ad_factors: Dict[Tuple[Node, Node], float] = {}
    for ad in graph.ads():
        weights = graph.ad_weights(ad, source)
        total = sum(weights.values())
        if total <= 0:
            continue
        for query, weight in weights.items():
            ad_factors[(ad, query)] = query_spread[query] * weight / total

    return query_factors, ad_factors


@dataclass
class WeightedSimrankResult:
    """Both-side weighted SimRank scores plus the iteration trace."""

    query_scores: SimilarityScores
    ad_scores: SimilarityScores
    iterations_run: int
    converged: bool = False
    query_history: List[SimilarityScores] = field(default_factory=list)
    ad_history: List[SimilarityScores] = field(default_factory=list)


class WeightedSimrank(QuerySimilarityMethod):
    """Weighted, evidence-scaled SimRank over a weighted click graph."""

    name = "weighted_simrank"

    def __init__(
        self,
        config: Optional[SimrankConfig] = None,
        track_history: bool = False,
        use_evidence: bool = True,
        max_pairs: int = 2_000_000,
    ) -> None:
        super().__init__()
        self.config = config or SimrankConfig()
        self.track_history = track_history
        #: The paper's weighted SimRank includes the evidence factor; setting
        #: this to False gives the "weights only" ablation.
        self.use_evidence = use_evidence
        self.max_pairs = max_pairs
        self._result: Optional[WeightedSimrankResult] = None

    # -------------------------------------------------------------- fit path

    def _compute_query_scores(self, graph: ClickGraph) -> SimilarityScores:
        self._result = self._run(graph)
        return self._result.query_scores

    def restore(self, scores, graph=None) -> "WeightedSimrank":
        """Adopt precomputed query scores; the full result object is fit-only."""
        super().restore(scores, graph)
        self._result = None
        return self

    @property
    def result(self) -> WeightedSimrankResult:
        self._require_fitted()
        return self._require_fit_extra(self._result, "WeightedSimrankResult")

    @property
    def query_history(self) -> List[SimilarityScores]:
        """Per-iteration query scores (only when history tracking is on)."""
        self._require_fitted()
        return list(
            self._require_fit_extra(self._result, "iteration history").query_history
        )

    def ad_similarity(self, first: Node, second: Node) -> float:
        """Weighted similarity of two ads."""
        self._require_fitted()
        return self._require_fit_extra(self._result, "ad-side scores").ad_scores.score(
            first, second
        )

    # ------------------------------------------------------------- iteration

    def _run(self, graph: ClickGraph) -> WeightedSimrankResult:
        source = self.config.weight_source
        query_pairs, ad_pairs = _component_pairs(graph, self.max_pairs)
        query_neighbors = {query: list(graph.ads_of(query)) for query in graph.queries()}
        ad_neighbors = {ad: list(graph.queries_of(ad)) for ad in graph.ads()}
        query_factors, ad_factors = transition_factors(graph, source)

        query_evidence = self._pair_evidence(graph, query_pairs, side="query")
        ad_evidence = self._pair_evidence(graph, ad_pairs, side="ad")

        sim_q: Dict[Pair, float] = {pair: 0.0 for pair in query_pairs}
        sim_a: Dict[Pair, float] = {pair: 0.0 for pair in ad_pairs}
        history_q: List[SimilarityScores] = []
        history_a: List[SimilarityScores] = []
        converged = False
        iterations_run = 0

        for _ in range(self.config.iterations):
            iterations_run += 1
            new_q = self._update_side(
                pairs=query_pairs,
                neighbors=query_neighbors,
                factors=query_factors,
                evidence=query_evidence,
                other_scores=sim_a,
                decay=self.config.c1,
            )
            new_a = self._update_side(
                pairs=ad_pairs,
                neighbors=ad_neighbors,
                factors=ad_factors,
                evidence=ad_evidence,
                other_scores=sim_q,
                decay=self.config.c2,
            )
            delta = max(_max_delta(sim_q, new_q), _max_delta(sim_a, new_a))
            sim_q, sim_a = new_q, new_a
            if self.track_history:
                history_q.append(_to_scores(sim_q))
                history_a.append(_to_scores(sim_a))
            if self.config.tolerance > 0 and delta < self.config.tolerance:
                converged = True
                break

        return WeightedSimrankResult(
            query_scores=_to_scores(sim_q),
            ad_scores=_to_scores(sim_a),
            iterations_run=iterations_run,
            converged=converged,
            query_history=history_q,
            ad_history=history_a,
        )

    def _update_side(
        self,
        pairs: List[Pair],
        neighbors: Dict[Node, List[Node]],
        factors: Dict[Tuple[Node, Node], float],
        evidence: Dict[Pair, float],
        other_scores: Dict[Pair, float],
        decay: float,
    ) -> Dict[Pair, float]:
        updated: Dict[Pair, float] = {}
        floor = self.config.zero_evidence_floor
        for first, second in pairs:
            evidence_factor = evidence.get((first, second), 0.0) if self.use_evidence else 1.0
            if self.use_evidence and evidence_factor == 0.0:
                evidence_factor = floor
            if evidence_factor == 0.0:
                updated[(first, second)] = 0.0
                continue
            total = 0.0
            for i in neighbors[first]:
                w_first = factors.get((first, i), 0.0)
                if w_first == 0.0:
                    continue
                for j in neighbors[second]:
                    w_second = factors.get((second, j), 0.0)
                    if w_second == 0.0:
                        continue
                    if i == j:
                        score = 1.0
                    else:
                        score = other_scores.get((i, j), other_scores.get((j, i), 0.0))
                    if score != 0.0:
                        total += w_first * w_second * score
            updated[(first, second)] = evidence_factor * decay * total
        return updated

    def _pair_evidence(
        self, graph: ClickGraph, pairs: List[Pair], side: str
    ) -> Dict[Pair, float]:
        evidence: Dict[Pair, float] = {}
        if side == "query":
            neighbor_sets = {query: set(graph.ads_of(query)) for query in graph.queries()}
        else:
            neighbor_sets = {ad: set(graph.queries_of(ad)) for ad in graph.ads()}
        for first, second in pairs:
            common = len(neighbor_sets[first] & neighbor_sets[second])
            evidence[(first, second)] = evidence_score(common, self.config.evidence)
        return evidence
