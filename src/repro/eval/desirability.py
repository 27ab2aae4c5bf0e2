"""The desirability-prediction (edge-removal) experiment of Section 9.3.

The experiment asks whether a similarity method makes the "right" call based
purely on the evidence in the click graph, without any human judgment:

1. pick a query ``q1`` and two queries ``q2``, ``q3`` that each share at
   least one ad with it;
2. the *desirability* of ``q2`` for ``q1`` is
   ``des(q1, q2) = sum_{i in E(q1) ∩ E(q2)} w(q2, i) / |E(q2)|`` -- computed
   on the full graph, it says which of ``q2``/``q3`` the historical clicks
   favour as a rewrite;
3. delete from the graph every edge connecting ``q1`` to an ad it shares
   with ``q2`` or ``q3`` (the direct evidence), keeping only cases where
   ``q1`` remains connected to both through other paths;
4. run each similarity method on the *remaining* graph and check whether the
   order of ``sim(q1, q2)`` vs ``sim(q1, q3)`` agrees with the order of the
   desirability scores.

Figure 12 reports the fraction of correct predictions over 50 sampled
queries; the paper finds 54% for plain and evidence-based SimRank and 92%
for weighted SimRank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.similarity_base import QuerySimilarityMethod
from repro.graph.click_graph import ClickGraph, WeightSource
from repro.graph.components import bfs_ball, component_of

__all__ = [
    "desirability",
    "DesirabilityCase",
    "DesirabilityResult",
    "select_desirability_cases",
    "run_desirability_experiment",
]

Node = Hashable


def desirability(
    graph: ClickGraph,
    query: Node,
    candidate: Node,
    source: WeightSource = WeightSource.EXPECTED_CLICK_RATE,
) -> float:
    """``des(q1, q2)``: weight-supported preference for ``candidate`` as a rewrite."""
    candidate_ads = graph.ads_of(candidate)
    if not candidate_ads:
        return 0.0
    query_ads = graph.ads_of(query)
    # Summed in the candidate's own ad order: a set intersection would make
    # the float sum's last bits depend on the process's hash seed.
    shared = (stats.weight(source) for ad, stats in candidate_ads.items() if ad in query_ads)
    return sum(shared) / len(candidate_ads)


@dataclass(frozen=True)
class DesirabilityCase:
    """One test instance: a query, two candidates, and the edges to remove."""

    query: Node
    first_candidate: Node
    second_candidate: Node
    removed_edges: Tuple[Tuple[Node, Node], ...]
    first_desirability: float
    second_desirability: float

    @property
    def preferred(self) -> Node:
        """The candidate the desirability scores favour."""
        if self.first_desirability >= self.second_desirability:
            return self.first_candidate
        return self.second_candidate


@dataclass
class DesirabilityResult:
    """Per-method outcome of the experiment."""

    method_name: str
    correct: int = 0
    total: int = 0
    case_outcomes: List[bool] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def percentage(self) -> float:
        return 100.0 * self.accuracy


def select_desirability_cases(
    graph: ClickGraph,
    num_cases: int = 50,
    rng: Optional[random.Random] = None,
    source: WeightSource = WeightSource.EXPECTED_CLICK_RATE,
    max_attempts_per_query: int = 20,
) -> List[DesirabilityCase]:
    """Sample up to ``num_cases`` valid experiment instances from a click graph.

    A valid instance requires that, after removing the direct-evidence edges,
    ``q1`` is still connected to both candidates through other paths (so the
    SimRank variants can still produce a score), mirroring the paper's
    selection procedure.
    """
    rng = rng or random.Random(0)
    queries = [query for query in graph.queries() if graph.query_degree(query) > 0]
    rng.shuffle(queries)
    cases: List[DesirabilityCase] = []

    for query in queries:
        if len(cases) >= num_cases:
            break
        partners = _queries_sharing_an_ad(graph, query)
        if len(partners) < 2:
            continue
        for _ in range(max_attempts_per_query):
            first, second = rng.sample(partners, 2)
            case = _build_case(graph, query, first, second, source)
            if case is not None:
                cases.append(case)
                break
    return cases


def _queries_sharing_an_ad(graph: ClickGraph, query: Node) -> List[Node]:
    partners = set()
    for ad in graph.ads_of(query):
        partners.update(graph.queries_of(ad))
    partners.discard(query)
    return sorted(partners, key=repr)


def _build_case(
    graph: ClickGraph,
    query: Node,
    first: Node,
    second: Node,
    source: WeightSource,
) -> Optional[DesirabilityCase]:
    """Construct a case if removing the direct evidence keeps everyone connected."""
    first_common = set(graph.ads_of(query)) & set(graph.ads_of(first))
    second_common = set(graph.ads_of(query)) & set(graph.ads_of(second))
    removed = tuple((query, ad) for ad in sorted(first_common | second_common, key=repr))
    if not removed:
        return None
    if len(removed) >= graph.query_degree(query):
        # Removing all of q1's edges would isolate it entirely.
        return None
    pruned = graph.without_edges(removed)
    reachable_queries, _ = component_of(pruned, query)
    if first not in reachable_queries or second not in reachable_queries:
        return None
    return DesirabilityCase(
        query=query,
        first_candidate=first,
        second_candidate=second,
        removed_edges=removed,
        first_desirability=desirability(graph, query, first, source),
        second_desirability=desirability(graph, query, second, source),
    )


def run_desirability_experiment(
    graph: ClickGraph,
    method_factories: Dict[str, Callable[[], QuerySimilarityMethod]],
    cases: Optional[Sequence[DesirabilityCase]] = None,
    num_cases: int = 50,
    rng: Optional[random.Random] = None,
    source: WeightSource = WeightSource.EXPECTED_CLICK_RATE,
    neighborhood_radius: Optional[int] = None,
    remove_direct_evidence: bool = True,
) -> Dict[str, DesirabilityResult]:
    """Run the edge-removal experiment for several methods.

    ``method_factories`` maps a method name to a zero-argument callable that
    builds a *fresh, unfitted* method instance -- each case needs a fit on
    its own edge-pruned graph.  Returns one :class:`DesirabilityResult` per
    method.  Ties in either the desirability or the similarity ordering count
    as incorrect predictions (the method failed to discriminate).

    ``neighborhood_radius`` optionally restricts each per-case fit to the
    BFS ball of that radius around the target query (SimRank scores after
    ``k`` iterations only depend on nodes within ``2k`` hops, so a radius of
    ``2k`` is exact and smaller radii are fast approximations).

    ``remove_direct_evidence=True`` is the paper's protocol (delete the edges
    connecting the query to its candidates' shared ads before fitting).
    Setting it to False keeps those edges and instead measures how well each
    method's scores agree with the weight evidence they can see directly --
    an ablation isolating the weight-sensitivity mechanism from the
    indirect-recovery part of the task.
    """
    if cases is None:
        cases = select_desirability_cases(graph, num_cases=num_cases, rng=rng, source=source)
    results = {name: DesirabilityResult(method_name=name) for name in method_factories}

    for case in cases:
        pruned = graph.without_edges(case.removed_edges) if remove_direct_evidence else graph
        if neighborhood_radius is not None:
            ball_queries, ball_ads = bfs_ball(pruned, case.query, neighborhood_radius)
            ball_queries.update({case.first_candidate, case.second_candidate})
            pruned = pruned.subgraph(queries=ball_queries, ads=ball_ads)
        desirability_gap = case.first_desirability - case.second_desirability
        for name, factory in method_factories.items():
            method = factory()
            method.fit(pruned)
            first_score = method.query_similarity(case.query, case.first_candidate)
            second_score = method.query_similarity(case.query, case.second_candidate)
            similarity_gap = first_score - second_score
            correct = (
                desirability_gap != 0.0
                and similarity_gap != 0.0
                and (desirability_gap > 0) == (similarity_gap > 0)
            )
            result = results[name]
            result.total += 1
            result.correct += int(correct)
            result.case_outcomes.append(correct)
    return results
