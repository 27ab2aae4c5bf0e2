"""Evaluation-query sampling.

The paper samples its evaluation queries "with uniform probability, from live
traffic" (Section 9.2): because popular queries appear many times in the
traffic stream, a uniform sample *of the stream* is a popularity-weighted
sample of distinct queries.  The sample is then intersected with the queries
present in the extracted subgraphs, yielding the final evaluation set.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Hashable, Iterable, List, Sequence

from repro.graph.click_graph import ClickGraph

__all__ = ["sample_queries_by_traffic", "intersect_with_graph"]

Node = Hashable


def sample_queries_by_traffic(
    traffic: Sequence[Node],
    sample_size: int,
    rng: random.Random,
    unique: bool = True,
) -> List[Node]:
    """Sample queries uniformly from a traffic stream.

    ``traffic`` is the raw stream of issued queries (with repetitions); the
    returned sample is therefore popularity-weighted over distinct queries.
    With ``unique=True`` duplicates are removed while preserving the sampling
    order, so the result may be shorter than ``sample_size``.  ``rng`` is
    required: the sample feeds paper numbers, which must not depend on an
    unseeded generator.
    """
    if sample_size < 0:
        raise ValueError("sample_size must be non-negative")
    if not traffic:
        return []
    draws = [traffic[rng.randrange(len(traffic))] for _ in range(sample_size)]
    if not unique:
        return draws
    seen = set()
    sample: List[Node] = []
    for query in draws:
        if query not in seen:
            seen.add(query)
            sample.append(query)
    return sample


def intersect_with_graph(queries: Iterable[Node], graph: ClickGraph) -> List[Node]:
    """Keep only the sampled queries that appear in the click graph.

    This mirrors the paper's reduction of the 1200-query benchmark sample to
    the 120 queries present in the five-subgraphs dataset.
    """
    return [query for query in queries if graph.has_query(query) and graph.query_degree(query) > 0]


def traffic_popularity(traffic: Sequence[Node]) -> Counter:
    """Frequency of each distinct query in the traffic stream."""
    return Counter(traffic)
