"""Seeded inputs of the perf benchmark: click graph, traffic and deltas.

Everything a run feeds the program is derived here from ``--seed``, so the
same seed always yields the same graph, the same query sequences and the
same ``/refresh`` deltas.  The program itself only ever sees the generated
files (an edges JSONL and a bid-term list) and the HTTP requests.

Two input scales exist: ``standard`` (the measured one) and ``tiny`` (the
plumbing check of ``test_perf_smoke.py``).  ``inputs.json`` freezes the
shape and a sha256 of the default seed's edge list for both, so a change
to ``repro.synth`` that would silently change what the benchmark measures
aborts the run instead.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.graph.click_graph import ClickGraph, EdgeStats
from repro.graph.components import connected_components
from repro.graph.delta import ClickGraphDelta
from repro.graph.io import write_edges_jsonl
from repro.synth.scenarios import multi_component_graph
from repro.synth.yahoo_like import yahoo_like_workload

DEFAULT_SEED = 13
FROZEN_PATH = Path(__file__).with_name("inputs.json")

#: (yahoo_like_workload size, multi_component_graph arguments) per scale.
#: The standard tail is the 1500-node scenario the BENCH_* gates use.
SCALES: Dict[str, Tuple[str, Dict[str, int]]] = {
    "standard": (
        "medium",
        dict(num_components=30, queries_per_component=30, ads_per_component=20,
             extra_edges=90),
    ),
    "tiny": (
        "tiny",
        dict(num_components=3, queries_per_component=4, ads_per_component=3,
             extra_edges=3),
    ),
}


class InputDriftError(RuntimeError):
    """The generated inputs no longer match the frozen fingerprint."""


@dataclass
class Inputs:
    graph: ClickGraph
    bid_terms: Set[str]
    #: Queries in graph order; traffic samples from these.
    queries: List[str]
    #: Edges of the largest component and of every other component.
    giant_edges: List[Tuple[str, str]]
    tail_edges: List[Tuple[str, str]]


def build_inputs(scale: str, seed: int) -> Inputs:
    """The merged click graph: a Yahoo!-like workload plus a component tail.

    One dominant component plus a tail of small ones is the shape real
    click graphs have, and the shape both the dense kernel and sharding
    care about.
    """
    size, tail_args = SCALES[scale]
    workload = yahoo_like_workload(size, seed=seed)
    graph = workload.click_graph
    tail = multi_component_graph(seed=seed, **tail_args)
    for query, ad, stats in tail.edges():
        graph.add_edge_stats(query, ad, stats)
    bid_terms = set(workload.bid_terms) | {str(query) for query in tail.queries()}
    components = sorted(
        connected_components(graph), key=lambda part: len(part[0]) + len(part[1]),
        reverse=True,
    )
    giant_queries = components[0][0]
    giant_edges, tail_edges = [], []
    for query, ad, _ in graph.edges():
        (giant_edges if query in giant_queries else tail_edges).append((query, ad))
    return Inputs(
        graph=graph,
        bid_terms=bid_terms,
        queries=list(graph.queries()),
        giant_edges=giant_edges,
        tail_edges=tail_edges,
    )


def fingerprint(graph: ClickGraph) -> Dict[str, object]:
    """Node, edge and component counts plus a sha256 of the sorted edge list."""
    lines = sorted(
        f"{query}\t{ad}\t{stats.impressions}\t{stats.clicks}\t{stats.expected_click_rate!r}"
        for query, ad, stats in graph.edges()
    )
    return {
        "nodes": graph.num_nodes,
        "queries": graph.num_queries,
        "edges": graph.num_edges,
        "components": len(connected_components(graph)),
        "edges_sha256": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
    }


def check_frozen(scale: str, graph_at_default_seed: ClickGraph) -> None:
    """Raise :class:`InputDriftError` unless the default seed's graph is unchanged."""
    frozen = json.loads(FROZEN_PATH.read_text(encoding="utf-8"))[scale]
    actual = fingerprint(graph_at_default_seed)
    if actual != frozen:
        raise InputDriftError(
            f"repro.synth output drifted for the {scale!r} inputs at seed "
            f"{DEFAULT_SEED}: expected {frozen}, got {actual}; results would not "
            "be comparable with earlier runs"
        )


def write_inputs(inputs: Inputs, directory: Path) -> Tuple[Path, Path]:
    """Write the files the program reads: edges JSONL and the bid-term list."""
    graph_path = directory / "graph.jsonl"
    bids_path = directory / "bid_terms.json"
    write_edges_jsonl(inputs.graph, graph_path)
    bids_path.write_text(json.dumps(sorted(inputs.bid_terms)), encoding="utf-8")
    return graph_path, bids_path


def query_sequence(
    queries: List[str], alpha: float, length: int, rng: random.Random
) -> List[str]:
    """``length`` queries drawn Zipf(``alpha``) over a seeded rank order.

    ``alpha == 0`` is uniform traffic.
    """
    ranked = list(queries)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** alpha for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=length)


def refresh_deltas(inputs: Inputs, count: int, rng: random.Random) -> List[ClickGraphDelta]:
    """``count`` stats-only deltas of 3 giant-component edges and 1 tail edge
    each, with fresh impressions, clicks and expected click rate."""
    deltas = []
    for _ in range(count):
        edges = rng.sample(inputs.giant_edges, 3) + rng.sample(inputs.tail_edges, 1)
        updated = []
        for query, ad in edges:
            clicks = rng.randint(1, 80)
            updated.append((query, ad, EdgeStats(
                impressions=clicks + rng.randint(0, 400),
                clicks=clicks,
                expected_click_rate=round(rng.uniform(0.01, 0.5), 4),
            )))
        deltas.append(ClickGraphDelta(updated=tuple(updated)))
    return deltas
