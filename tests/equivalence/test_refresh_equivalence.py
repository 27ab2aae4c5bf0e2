"""A refreshed engine serves exactly what a cold fit of the same graph serves.

SimRank is a fixed number of Jacobi steps from the identity (Section 4), so
a refit must never start from anywhere else.  What a refit may do is skip
work: the sharded backend reuses every component the delta left untouched
and refits the dirty ones cold.  These tests drive seeded random delta
sequences through ``RewriteEngine.refresh`` -- statistics-only updates,
added and removed edges, a component merge and a split -- plus a refit on
the same graph rebuilt in shuffled insertion order.  After every step the
engine (whose cache still holds the entries the refresh kept) must serve
exactly what a freshly built engine fitted cold on a copy of the graph
serves: same rewrites, same ranks, floats compared exactly.
"""

from __future__ import annotations

import random

import pytest

from backend_matrix import MODES

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core.config import SimrankConfig
from repro.graph.click_graph import ClickGraph
from repro.graph.delta import DeltaBuilder
from repro.synth.scenarios import multi_component_graph

#: The paper's fixed 7 steps, with and without the tolerance early exit.
CONFIGS = {
    "tolerance_0": SimrankConfig(iterations=7, zero_evidence_floor=0.1),
    "tolerance_1e-8": SimrankConfig(
        iterations=7, tolerance=1e-8, zero_evidence_floor=0.1
    ),
}

BACKENDS = ["sharded", "reference"]

SEEDS = [3, 41]


def build_engine(graph, method, backend, config_name):
    config = EngineConfig(
        method=method, backend=backend, similarity=CONFIGS[config_name]
    )
    bid_terms = {str(query) for query in graph.queries()} | {"new_q0", "new_q1"}
    return RewriteEngine.from_graph(graph, config, bid_terms=bid_terms).fit()


def assert_serves_like_a_cold_fit(engine):
    queries = sorted(engine.graph.queries(), key=repr)
    cold = RewriteEngine.from_graph(
        engine.graph.copy(), engine.config, bid_terms=engine.bid_terms
    ).fit()
    assert engine.serving_profile(queries) == cold.serving_profile(queries)


def component_of(node) -> str:
    return str(node).split("_")[0]


def stats_delta(graph, rng):
    """New statistics on two random edges; the topology is unchanged."""
    builder = DeltaBuilder(graph)
    for query, ad, stats in rng.sample(list(graph.edges()), 2):
        builder.set_edge(
            query,
            ad,
            impressions=stats.impressions + rng.randint(1, 300),
            clicks=stats.clicks + rng.randint(0, 30),
            expected_click_rate=round(rng.uniform(0.01, 0.5), 4),
        )
    return builder.build()


def add_delta(graph, rng):
    """One new edge inside a component and one brand-new query."""
    missing = [
        (query, ad)
        for query in graph.queries()
        for ad in graph.ads()
        if component_of(query) == component_of(ad) and not graph.has_edge(query, ad)
    ]
    query, ad = rng.choice(missing)
    new_query = next(f"new_q{i}" for i in range(2) if not graph.has_query(f"new_q{i}"))
    return (
        DeltaBuilder(graph)
        .set_edge(query, ad, impressions=rng.randint(20, 400), clicks=rng.randint(1, 20))
        .set_edge(new_query, rng.choice(sorted(graph.ads())), impressions=90, clicks=9)
        .build()
    )


def remove_delta(graph, rng):
    """One random edge removed (it may split a component or isolate a node)."""
    query, ad, _ = rng.choice(list(graph.edges()))
    return DeltaBuilder(graph).remove_edge(query, ad).build()


BRIDGE = ("c0_q0", "c1_a0")


def merge_delta(graph, rng):
    """Bridge components 0 and 1 with a single edge."""
    return DeltaBuilder(graph).set_edge(*BRIDGE, impressions=120, clicks=12).build()


def split_delta(graph, rng):
    """Remove the bridge again: the merged component splits in two."""
    return DeltaBuilder(graph).remove_edge(*BRIDGE).build()


def shuffled(graph, rng) -> ClickGraph:
    """The same graph with nodes and edges inserted in a random order."""
    edges = list(graph.edges())
    rng.shuffle(edges)
    rebuilt = ClickGraph()
    for query in rng.sample(list(graph.queries()), graph.num_queries):
        rebuilt.add_query(query)
    for ad in rng.sample(list(graph.ads()), graph.num_ads):
        rebuilt.add_ad(ad)
    for query, ad, stats in edges:
        rebuilt.add_edge_stats(query, ad, stats)
    return rebuilt


def delta_sequence(rng):
    """Random topology and statistics deltas, then a merge and a split."""
    steps = [stats_delta, stats_delta, add_delta, add_delta, remove_delta, stats_delta]
    rng.shuffle(steps)
    return steps + [merge_delta, stats_delta, split_delta]


def build_graph():
    return multi_component_graph(
        num_components=4, queries_per_component=4, ads_per_component=3, seed=17
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", MODES)
def test_refresh_serves_exactly_what_a_cold_fit_serves(method, backend, config_name, seed):
    rng = random.Random(seed)
    engine = build_engine(build_graph(), method, backend, config_name)
    for make_delta in delta_sequence(rng):
        # Fill the cache first, so entries the refresh wrongly keeps show.
        engine.rewrite_batch(sorted(engine.graph.queries(), key=repr))
        engine.refresh(make_delta(engine.graph, rng))
        assert engine.last_refresh.refit is True
        assert_serves_like_a_cold_fit(engine)

    engine.fit(shuffled(engine.graph, rng))
    if backend == "sharded":
        assert engine.method.reused_shards == engine.method.num_shards
        assert engine.method.refitted_shards == 0
    assert_serves_like_a_cold_fit(engine)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_stats_only_refresh_reuses_clean_shards(config_name):
    """Reuse needs no early exit: at tolerance 0 clean shards are kept too."""
    engine = build_engine(build_graph(), "weighted_simrank", "sharded", config_name)
    stats = engine.graph.edge("c2_q0", "c2_a0")
    engine.refresh(
        DeltaBuilder(engine.graph)
        .set_edge("c2_q0", "c2_a0", impressions=stats.impressions + 9, clicks=stats.clicks)
        .build()
    )
    assert engine.method.reused_shards == 3
    assert engine.method.refitted_shards == 1
    assert_serves_like_a_cold_fit(engine)


def test_sharded_component_merge_and_split_are_dirty():
    engine = build_engine(build_graph(), "simrank", "sharded", "tolerance_0")

    # Merge components 0 and 1: only the merged component is refit.
    engine.refresh(merge_delta(engine.graph, None))
    assert engine.method.num_shards == 3
    assert engine.method.refitted_shards == 1
    assert engine.method.reused_shards == 2

    # Split it again: both halves are refit, the other two are reused.
    engine.refresh(split_delta(engine.graph, None))
    assert engine.method.num_shards == 4
    assert engine.method.refitted_shards == 2
    assert engine.method.reused_shards == 2
    assert_serves_like_a_cold_fit(engine)


def test_snapshot_revived_engine_fits_cold(tmp_path):
    """A snapshot carries no shard state: its first fit reuses nothing."""
    engine = build_engine(build_graph(), "weighted_simrank", "sharded", "tolerance_0")
    engine.save(tmp_path / "snap")
    loaded = RewriteEngine.load(tmp_path / "snap").fit(build_graph())
    assert loaded.method.reused_shards == 0
    assert loaded.method.refitted_shards == 4
    assert_serves_like_a_cold_fit(loaded)
