"""Warm-started fits must agree with cold fits, for every backend and mode.

Warm starting changes the Jacobi *starting point*, never the fixpoint: with
tolerance-based early exit both the cold fit and the warm fit stop within
the same distance of the unique fixpoint, so their scores must agree within
the harness tolerance.  The seed deliberately comes from a *different* graph
state (the pre-delta fit) -- exactly the incremental-refresh situation --
and from both store flavours (array-backed and dict-backed via a snapshot
round trip is covered in tests/api).
"""

from __future__ import annotations

import pytest

from backend_matrix import (
    BACKEND_NAMES,
    KERNEL_MODES,
    MODES,
    TOLERANCE,
    expect_retired_warning,
)

from repro.api.registry import create
from repro.core.config import SimrankConfig
from repro.core.simrank_matrix import MatrixSimrank
from repro.graph.delta import DeltaBuilder
from repro.synth.scenarios import multi_component_graph

#: Converged configuration: enough headroom for the cold identity start to
#: reach the tolerance, so cold and warm stop at the same fixpoint.
CONVERGED = SimrankConfig(
    c1=0.8, c2=0.8, iterations=120, tolerance=1e-9, zero_evidence_floor=0.1
)


def perturbed_pair():
    """A scenario graph and a mildly perturbed successor."""
    old = multi_component_graph(
        num_components=3, queries_per_component=4, ads_per_component=3, seed=11
    )
    new = old.copy()
    stats = new.edge("c0_q0", "c0_a0")
    delta = (
        DeltaBuilder(new)
        .set_edge(
            "c0_q0",
            "c0_a0",
            impressions=stats.impressions + 40,
            clicks=stats.clicks + 4,
        )
        .set_edge("c1_q0", "c1_a2", impressions=60, clicks=6)
        .remove_edge("c2_q1", "c2_a1")
        .build()
    )
    new.apply_delta(delta)
    return old, new


#: The registered default and the dense kernel it runs per shard, fitted on
#: the whole graph: both warm-start paths must reach the cold fixpoint.
WARM_ENGINES = ["sharded", "dense_kernel"]


def build(engine, mode):
    """An unfitted ``mode`` engine: a registered backend or the dense kernel."""
    if engine == "dense_kernel":
        return MatrixSimrank(CONVERGED, mode=KERNEL_MODES[mode])
    with expect_retired_warning(engine):
        return create(mode, config=CONVERGED, backend=engine)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
def test_warm_start_agrees_with_cold_fit(backend, mode):
    old, new = perturbed_pair()
    previous = build(backend, mode).fit(old)

    cold = build(backend, mode).fit(new)
    warm = build(backend, mode)
    warm.fit(new, initial_scores=previous.similarities())

    assert warm.similarities().max_difference(cold.similarities()) < TOLERANCE


@pytest.mark.parametrize("engine", WARM_ENGINES)
def test_warm_start_converges_in_fewer_iterations(engine):
    """On a tiny perturbation the warm fit must exit far earlier than cold."""
    old = multi_component_graph(
        num_components=3, queries_per_component=5, ads_per_component=4, seed=23
    )
    new = old.copy()
    stats = new.edge("c0_q0", "c0_a0")
    new.apply_delta(
        DeltaBuilder(new)
        .set_edge(
            "c0_q0",
            "c0_a0",
            impressions=stats.impressions + 1,
            clicks=stats.clicks,
            expected_click_rate=stats.expected_click_rate * 1.001,
        )
        .build()
    )
    previous = build(engine, "weighted_simrank").fit(old)
    cold = build(engine, "weighted_simrank").fit(new)
    warm = build(engine, "weighted_simrank")
    warm.fit(new, initial_scores=previous.similarities())

    assert warm.warm_started is True
    assert warm.iterations_run < cold.iterations_run / 2
    assert warm.similarities().max_difference(cold.similarities()) < TOLERANCE


@pytest.mark.parametrize("engine", WARM_ENGINES)
def test_dict_backed_seed_is_accepted(engine):
    """A reference fit's dict-backed store seeds the array engines too.

    This is the cross-backend warm-start path (e.g. seeding a sharded refit
    from a snapshot of a reference engine): ``seed_dense`` falls back to
    the ``pairs()`` protocol when the store has no blocks.
    """
    old, new = perturbed_pair()
    previous = create("simrank", config=CONVERGED, backend="reference").fit(old)
    assert not hasattr(previous.similarities(), "blocks")

    cold = build(engine, "simrank").fit(new)
    warm = build(engine, "simrank")
    warm.fit(new, initial_scores=previous.similarities())

    assert warm.warm_started is True
    assert warm.similarities().max_difference(cold.similarities()) < TOLERANCE


def test_seed_with_disjoint_nodes_is_harmless():
    """A seed sharing no nodes with the new graph degrades to a cold start."""
    old = multi_component_graph(
        num_components=2, queries_per_component=3, ads_per_component=2, seed=2
    )
    unrelated = multi_component_graph(
        num_components=2, queries_per_component=3, ads_per_component=2, seed=2
    )
    # Rename every node so no identifier overlaps.
    renamed = type(unrelated)()
    for query, ad, stats in unrelated.edges():
        renamed.add_edge_stats(f"x_{query}", f"x_{ad}", stats)
    previous = create("simrank", config=CONVERGED, backend="sharded").fit(renamed)

    cold = create("simrank", config=CONVERGED, backend="sharded").fit(old)
    warm = create("simrank", config=CONVERGED, backend="sharded")
    warm.fit(old, initial_scores=previous.similarities())
    assert warm.similarities().max_difference(cold.similarities()) < TOLERANCE


def test_sharded_dirty_component_detection():
    """Only the components a delta touched are refit; the rest are reused."""
    old = multi_component_graph(
        num_components=5, queries_per_component=4, ads_per_component=3, seed=31
    )
    new = old.copy()
    stats = new.edge("c2_q0", "c2_a0")
    new.apply_delta(
        DeltaBuilder(new)
        .set_edge("c2_q0", "c2_a0", impressions=stats.impressions + 9, clicks=stats.clicks)
        .build()
    )
    method = create("weighted_simrank", config=CONVERGED, backend="sharded").fit(old)
    previous_scores = method.similarities()
    method.fit(new, initial_scores=previous_scores)
    assert method.reused_shards == 4
    assert method.refitted_shards == 1
    # Reused components serve the previous fit's scores verbatim.
    untouched = [q for q in old.queries() if not str(q).startswith("c2_")]
    for query in untouched[:5]:
        for other in untouched[:5]:
            assert method.similarities().score(query, other) == previous_scores.score(
                query, other
            )


def test_sharded_all_dirty_warm_start_agrees():
    """Snapshot-style warm start: no previous decomposition, every shard dirty.

    Exercises the per-component seed split (each inner fit must only see its
    own component's slice of the global seed) on the path where reuse is
    impossible and all components refit warm-started.
    """
    old, new = perturbed_pair()
    previous = create("weighted_simrank", config=CONVERGED, backend="sharded").fit(old)
    seed = previous.similarities()

    warm = create("weighted_simrank", config=CONVERGED, backend="sharded")
    warm.fit(new, initial_scores=seed)  # fresh instance: no shards to reuse
    assert warm.reused_shards == 0
    assert warm.refitted_shards == warm.num_shards

    cold = create("weighted_simrank", config=CONVERGED, backend="sharded").fit(new)
    assert warm.similarities().max_difference(cold.similarities()) < TOLERANCE


def test_sharded_component_merge_and_split_are_dirty():
    graph = multi_component_graph(
        num_components=4, queries_per_component=3, ads_per_component=3, seed=7
    )
    method = create("simrank", config=CONVERGED, backend="sharded").fit(graph)

    # Merge components 0 and 1: the merged component must be refit.
    merged = graph.copy()
    merged.apply_delta(
        DeltaBuilder(merged).set_edge("c0_q0", "c1_a0", impressions=10, clicks=1).build()
    )
    method.fit(merged, initial_scores=method.similarities())
    assert method.refitted_shards == 1
    assert method.reused_shards == 2

    # A cold fit (no seed) never reuses, even with identical components.
    method.fit(merged)
    assert method.warm_started is False
    assert method.reused_shards == 0
