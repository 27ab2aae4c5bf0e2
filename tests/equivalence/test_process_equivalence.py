"""The process-pool executor and in-place refits are score-equivalent.

The standing backend matrix fits every backend serially on fresh instances;
this module adds the paths it does not reach: fits executed on the *process*
pool (true multi-core, picklable payloads crossing the process boundary) and
refits of an already-fitted sharded instance, where untouched components
are reused verbatim.  Equivalence here means the same 1e-6 tolerance as the
rest of the harness, for scores and for served rewrites; a refit must equal
a cold fit exactly.
"""

from __future__ import annotations

import pytest

from backend_matrix import KERNEL_MODES, MODES, TOLERANCE

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.registry import create
from repro.core.config import SimrankConfig
from repro.core.simrank_matrix import MatrixSimrank
from repro.graph.delta import DeltaBuilder
from repro.synth.scenarios import multi_component_graph

#: Converged configuration: the pooled fits and the whole-graph dense
#: kernel both reach the tolerance, so they must agree at the fixpoint.
CONVERGED = SimrankConfig(
    c1=0.8, c2=0.8, iterations=120, tolerance=1e-9, zero_evidence_floor=0.1
)


def scenario():
    return multi_component_graph(
        num_components=5, queries_per_component=4, ads_per_component=3, seed=11
    )


def perturbed_pair():
    old = scenario()
    new = old.copy()
    stats = new.edge("c0_q0", "c0_a0")
    new.apply_delta(
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
    return old, new


@pytest.mark.timeout(300)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("executor", ["process", "thread"])
def test_pooled_fit_matches_the_dense_kernel(executor, mode):
    """Shards fitted on either pool stitch to the whole-graph dense fit."""
    graph = scenario()
    dense = MatrixSimrank(CONVERGED, mode=KERNEL_MODES[mode]).fit(graph)
    pooled = create(
        mode, config=CONVERGED, backend="sharded", n_jobs=2, executor=executor
    ).fit(graph)
    difference = dense.similarities().max_difference(pooled.similarities())
    assert difference < TOLERANCE


@pytest.mark.timeout(300)
@pytest.mark.parametrize("mode", MODES)
def test_in_place_refit_reuses_clean_shards_and_equals_cold_fit(mode):
    old, new = perturbed_pair()
    method = create(mode, config=CONVERGED, backend="sharded").fit(old)
    method.fit(new)
    # c0/c1 touched and the edge removal splits c2 in two: 4 dirty fits,
    # while c3/c4 are reused verbatim.
    assert method.reused_shards == 2
    assert method.refitted_shards == 4

    cold = create(mode, config=CONVERGED, backend="sharded").fit(new)
    assert method.similarities().max_difference(cold.similarities()) == 0.0


@pytest.mark.timeout(300)
@pytest.mark.parametrize("mode", MODES)
def test_served_rewrites_match_across_serial_and_process(mode):
    """Depth and ranked score profile agree through the full engine path."""
    graph = scenario()
    queries = sorted(graph.queries(), key=repr)
    batches = {}
    for name, executor_options in (
        ("serial", {}),
        ("process", {"n_jobs": 2, "executor": "process"}),
    ):
        config = EngineConfig(
            method=mode, backend="sharded", similarity=CONVERGED, **executor_options
        )
        engine = RewriteEngine.from_graph(graph, config).fit()
        batches[name] = engine.rewrite_batch(queries)
    for expected, actual in zip(batches["serial"], batches["process"]):
        context = f"{mode}: query {expected.query!r}"
        assert expected.depth == actual.depth, context
        for expected_rewrite, actual_rewrite in zip(
            expected.rewrites, actual.rewrites
        ):
            assert actual_rewrite.score == pytest.approx(
                expected_rewrite.score, abs=TOLERANCE
            ), context
