"""All SimRank backends must agree on all scenario graphs, in every mode.

This is the standing safety net for similarity backends: the naive node-pair
implementations (``reference``) and the component-sharded engine
(``sharded``, the default) are interchangeable claims, and this module is
where the claim is enforced.  A new backend registered for the SimRank
family is picked up through the registry and has to pass the same matrix of
scenarios x modes x configurations.
"""

from __future__ import annotations

import itertools

import pytest

from backend_matrix import CONFIGS, KERNEL_MODES, MODES, SCENARIOS, TOLERANCE

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.registry import SIMRANK_BACKENDS, available_backends, create
from repro.core.scores import SimilarityScores
from repro.core.simrank_matrix import MatrixSimrank

#: Backends checked against the ``reference`` oracle.
FAST_BACKENDS = [backend for backend in SIMRANK_BACKENDS if backend != "reference"]


def _fit_all_backends(method_name, graph, config):
    """Fitted method instances keyed by backend name."""
    return {
        backend: create(method_name, config=config, backend=backend).fit(graph)
        for backend in SIMRANK_BACKENDS
    }


def _union_pairs(score_sets):
    """Every unordered pair stored by at least one backend."""
    pairs = set()
    for scores in score_sets:
        pairs.update((first, second) for first, second, _ in scores.pairs())
    return pairs


class TestBackendRegistration:
    @pytest.mark.parametrize("method_name", MODES)
    def test_simrank_family_offers_all_backends(self, method_name):
        assert set(SIMRANK_BACKENDS) <= set(available_backends(method_name))


class TestScoreAgreement:
    @pytest.mark.parametrize("method_name", MODES)
    def test_all_backend_pairs_agree(self, method_name, scenario_graph, simrank_config):
        """Pairwise max score difference across backends is within tolerance."""
        fitted = _fit_all_backends(method_name, scenario_graph, simrank_config)
        score_sets = {name: method.similarities() for name, method in fitted.items()}
        for first, second in itertools.combinations(sorted(score_sets), 2):
            difference = score_sets[first].max_difference(score_sets[second])
            assert difference <= TOLERANCE, (
                f"{method_name}: backends {first!r} and {second!r} disagree by "
                f"{difference:.3e} (> {TOLERANCE:.0e})"
            )

    @pytest.mark.parametrize("method_name", MODES)
    def test_query_similarity_lookups_agree(
        self, method_name, scenario_graph, simrank_config
    ):
        """Point lookups agree too -- including pairs only some backends store."""
        fitted = _fit_all_backends(method_name, scenario_graph, simrank_config)
        pairs = _union_pairs(method.similarities() for method in fitted.values())
        reference = fitted["reference"]
        for other_name in FAST_BACKENDS:
            other = fitted[other_name]
            for first, second in sorted(pairs, key=repr):
                assert other.query_similarity(first, second) == pytest.approx(
                    reference.query_similarity(first, second), abs=TOLERANCE
                ), f"{method_name}/{other_name}: pair ({first!r}, {second!r})"

    @pytest.mark.parametrize("method_name", MODES)
    def test_self_similarity_is_one_everywhere(self, method_name, scenario_graph):
        fitted = _fit_all_backends(method_name, scenario_graph, config=None)
        for method in fitted.values():
            for query in scenario_graph.queries():
                assert method.query_similarity(query, query) == 1.0


class TestServingEquivalence:
    """The equivalence must survive the full engine path, not just raw scores."""

    @pytest.mark.parametrize("method_name", MODES)
    def test_engine_rewrites_match_across_backends(
        self, method_name, scenario_graph, simrank_config
    ):
        """Same depth, same ranked score profile, same per-rewrite scores.

        Exact rewrite *identity* at each rank is deliberately not asserted:
        backends may break machine-epsilon score ties differently, which is
        an equivalent serving outcome.
        """
        engines = {}
        batches = {}
        queries = sorted(scenario_graph.queries(), key=repr)
        for backend in SIMRANK_BACKENDS:
            engine = RewriteEngine.from_graph(
                scenario_graph,
                EngineConfig(
                    method=method_name, backend=backend, similarity=simrank_config
                ),
            ).fit()
            engines[backend] = engine
            batches[backend] = engine.rewrite_batch(queries)
        reference = batches["reference"]
        for backend in FAST_BACKENDS:
            for expected, actual in zip(reference, batches[backend]):
                context = f"{method_name}/{backend}: query {expected.query!r}"
                assert expected.depth == actual.depth, context
                for expected_rewrite, actual_rewrite in zip(
                    expected.rewrites, actual.rewrites
                ):
                    assert actual_rewrite.score == pytest.approx(
                        expected_rewrite.score, abs=TOLERANCE
                    ), context
                    # The proposed rewrite must carry the same similarity
                    # under the reference backend -- tie reshuffles pass,
                    # genuinely different proposals fail.
                    assert engines["reference"].method.query_similarity(
                        actual.query, actual_rewrite.rewrite
                    ) == pytest.approx(actual_rewrite.score, abs=TOLERANCE), context


class TestCrossComponentZeroes:
    """Sharding is only sound because cross-component scores are zero.

    Two fits see the whole graph at once: the dense kernel every shard runs
    (``matrix``) and the node-pair oracle (``reference``).  Both must score
    every pair that straddles two shards exactly zero.
    """

    @pytest.mark.parametrize("method_name", MODES)
    @pytest.mark.parametrize("whole_graph_backend", ["matrix", "reference"])
    def test_whole_graph_backends_score_cross_component_pairs_zero(
        self, method_name, whole_graph_backend, scenario_graph, simrank_config
    ):
        sharded = create(method_name, config=simrank_config, backend="sharded").fit(
            scenario_graph
        )
        if whole_graph_backend == "matrix":
            whole = MatrixSimrank(simrank_config, mode=KERNEL_MODES[method_name])
        else:
            whole = create(method_name, config=simrank_config, backend="reference")
        whole.fit(scenario_graph)
        assert sharded.similarities().max_difference(whole.similarities()) <= TOLERANCE
        queries = sorted(scenario_graph.queries(), key=repr)
        for first, second in itertools.combinations(queries, 2):
            if sharded.shard_of(first) != sharded.shard_of(second):
                assert whole.query_similarity(first, second) == 0.0


def test_scenarios_and_backends_are_nontrivial():
    """Guard the harness itself: a pruned matrix would silently weaken it."""
    assert len(SCENARIOS) >= 5
    assert len(CONFIGS) >= 2
    assert {"sharded", "reference"} <= set(SIMRANK_BACKENDS)
    assert any(
        scores_something(build()) for build in SCENARIOS.values()
    )


def scores_something(graph) -> bool:
    scores: SimilarityScores = (
        create("simrank", backend="sharded").fit(graph).similarities()
    )
    return len(scores) > 0
