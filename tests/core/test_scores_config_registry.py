"""Tests for the score container, the configuration object and the method registry."""

import pytest

from repro.core.config import EvidenceKind, SimrankConfig
from repro.core.convergence import (
    iteration_deltas,
    iterations_for_accuracy,
    theoretical_residual_bound,
)
from repro.api.registry import PAPER_METHODS, available_methods, create
from repro.core.scores import SimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.graph.click_graph import WeightSource


class TestSimilarityScores:
    def test_identity_and_missing_pairs(self):
        scores = SimilarityScores()
        assert scores.score("a", "a") == 1.0
        assert scores.score("a", "b") == 0.0

    def test_set_and_symmetry(self):
        scores = SimilarityScores()
        scores.set("a", "b", 0.4)
        assert scores.score("b", "a") == 0.4
        scores.set("a", "a", 0.9)  # ignored
        assert scores.score("a", "a") == 1.0

    def test_top_is_sorted_and_thresholded(self):
        scores = SimilarityScores({("q", "x"): 0.2, ("q", "y"): 0.8, ("q", "z"): 0.5})
        top = scores.top("q", k=2)
        assert [node for node, _ in top] == ["y", "z"]
        assert scores.top("q", k=5, minimum=0.6) == [("y", 0.8)]

    def test_top_tie_break_is_deterministic(self):
        scores = SimilarityScores({("q", "b"): 0.5, ("q", "a"): 0.5})
        assert [node for node, _ in scores.top("q", k=2)] == ["a", "b"]

    def test_top_heap_selection_matches_full_sort(self):
        """Regression for the heapq rewrite: exact old ordering, ties included."""
        values = {("q", f"n{i:02d}"): round(0.1 + (i * 7 % 13) / 20, 3) for i in range(40)}
        values[("q", "tie-b")] = values[("q", "tie-a")] = 0.9
        scores = SimilarityScores(values)
        row = [(other, value) for other, value in scores.neighbors("q").items()]
        row.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        for k in (1, 3, 5, 41, 0):
            assert scores.top("q", k=k) == row[:k]

    def test_pairs_iterates_each_pair_once(self):
        scores = SimilarityScores({("a", "b"): 0.1, ("b", "c"): 0.2})
        pairs = list(scores.pairs())
        assert len(pairs) == 2
        assert len(scores) == 2

    def test_pairs_yields_each_unordered_pair_exactly_once(self):
        """Regression for the insertion-order rewrite of ``pairs``."""
        scores = SimilarityScores()
        nodes = [f"n{i}" for i in range(8)] + [(1, 2), (2, 1), frozenset({"x"})]
        expected = {}
        for i, first in enumerate(nodes):
            for second in nodes[i + 1:]:
                value = 0.01 * (hash((i, repr(second))) % 50 + 1)
                scores.set(first, second, value)
                expected[frozenset((first, second))] = value
        emitted = list(scores.pairs())
        assert len(emitted) == len(expected)
        assert {frozenset((a, b)) for a, b, _ in emitted} == set(expected)
        for first, second, value in emitted:
            assert expected[frozenset((first, second))] == pytest.approx(value)

    def test_pairs_after_discard(self):
        scores = SimilarityScores({("a", "b"): 0.1, ("b", "c"): 0.2})
        scores.discard("a", "b")
        assert [frozenset((a, b)) for a, b, _ in scores.pairs()] == [frozenset(("b", "c"))]

    def test_max_difference_and_copy(self):
        first = SimilarityScores({("a", "b"): 0.5})
        second = first.copy()
        second.set("a", "b", 0.7)
        second.set("c", "d", 0.1)
        assert first.max_difference(second) == pytest.approx(0.2)
        assert first.score("c", "d") == 0.0

    def test_scaled_by(self):
        scores = SimilarityScores({("a", "b"): 0.5, ("c", "d"): 0.4})
        scaled = scores.scaled_by({("a", "b"): 0.5})
        assert scaled.score("a", "b") == pytest.approx(0.25)
        assert scaled.score("c", "d") == pytest.approx(0.4)

    def test_discard_and_nonzero_count(self):
        scores = SimilarityScores({("a", "b"): 0.5, ("c", "d"): 0.0})
        assert scores.nonzero_count() == 1
        scores.discard("a", "b")
        assert scores.score("a", "b") == 0.0


class TestSimrankConfig:
    def test_defaults_match_paper(self):
        config = SimrankConfig()
        assert config.c1 == 0.8 and config.c2 == 0.8
        assert config.iterations == 7
        assert config.weight_source is WeightSource.EXPECTED_CLICK_RATE
        assert config.evidence is EvidenceKind.GEOMETRIC

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c1": 0.0},
            {"c1": 1.5},
            {"c2": -0.1},
            {"iterations": 0},
            {"tolerance": -1.0},
            {"zero_evidence_floor": 1.0},
            {"zero_evidence_floor": -0.2},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimrankConfig(**kwargs)

    def test_with_decay_and_with_iterations(self):
        config = SimrankConfig(zero_evidence_floor=0.1)
        updated = config.with_decay(0.6).with_iterations(3)
        assert updated.c1 == 0.6 and updated.c2 == 0.8
        assert updated.iterations == 3
        # Unrelated fields are preserved by the copies.
        assert updated.zero_evidence_floor == 0.1


class TestRegistry:
    def test_paper_methods_are_available(self):
        for name in PAPER_METHODS:
            assert name in available_methods()

    @pytest.mark.parametrize("name", ["pearson", "simrank", "evidence_simrank", "weighted_simrank", "common_ads", "jaccard", "cosine"])
    def test_create_every_method(self, name, fig3_graph):
        method = create(name)
        assert isinstance(method, QuerySimilarityMethod)
        method.fit(fig3_graph)
        assert method.query_similarity("camera", "camera") == 1.0

    def test_backends_agree(self, fig3_graph, paper_config):
        reference = create("simrank", config=paper_config, backend="reference").fit(fig3_graph)
        matrix = create("simrank", config=paper_config, backend="sharded").fit(fig3_graph)
        assert matrix.query_similarity("pc", "tv") == pytest.approx(
            reference.query_similarity("pc", "tv"), abs=1e-9
        )

    def test_unknown_method_and_backend(self):
        with pytest.raises(ValueError):
            create("not-a-method")
        with pytest.raises(ValueError):
            create("simrank", backend="gpu")


class TestConvergence:
    def test_residual_bound_decreases(self):
        bounds = [theoretical_residual_bound(0.8, k) for k in range(6)]
        assert bounds == sorted(bounds, reverse=True)
        assert theoretical_residual_bound(1.0, 3) == float("inf")

    def test_iterations_for_accuracy(self):
        k = iterations_for_accuracy(0.8, 0.01)
        assert theoretical_residual_bound(0.8, k) < 0.01
        assert theoretical_residual_bound(0.8, k - 1) >= 0.01

    def test_iteration_deltas_from_history(self, k22_graph, paper_config):
        from repro.core.simrank import BipartiteSimrank

        simrank = BipartiteSimrank(paper_config, track_history=True).fit(k22_graph)
        deltas = iteration_deltas(simrank.result.query_history)
        assert len(deltas) == paper_config.iterations - 1
        assert deltas == sorted(deltas, reverse=True)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            theoretical_residual_bound(0.0, 3)
        with pytest.raises(ValueError):
            iterations_for_accuracy(0.8, 0.0)
