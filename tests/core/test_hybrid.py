"""Tests for the text-based and hybrid similarity extension (paper Section 11)."""

import pytest

from repro.core.config import SimrankConfig
from repro.core.hybrid import HybridSimilarity, TextSimilarity, text_similarity
from repro.core.simrank_matrix import MatrixSimrank
from repro.graph.click_graph import ClickGraph


class TestTextSimilarity:
    def test_pairwise_function(self):
        assert text_similarity("digital camera", "camera") == pytest.approx(0.5)
        assert text_similarity("digital cameras", "digital camera") == pytest.approx(1.0)
        assert text_similarity("flower", "laptop") == 0.0
        assert text_similarity("", "") == 0.0

    def test_method_over_graph(self, fig3_graph):
        method = TextSimilarity().fit(fig3_graph)
        assert method.query_similarity("camera", "digital camera") == pytest.approx(0.5)
        # "pc" and "tv" share no token, so text similarity cannot relate them.
        assert method.query_similarity("pc", "tv") == 0.0
        assert method.query_similarity("camera", "camera") == 1.0

    def test_scores_are_bounded(self, tiny_workload):
        method = TextSimilarity().fit(tiny_workload.click_graph)
        for _, _, value in method.similarities().pairs():
            assert 0.0 < value <= 1.0


class TestHybridSimilarity:
    @pytest.fixture
    def graph(self):
        graph = ClickGraph()
        graph.add_edge("camera", "hp.com", impressions=100, clicks=10)
        graph.add_edge("digital camera", "hp.com", impressions=100, clicks=10)
        graph.add_edge("pc", "dell.com", impressions=100, clicks=10)
        graph.add_edge("cheap pc", "dell.com", impressions=100, clicks=10)
        # "camera store" has no click edges shared with "camera".
        graph.add_edge("camera store", "localshop.com", impressions=50, clicks=5)
        return graph

    def test_alpha_extremes(self, graph):
        config = SimrankConfig(iterations=5)
        graph_only = HybridSimilarity(MatrixSimrank(config), alpha=1.0).fit(graph)
        text_only = HybridSimilarity(MatrixSimrank(config), alpha=0.0).fit(graph)
        pure_graph = MatrixSimrank(config).fit(graph)
        assert graph_only.query_similarity("camera", "digital camera") == pytest.approx(
            pure_graph.query_similarity("camera", "digital camera")
        )
        assert text_only.query_similarity("camera", "camera store") == pytest.approx(0.5)

    def test_hybrid_covers_pairs_from_both_components(self, graph):
        hybrid = HybridSimilarity(MatrixSimrank(SimrankConfig(iterations=5)), alpha=0.6).fit(graph)
        # Click-only relationship (no shared tokens).
        assert hybrid.query_similarity("pc", "cheap pc") > 0.0
        # Text-only relationship (no shared ads).
        assert hybrid.query_similarity("camera", "camera store") > 0.0
        graph_part, text_part = hybrid.component_scores("camera", "camera store")
        assert graph_part == 0.0 and text_part > 0.0

    def test_hybrid_is_linear_combination(self, graph):
        config = SimrankConfig(iterations=5)
        alpha = 0.3
        hybrid = HybridSimilarity(MatrixSimrank(config), alpha=alpha).fit(graph)
        pure_graph = MatrixSimrank(config).fit(graph)
        text = TextSimilarity().fit(graph)
        for first, second in [("camera", "digital camera"), ("pc", "cheap pc")]:
            expected = alpha * pure_graph.query_similarity(first, second) + (1 - alpha) * (
                text.query_similarity(first, second)
            )
            assert hybrid.query_similarity(first, second) == pytest.approx(expected)

    def test_plain_refit_after_in_place_mutation_is_fresh_too(self, graph):
        """The unseeded path must refit the inner method as well."""
        config = SimrankConfig(iterations=5)
        hybrid = HybridSimilarity(MatrixSimrank(config), alpha=1.0).fit(graph)
        assert hybrid.query_similarity("camera", "digital camera") > 0.0
        graph.remove_edge("digital camera", "hp.com")
        hybrid.fit(graph)  # no seed: still must not serve stale inner scores
        assert hybrid.query_similarity("camera", "digital camera") == 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            HybridSimilarity(MatrixSimrank(SimrankConfig(iterations=3)), alpha=1.5)

    def test_name_mentions_components(self):
        hybrid = HybridSimilarity(MatrixSimrank(SimrankConfig(iterations=3), mode="weighted"), alpha=0.5)
        assert "weighted_simrank" in hybrid.name
