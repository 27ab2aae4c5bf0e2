"""Tests for log aggregation, dataset statistics, validation and sampling."""

import random

import pytest

from repro.graph.builders import ImpressionRecord, build_click_graph_from_log, merge_click_graphs
from repro.graph.click_graph import ClickGraph
from repro.graph.sampling import intersect_with_graph, sample_queries_by_traffic, traffic_popularity
from repro.graph.statistics import (
    dataset_statistics,
    degree_distribution,
    estimate_power_law_exponent,
    statistics_table,
)
from repro.graph.validation import validate_click_graph


class TestBuilders:
    def test_aggregation_counts_impressions_and_clicks(self):
        records = [
            ImpressionRecord("camera", "hp.com", position=1, clicked=True),
            ImpressionRecord("camera", "hp.com", position=2, clicked=False),
            ImpressionRecord("camera", "hp.com", position=1, clicked=True),
            ImpressionRecord("pc", "dell.com", position=1, clicked=False),
        ]
        graph = build_click_graph_from_log(records)
        stats = graph.edge("camera", "hp.com")
        assert stats.impressions == 3
        assert stats.clicks == 2
        # The pc-dell pair never clicked, so it is not an edge (paper Section 2).
        assert not graph.has_edge("pc", "dell.com")

    def test_position_prior_debiases_expected_click_rate(self):
        records = [
            ImpressionRecord("q", "a", position=3, clicked=True),
            ImpressionRecord("q", "a", position=3, clicked=False),
        ]
        prior = {1: 1.0, 2: 0.5, 3: 0.25}
        graph = build_click_graph_from_log(records, position_prior=prior)
        stats = graph.edge("q", "a")
        # One click over 0.5 examination mass, clamped to 1.0.
        assert stats.expected_click_rate == pytest.approx(1.0)
        assert stats.click_through_rate == pytest.approx(0.5)

    def test_min_clicks_threshold(self):
        records = [ImpressionRecord("q", "a", clicked=True)]
        assert build_click_graph_from_log(records, min_clicks=2).num_edges == 0

    def test_merge_click_graphs(self, fig3_graph):
        other = ClickGraph()
        other.add_edge("camera", "hp.com", impressions=5, clicks=2)
        other.add_edge("new query", "new-ad.com", impressions=3, clicks=1)
        merged = merge_click_graphs([fig3_graph, other])
        assert merged.edge("camera", "hp.com").clicks == 3
        assert merged.has_edge("new query", "new-ad.com")
        assert merged.num_edges == fig3_graph.num_edges + 1


class TestStatistics:
    def test_dataset_statistics_counts(self, fig3_graph):
        stats = dataset_statistics(fig3_graph)
        assert stats.num_queries == 5
        assert stats.num_ads == 4
        assert stats.num_edges == 8
        assert stats.as_row() == {"# of Queries": 5, "# of Ads": 4, "# of Edges": 8}

    def test_statistics_table_has_total_row(self, fig3_graph, small_weighted_graph):
        rows = statistics_table([fig3_graph, small_weighted_graph])
        assert rows[-1]["subgraph"] == "Total"
        assert rows[-1]["# of Edges"] == fig3_graph.num_edges + small_weighted_graph.num_edges

    def test_degree_distribution_sides(self, fig3_graph):
        per_query = degree_distribution(fig3_graph, side="query")
        per_ad = degree_distribution(fig3_graph, side="ad")
        assert per_query.num_observations == 5
        assert per_query.max == 2
        assert per_ad.max == 3
        assert per_query.fraction_at_least(2) == pytest.approx(3 / 5)
        with pytest.raises(ValueError):
            degree_distribution(fig3_graph, side="bogus")

    def test_power_law_exponent_estimation(self):
        rng = random.Random(0)
        # Sample from P(k) ~ k^-2.5 over 1..50 and check the MLE is in the ballpark.
        support = list(range(1, 51))
        weights = [k ** -2.5 for k in support]
        sample = rng.choices(support, weights=weights, k=5000)
        alpha = estimate_power_law_exponent(sample)
        assert 2.0 < alpha < 3.0

    def test_power_law_exponent_requires_observations(self):
        with pytest.raises(ValueError):
            estimate_power_law_exponent([], xmin=1)


class TestValidation:
    def test_clean_graph_has_no_issues(self, small_weighted_graph):
        assert validate_click_graph(small_weighted_graph) == []

    def test_zero_click_edge_is_an_error(self):
        graph = ClickGraph()
        graph.add_edge("q", "a", impressions=10, clicks=0)
        issues = validate_click_graph(graph)
        assert any(issue.code == "zero-click-edge" for issue in issues)
        assert any(issue.severity == "error" for issue in issues)

    def test_isolated_nodes_flagged_when_requested(self):
        graph = ClickGraph()
        graph.add_query("alone")
        graph.add_edge("q", "a", impressions=2, clicks=1)
        issues = validate_click_graph(graph, allow_isolated_nodes=False)
        assert any(issue.code == "isolated-query" for issue in issues)

    def test_ecr_above_max_is_a_warning(self):
        graph = ClickGraph()
        graph.add_edge("q", "a", impressions=10, clicks=5, expected_click_rate=1.5)
        issues = validate_click_graph(graph)
        assert any(issue.code == "ecr-above-max" for issue in issues)

    def test_issue_str_is_informative(self):
        graph = ClickGraph()
        graph.add_edge("q", "a", impressions=10, clicks=0)
        issue = validate_click_graph(graph)[0]
        assert "zero-click-edge" in str(issue)


class TestSampling:
    def test_sample_is_popularity_weighted(self):
        rng = random.Random(1)
        traffic = ["popular"] * 900 + ["rare"] * 100
        sample = sample_queries_by_traffic(traffic, 200, rng=rng, unique=False)
        counts = traffic_popularity(sample)
        assert counts["popular"] > counts["rare"]

    def test_unique_sampling_removes_duplicates(self):
        rng = random.Random(2)
        sample = sample_queries_by_traffic(["a", "b", "c"] * 100, 50, rng=rng)
        assert len(sample) == len(set(sample))

    def test_empty_traffic(self):
        assert sample_queries_by_traffic([], 10, rng=random.Random(0)) == []

    def test_negative_sample_size_rejected(self):
        with pytest.raises(ValueError):
            sample_queries_by_traffic(["a"], -1, rng=random.Random(0))

    def test_intersect_with_graph(self, fig3_graph):
        kept = intersect_with_graph(["camera", "unknown query", "flower"], fig3_graph)
        assert kept == ["camera", "flower"]
