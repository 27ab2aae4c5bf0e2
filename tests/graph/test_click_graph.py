"""Unit tests for the click graph data structure."""

import math
import random

import pytest

from repro.graph.click_graph import ClickGraph, EdgeStats, NodeKind, WeightSource


class TestEdgeStats:
    def test_expected_click_rate_defaults_to_ctr(self):
        stats = EdgeStats(impressions=100, clicks=10)
        assert stats.expected_click_rate == pytest.approx(0.1)

    def test_explicit_expected_click_rate_is_kept(self):
        stats = EdgeStats(impressions=100, clicks=10, expected_click_rate=0.25)
        assert stats.expected_click_rate == pytest.approx(0.25)

    def test_clicks_cannot_exceed_impressions(self):
        with pytest.raises(ValueError):
            EdgeStats(impressions=5, clicks=6)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            EdgeStats(impressions=-1, clicks=0)
        with pytest.raises(ValueError):
            EdgeStats(impressions=1, clicks=-1)

    def test_zero_impressions_has_zero_ctr(self):
        stats = EdgeStats(impressions=0, clicks=0)
        assert stats.click_through_rate == 0.0

    def test_weight_sources(self):
        stats = EdgeStats(impressions=200, clicks=20, expected_click_rate=0.15)
        assert stats.weight(WeightSource.EXPECTED_CLICK_RATE) == pytest.approx(0.15)
        assert stats.weight(WeightSource.CLICKS) == 20
        assert stats.weight(WeightSource.IMPRESSIONS) == 200
        assert stats.weight(WeightSource.CLICK_THROUGH_RATE) == pytest.approx(0.1)

    def test_merged_with_adds_counts(self):
        first = EdgeStats(impressions=100, clicks=10, expected_click_rate=0.1)
        second = EdgeStats(impressions=300, clicks=60, expected_click_rate=0.2)
        merged = first.merged_with(second)
        assert merged.impressions == 400
        assert merged.clicks == 70
        # Impression-weighted average of the expected click rates.
        assert merged.expected_click_rate == pytest.approx((0.1 * 100 + 0.2 * 300) / 400)


class TestClickGraphBasics:
    def test_add_edge_creates_nodes(self):
        graph = ClickGraph()
        graph.add_edge("camera", "hp.com", impressions=10, clicks=2)
        assert graph.has_query("camera")
        assert graph.has_ad("hp.com")
        assert graph.has_edge("camera", "hp.com")
        assert graph.num_edges == 1

    def test_query_and_ad_namespaces_are_separate(self):
        graph = ClickGraph()
        graph.add_query("shared-name")
        graph.add_ad("shared-name")
        assert graph.num_queries == 1
        assert graph.num_ads == 1
        assert graph.num_nodes == 2

    def test_degree_matches_neighbor_count(self, fig3_graph):
        assert fig3_graph.query_degree("camera") == 2
        assert fig3_graph.query_degree("pc") == 1
        assert fig3_graph.ad_degree("hp.com") == 3
        assert fig3_graph.degree("camera", NodeKind.QUERY) == 2
        assert fig3_graph.degree("hp.com", NodeKind.AD) == 3

    def test_neighbors(self, fig3_graph):
        assert set(fig3_graph.ads_of("camera")) == {"hp.com", "bestbuy.com"}
        assert set(fig3_graph.queries_of("bestbuy.com")) == {"camera", "digital camera", "tv"}
        assert fig3_graph.neighbors("flower", NodeKind.QUERY) == sorted(
            fig3_graph.ads_of("flower")
        ) or set(fig3_graph.neighbors("flower", NodeKind.QUERY)) == {
            "teleflora.com",
            "orchids.com",
        }

    def test_missing_edge_returns_none_and_zero_weight(self, fig3_graph):
        assert fig3_graph.edge("pc", "teleflora.com") is None
        assert fig3_graph.weight("pc", "teleflora.com") == 0.0

    def test_remove_edge(self, fig3_graph):
        stats = fig3_graph.remove_edge("camera", "hp.com")
        assert stats.clicks == 1
        assert not fig3_graph.has_edge("camera", "hp.com")
        assert "camera" not in fig3_graph.queries_of("hp.com")
        # Nodes survive edge removal.
        assert fig3_graph.has_query("camera")

    def test_remove_missing_edge_raises(self, fig3_graph):
        with pytest.raises(KeyError):
            fig3_graph.remove_edge("pc", "orchids.com")

    def test_add_edge_merge(self):
        graph = ClickGraph()
        graph.add_edge("q", "a", impressions=10, clicks=1)
        graph.add_edge("q", "a", impressions=20, clicks=3, merge=True)
        stats = graph.edge("q", "a")
        assert stats.impressions == 30
        assert stats.clicks == 4

    def test_totals(self, small_weighted_graph):
        assert small_weighted_graph.total_clicks() == sum(
            stats.clicks for _, _, stats in small_weighted_graph.edges()
        )
        assert small_weighted_graph.total_impressions() > small_weighted_graph.total_clicks()


def random_click_graph(rng):
    """A random multi-component click graph with shuffled insertion order."""
    graph = ClickGraph()
    num_queries, num_ads = rng.randint(1, 25), rng.randint(1, 15)
    edges = [
        (f"q{rng.randrange(num_queries)}", f"a{rng.randrange(num_ads)}")
        for _ in range(rng.randint(0, 60))
    ]
    for query, ad in edges:
        impressions = rng.randint(1, 100)
        graph.add_edge(query, ad, impressions=impressions, clicks=rng.randint(0, impressions))
    for _ in range(rng.randint(0, 3)):  # isolated nodes
        graph.add_query(f"lonely-q{rng.randrange(100)}")
        graph.add_ad(f"lonely-a{rng.randrange(100)}")
    return graph


def brute_force_subgraph(graph, queries, ads):
    """Induced subgraph by filtering every node and every edge of the parent."""
    query_set = set(graph.queries()) if queries is None else set(queries)
    ad_set = set(graph.ads()) if ads is None else set(ads)
    sub = ClickGraph()
    for query in graph.queries():
        if query in query_set:
            sub.add_query(query)
    for ad in graph.ads():
        if ad in ad_set:
            sub.add_ad(ad)
    for query, ad, stats in graph.edges():
        if query in query_set and ad in ad_set:
            sub.add_edge_stats(query, ad, stats)
    return sub


class TestClickGraphDerivation:
    def test_copy_is_equal_but_independent(self, fig3_graph):
        clone = fig3_graph.copy()
        assert clone == fig3_graph
        clone.remove_edge("camera", "hp.com")
        assert clone != fig3_graph
        assert fig3_graph.has_edge("camera", "hp.com")

    def test_copy_keeps_both_sides_adjacency_order(self):
        """An ad's queries keep their insertion order, not query-major order."""
        graph = ClickGraph()
        graph.add_edge("q1", "a1")
        graph.add_edge("q2", "a2")
        graph.add_edge("q2", "a1")
        graph.add_edge("q1", "a2")
        clone = graph.copy()
        for ad in ("a1", "a2"):
            assert list(clone.queries_of(ad)) == list(graph.queries_of(ad))
        assert list(clone.edges()) == list(graph.edges())

    def test_subgraph_keeps_only_selected_nodes(self, fig3_graph):
        sub = fig3_graph.subgraph(queries=["camera", "digital camera"])
        assert set(sub.queries()) == {"camera", "digital camera"}
        assert sub.num_edges == 4
        assert not sub.has_edge("pc", "hp.com")

    def test_subgraph_defaults_keep_everything(self, fig3_graph):
        assert fig3_graph.subgraph() == fig3_graph

    @pytest.mark.parametrize("seed", range(12))
    def test_subgraph_matches_brute_force_order_and_content(self, seed):
        """Node order, edge order, adjacency order and stats objects all match
        an induced subgraph built by filtering every parent edge."""
        rng = random.Random(seed)
        graph = random_click_graph(rng)
        queries = list(graph.queries()) + ["unknown-query"]
        ads = list(graph.ads()) + ["unknown-ad"]
        selections = [
            (None, None),
            (rng.sample(queries, rng.randint(0, len(queries))), None),
            (None, rng.sample(ads, rng.randint(0, len(ads)))),
            (
                rng.sample(queries, rng.randint(0, len(queries))),
                rng.sample(ads, rng.randint(0, len(ads))),
            ),
        ]
        for selected_queries, selected_ads in selections:
            sub = graph.subgraph(queries=selected_queries, ads=selected_ads)
            expected = brute_force_subgraph(graph, selected_queries, selected_ads)
            assert sub == expected
            assert list(sub.queries()) == list(expected.queries())
            assert list(sub.ads()) == list(expected.ads())
            assert [(q, a) for q, a, _ in sub.edges()] == [
                (q, a) for q, a, _ in expected.edges()
            ]
            for (_, _, stats), (_, _, reference) in zip(sub.edges(), expected.edges()):
                assert stats is reference
            for ad in expected.ads():
                assert list(sub.queries_of(ad)) == list(expected.queries_of(ad))
            assert sub.total_clicks() == expected.total_clicks()

    def test_without_edges(self, fig3_graph):
        pruned = fig3_graph.without_edges([("camera", "hp.com"), ("unknown", "x")])
        assert not pruned.has_edge("camera", "hp.com")
        assert pruned.num_edges == fig3_graph.num_edges - 1
        # Original untouched.
        assert fig3_graph.has_edge("camera", "hp.com")

    def test_from_edges_defaults_to_single_click(self):
        graph = ClickGraph.from_edges([("q1", "a1", {}), ("q1", "a2", {"clicks": 5, "impressions": 50})])
        assert graph.edge("q1", "a1").clicks == 1
        assert graph.edge("q1", "a2").clicks == 5

    def test_weights_accessors(self, small_weighted_graph):
        weights = small_weighted_graph.query_weights("camera")
        assert weights["hp.com"] == pytest.approx(0.10)
        ad_weights = small_weighted_graph.ad_weights("hp.com")
        assert set(ad_weights) == {"camera", "digital camera", "pc"}


class TestClickGraphExport:
    def test_to_networkx_is_bipartite(self, fig3_graph):
        import networkx as nx

        graph = fig3_graph.to_networkx()
        assert graph.number_of_nodes() == fig3_graph.num_nodes
        assert graph.number_of_edges() == fig3_graph.num_edges
        assert nx.is_bipartite(graph)

    def test_to_sparse_matrix_shape_and_values(self, small_weighted_graph):
        matrix, query_index, ad_index = small_weighted_graph.to_sparse_matrix()
        assert matrix.shape == (small_weighted_graph.num_queries, small_weighted_graph.num_ads)
        row = query_index.index("camera")
        col = ad_index.index("hp.com")
        assert math.isclose(matrix[row, col], 0.10, rel_tol=1e-9)

    def test_repr_mentions_counts(self, fig3_graph):
        text = repr(fig3_graph)
        assert "queries=5" in text
        assert "ads=4" in text
