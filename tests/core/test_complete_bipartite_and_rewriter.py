"""Closed-form oracle checks (Appendices A/B) and query-rewriter pipeline tests."""

import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.core.rewriter as rewriter_module
from repro.core.complete_bipartite import (
    evidence_simrank_k12_score,
    evidence_simrank_k22_score,
    simrank_k12_score,
    simrank_k22_score,
    simrank_km2_scores,
)
from repro.core.config import SimrankConfig
from repro.core.rewriter import CandidateDecision, QueryRewriter
from repro.core.simrank import BipartiteSimrank
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.scores import SimilarityScores
from repro.synth.scenarios import complete_bipartite_graph, multi_component_graph
from repro.text.normalize import query_signature


class TestClosedForms:
    def test_k22_closed_form_matches_iteration(self, k22_graph, paper_config):
        """Theorem A.1(i): the closed form equals the actual iteration trace."""
        simrank = BipartiteSimrank(paper_config, track_history=True).fit(k22_graph)
        for k in range(1, paper_config.iterations + 1):
            observed = simrank.result.ad_history[k - 1].score("hp.com", "bestbuy.com")
            assert observed == pytest.approx(simrank_k22_score(k), abs=1e-12)

    def test_k22_limit_below_c2(self):
        """Theorem A.1(ii): the limit never exceeds C2."""
        assert simrank_k22_score(200, c1=0.8, c2=0.8) <= 0.8
        assert simrank_k22_score(200, c1=1.0, c2=1.0) == pytest.approx(1.0, abs=1e-6)

    def test_k12_score_is_c2(self):
        assert simrank_k12_score(0) == 0.0
        for k in (1, 3, 10):
            assert simrank_k12_score(k, c2=0.7) == 0.7

    def test_evidence_closed_forms(self):
        assert evidence_simrank_k12_score(5, c2=0.8) == pytest.approx(0.4)
        assert evidence_simrank_k22_score(1) == pytest.approx(0.3)
        assert evidence_simrank_k22_score(2) == pytest.approx(0.42)

    def test_theorem_6_2_general_m(self):
        """Theorem 6.2(i): the K_{m,2} ad pair scores decrease as m grows."""
        for k in (1, 3, 7):
            scores = [simrank_km2_scores(m, k)[k][0] for m in (1, 2, 3, 5, 8)]
            assert all(earlier >= later for earlier, later in zip(scores, scores[1:]))

    def test_km2_matches_direct_iteration(self, paper_config):
        graph = complete_bipartite_graph(3, 2)
        simrank = BipartiteSimrank(paper_config, track_history=True).fit(graph)
        closed = simrank_km2_scores(3, paper_config.iterations)
        for k in range(1, paper_config.iterations + 1):
            assert simrank.result.ad_history[k - 1].score("a0", "a1") == pytest.approx(
                closed[k][0], abs=1e-12
            )
            assert simrank.result.query_history[k - 1].score("q0", "q1") == pytest.approx(
                closed[k][1], abs=1e-12
            )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simrank_k22_score(-1)
        with pytest.raises(ValueError):
            simrank_km2_scores(0, 3)
        with pytest.raises(ValueError):
            simrank_km2_scores(2, 0)


class _FixedScoresMethod(QuerySimilarityMethod):
    """Test double with hand-written similarity scores."""

    name = "fixed"

    def __init__(self, pairs):
        super().__init__()
        self._pairs = pairs

    def _compute_query_scores(self, graph):
        return SimilarityScores(self._pairs)


def _camera_method():
    return _FixedScoresMethod(
        {
            ("camera", "digital camera"): 0.9,
            ("camera", "cameras"): 0.85,       # stem-duplicate of the query itself
            ("camera", "photo printer"): 0.6,
            ("camera", "unbid query"): 0.55,
            ("camera", "tripod"): 0.5,
            ("camera", "pc"): 0.4,
        }
    )


class TestQueryRewriter:

    def test_pipeline_applies_dedup_bid_filter_and_cap(self, fig3_graph):
        bid_terms = {"digital camera", "photo printer", "tripod", "pc"}
        rewriter = QueryRewriter(_camera_method(), bid_terms=bid_terms, max_rewrites=3)
        rewriter.fit(fig3_graph)
        rewrites = rewriter.rewrites_for("camera")
        assert rewrites.candidates() == ["digital camera", "photo printer", "tripod"]
        assert rewrites.depth == 3
        assert rewrites.covered
        ranks = [rewrite.rank for rewrite in rewrites.rewrites]
        assert ranks == [1, 2, 3]

    def test_stemming_dedup_drops_query_variants(self, fig3_graph):
        rewriter = QueryRewriter(_camera_method(), bid_terms=None, max_rewrites=5)
        rewriter.fit(fig3_graph)
        candidates = rewriter.rewrites_for("camera").candidates()
        assert "cameras" not in candidates

    def test_dedup_can_be_disabled(self, fig3_graph):
        rewriter = QueryRewriter(_camera_method(), deduplicate=False)
        rewriter.fit(fig3_graph)
        assert "cameras" in rewriter.rewrites_for("camera").candidates()

    def test_bid_filter_none_keeps_everything(self, fig3_graph):
        rewriter = QueryRewriter(
            _camera_method(), bid_terms=None, max_rewrites=10, candidate_pool=10
        )
        rewriter.fit(fig3_graph)
        assert "unbid query" in rewriter.rewrites_for("camera").candidates()

    def test_min_score_threshold(self, fig3_graph):
        rewriter = QueryRewriter(_camera_method(), min_score=0.7)
        rewriter.fit(fig3_graph)
        assert rewriter.rewrites_for("camera").candidates() == ["digital camera"]

    def test_coverage_and_depth_histogram(self, fig3_graph):
        rewriter = QueryRewriter(_camera_method(), max_rewrites=5)
        rewriter.fit(fig3_graph)
        queries = ["camera", "query with no rewrites"]
        assert rewriter.coverage(queries) == pytest.approx(0.5)
        histogram = rewriter.depth_histogram(queries)
        assert histogram[0] == 1
        assert sum(histogram) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QueryRewriter(_camera_method(), max_rewrites=0)
        with pytest.raises(ValueError):
            QueryRewriter(_camera_method(), max_rewrites=10, candidate_pool=5)

    def test_integration_with_real_method(self, fig3_graph, paper_config):
        method = BipartiteSimrank(paper_config)
        rewriter = QueryRewriter(method, bid_terms={"digital camera", "tv", "pc"})
        rewriter.fit(fig3_graph)
        rewrites = rewriter.rewrites_for("camera")
        assert rewrites.depth >= 2
        assert set(rewrites.candidates()) <= {"digital camera", "tv", "pc"}

    def _count_top_rewrites(self, rewriter):
        calls = {"count": 0}
        original = rewriter.method.top_rewrites

        def wrapper(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        rewriter.method.top_rewrites = wrapper
        return calls

    def test_stats_share_one_topk_pass_per_query(self, fig3_graph):
        """Regression: coverage + depth_histogram used to rerun the top-k scan."""
        rewriter = QueryRewriter(_camera_method(), max_rewrites=5).fit(fig3_graph)
        calls = self._count_top_rewrites(rewriter)
        queries = ["camera", "query with no rewrites", "camera"]
        rewriter.coverage(queries)
        rewriter.depth_histogram(queries)
        rewriter.rewrites_for("camera")
        assert calls["count"] == 2  # one scan per *unique* query, ever

    def test_clear_cache_and_refit_invalidate_the_memo(self, fig3_graph):
        rewriter = QueryRewriter(_camera_method(), max_rewrites=5).fit(fig3_graph)
        calls = self._count_top_rewrites(rewriter)
        rewriter.rewrites_for("camera")
        rewriter.clear_cache()
        rewriter.rewrites_for("camera")
        assert calls["count"] == 2

    def test_bid_terms_match_stemming_and_casing_variants(self, fig3_graph):
        """Regression: the filter compared raw strings, dropping bid-term variants."""
        rewriter = QueryRewriter(
            _camera_method(),
            bid_terms={"Digital Cameras", "PRINTER PHOTO", "tripods"},
            max_rewrites=5,
        ).fit(fig3_graph)
        candidates = rewriter.rewrites_for("camera").candidates()
        # "digital camera" / "photo printer" / "tripod" stem to the same
        # signatures as the bid terms above and must survive the filter.
        assert candidates == ["digital camera", "photo printer", "tripod"]

    def test_bid_term_reassignment_refreshes_the_filter(self, fig3_graph):
        rewriter = QueryRewriter(_camera_method(), bid_terms={"digital camera"}).fit(fig3_graph)
        assert rewriter.rewrites_for("camera").candidates() == ["digital camera"]
        rewriter.bid_terms = {"tripod"}
        rewriter.clear_cache()
        assert rewriter.rewrites_for("camera").candidates() == ["tripod"]

    def test_in_place_bid_term_mutation_refreshes_after_clear_cache(self, fig3_graph):
        """Regression: identity-based staleness missed in-place set mutations."""
        bid_terms = {"digital camera"}
        rewriter = QueryRewriter(_camera_method(), bid_terms=bid_terms).fit(fig3_graph)
        assert rewriter.rewrites_for("camera").candidates() == ["digital camera"]
        bid_terms.add("tripod")
        rewriter.clear_cache()
        assert rewriter.rewrites_for("camera").candidates() == ["digital camera", "tripod"]

    def test_explain_candidates_traces_every_fate(self, fig3_graph):
        rewriter = QueryRewriter(
            _camera_method(),
            bid_terms={"digital camera", "cameras", "photo printer", "tripod", "pc"},
            max_rewrites=3,
        ).fit(fig3_graph)
        decisions = {d.candidate: d for d in rewriter.explain_candidates("camera")}
        assert decisions["digital camera"].fate == "accepted"
        assert decisions["digital camera"].rank == 1
        assert decisions["cameras"].fate == "duplicate"  # stem-dup of the query
        assert decisions["unbid query"].fate == "not_in_bid_terms"
        assert decisions["pc"].fate == "beyond_max_rewrites"


class TestStemOnce:
    """The filter stems each score-index node once, and only when it must."""

    @pytest.fixture
    def stems(self, monkeypatch):
        """Counts ``query_signature`` calls by argument."""
        calls = Counter()
        original = rewriter_module.query_signature

        def counting(text):
            calls[text] += 1
            return original(text)

        monkeypatch.setattr(rewriter_module, "query_signature", counting)
        return calls

    def _rewriter(self, fig3_graph, **options):
        return QueryRewriter(_camera_method(), **options).fit(fig3_graph)

    def test_each_node_is_stemmed_at_most_once(self, fig3_graph, stems):
        rewriter = self._rewriter(fig3_graph, max_rewrites=5)
        nodes = ["camera", "digital camera", "cameras", "photo printer", "tripod", "pc"]
        for _ in range(3):
            for node in nodes:
                rewriter.compute_rewrites(node)
        assert stems
        assert max(stems.values()) == 1

    def test_nothing_past_max_rewrites_is_stemmed(self, fig3_graph, stems):
        rewriter = self._rewriter(fig3_graph, max_rewrites=2)
        assert rewriter.compute_rewrites("camera").candidates() == [
            "digital camera", "photo printer",
        ]
        # "cameras" is stemmed and dropped as a duplicate of the query; the
        # candidates after the second acceptance are never looked at.
        assert set(stems) == {"camera", "digital camera", "cameras", "photo printer"}

    def test_explain_still_reports_every_candidate(self, fig3_graph, stems):
        rewriter = self._rewriter(
            fig3_graph,
            bid_terms={"digital camera", "cameras", "photo printer", "tripod", "pc"},
            max_rewrites=3,
        )
        assert rewriter.explain_candidates("camera") == [
            CandidateDecision("digital camera", 0.9, "accepted", 1),
            CandidateDecision("cameras", 0.85, "duplicate"),
            CandidateDecision("photo printer", 0.6, "accepted", 2),
            CandidateDecision("unbid query", 0.55, "not_in_bid_terms"),
            CandidateDecision("tripod", 0.5, "accepted", 3),
            CandidateDecision("pc", 0.4, "beyond_max_rewrites"),
        ]

    def test_unknown_queries_never_enter_the_memo(self, fig3_graph):
        rewriter = self._rewriter(fig3_graph)
        rewriter.compute_rewrites("camera")
        size = len(rewriter._signatures)
        for number in range(1000):
            assert rewriter.compute_rewrites(f"unknown query {number}").rewrites == []
        assert len(rewriter._signatures) == size

    def test_clear_cache_empties_the_memo(self, fig3_graph):
        rewriter = self._rewriter(fig3_graph)
        rewriter.compute_rewrites("camera")
        assert rewriter._signatures
        rewriter.clear_cache()
        assert rewriter._signatures == {}

    @pytest.mark.timeout(60)
    def test_concurrent_fills_agree_with_a_serial_pass(self):
        graph = multi_component_graph(num_components=4, queries_per_component=12, seed=5)
        rewriter = QueryRewriter(BipartiteSimrank(SimrankConfig(iterations=5))).fit(graph)
        queries = list(graph.queries())
        expected = [rewriter.compute_rewrites(query).as_tuples() for query in queries]
        rewriter.clear_cache()

        def serve_all():
            return [rewriter.compute_rewrites(query).as_tuples() for query in queries]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(serve_all) for _ in range(8)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8
        assert rewriter._signatures == {
            node: query_signature(node) for node in rewriter._signatures
        }
