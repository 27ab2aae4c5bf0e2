"""Refresh semantics of the serving engine: deltas, refits and the cache.

The contract under test (see ``RewriteEngine.refresh``):

* a no-op (empty) delta is a true no-op -- no refit, served rewrites
  identical, every cached entry and cache counter untouched;
* a delta touching one component invalidates exactly that component's
  cached queries -- re-serving other components' queries is all cache hits,
  re-serving the touched component's is misses (asserted via ``CacheInfo``);
* after a refresh, serving equals a from-scratch fit on the updated graph.
"""

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core import faults
from repro.core.config import SimrankConfig
from repro.graph.delta import ClickGraphDelta, DeltaBuilder
from repro.synth.scenarios import multi_component_graph

#: Tolerance-converged config: the early exit must not change any answer.
SIMILARITY = SimrankConfig(iterations=80, tolerance=1e-8, zero_evidence_floor=0.1)

BACKENDS = ["sharded", "reference"]


def build_graph():
    return multi_component_graph(
        num_components=4, queries_per_component=4, ads_per_component=3, seed=17
    )


def build_engine(graph, backend="sharded", cache_size=None):
    config = EngineConfig(
        method="weighted_simrank",
        backend=backend,
        similarity=SIMILARITY,
        cache_size=cache_size,
    )
    bid_terms = {str(query) for query in graph.queries()}
    return RewriteEngine.from_graph(graph, config, bid_terms=bid_terms).fit()


def component_queries(graph, component):
    return sorted(q for q in graph.queries() if str(q).startswith(f"c{component}_"))


def one_component_delta(graph, component=0):
    queries = component_queries(graph, component)
    ads = sorted(a for a in graph.ads() if str(a).startswith(f"c{component}_"))
    stats = graph.edge(queries[0], ads[0])
    return (
        DeltaBuilder(graph)
        .set_edge(
            queries[0],
            ads[0],
            impressions=stats.impressions + 500,
            clicks=stats.clicks + 50,
        )
        .build()
    )


class TestNoOpDelta:
    def test_refresh_with_empty_delta_keeps_cache_warm(self):
        engine = build_engine(build_graph())
        queries = sorted(engine.graph.queries())
        before = engine.rewrite_batch(queries)
        info_before = engine.cache_info()

        engine.refresh(ClickGraphDelta())

        assert engine.last_refresh.refit is False
        assert engine.last_refresh.invalidated_entries == 0
        # Cache untouched: same size, same counters.
        assert engine.cache_info() == info_before
        # Re-serving is all hits, and rewrites are identical.
        after = engine.rewrite_batch(queries)
        assert [r.as_tuples() for r in after] == [r.as_tuples() for r in before]
        info_after = engine.cache_info()
        assert info_after.hits == info_before.hits + len(queries)
        assert info_after.misses == info_before.misses

    def test_builder_cancelling_events_is_noop(self):
        engine = build_engine(build_graph())
        queries = sorted(engine.graph.queries())
        engine.rewrite_batch(queries)
        stats = engine.graph.edge("c0_q0", "c0_a0")
        delta = (
            DeltaBuilder(engine.graph)
            .set_edge("c0_q0", "c0_a0", impressions=999, clicks=1)
            .set_edge_stats("c0_q0", "c0_a0", stats)
            .build()
        )
        assert delta.is_empty
        engine.refresh(delta)
        assert engine.last_refresh.refit is False


class TestSelectiveInvalidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_only_touched_component_misses(self, backend):
        engine = build_engine(build_graph(), backend=backend)
        queries = sorted(engine.graph.queries())
        engine.rewrite_batch(queries)
        touched = component_queries(engine.graph, 0)
        untouched = [query for query in queries if query not in touched]

        engine.refresh(one_component_delta(engine.graph, component=0))
        assert engine.last_refresh.refit is True
        assert engine.last_refresh.invalidated_entries == len(touched)

        base = engine.cache_info()
        engine.rewrite_batch(untouched)
        info = engine.cache_info()
        assert info.hits == base.hits + len(untouched)
        assert info.misses == base.misses

        engine.rewrite_batch(touched)
        info = engine.cache_info()
        assert info.misses == base.misses + len(touched)

    def test_sharded_backend_reuses_untouched_components(self):
        engine = build_engine(build_graph(), backend="sharded")
        engine.rewrite_batch(sorted(engine.graph.queries()))
        engine.refresh(one_component_delta(engine.graph, component=1))
        assert engine.method.reused_shards == 3
        assert engine.method.refitted_shards == 1

    def test_added_edge_merging_components_invalidates_both(self):
        engine = build_engine(build_graph())
        queries = sorted(engine.graph.queries())
        engine.rewrite_batch(queries)
        # Bridge components 0 and 1: both become one dirty component.
        delta = (
            DeltaBuilder(engine.graph)
            .set_edge("c0_q0", "c1_a0", impressions=100, clicks=10)
            .build()
        )
        engine.refresh(delta)
        merged = set(component_queries(engine.graph, 0)) | set(
            component_queries(engine.graph, 1)
        )
        assert engine.last_refresh.invalidated_entries == len(merged)

    def test_removed_edge_invalidates_old_component(self):
        engine = build_engine(build_graph())
        queries = sorted(engine.graph.queries())
        engine.rewrite_batch(queries)
        target = component_queries(engine.graph, 2)
        ads = sorted(a for a in engine.graph.ads() if str(a).startswith("c2_"))
        edge = next(
            (q, a) for q in target for a in ads if engine.graph.has_edge(q, a)
        )
        delta = DeltaBuilder(engine.graph).remove_edge(*edge).build()
        engine.refresh(delta)
        # Everything in the touched component is invalidated, even queries
        # the removal may have split away from the touched endpoints.
        assert engine.last_refresh.invalidated_entries == len(target)


class TestRefreshServingCorrectness:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refresh_matches_from_scratch_fit(self, backend):
        graph = build_graph()
        engine = build_engine(graph.copy(), backend=backend)
        queries = sorted(graph.queries())
        engine.rewrite_batch(queries)
        delta = one_component_delta(engine.graph, component=0)

        fresh_graph = graph.copy().apply_delta(delta)
        fresh = build_engine(fresh_graph, backend=backend)
        engine.refresh(delta)

        assert engine.serving_profile(queries) == fresh.serving_profile(queries)

    def test_bounded_cache_refresh_keeps_lru_semantics(self):
        graph = build_graph()
        engine = build_engine(graph.copy(), backend="sharded", cache_size=6)
        queries = sorted(graph.queries())
        engine.rewrite_batch(queries)
        engine.refresh(one_component_delta(engine.graph, component=3))
        # Serving still works and the bound still holds after invalidation.
        engine.rewrite_batch(queries)
        info = engine.cache_info()
        assert info.size <= 6
        assert info.capacity == 6

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_tolerance_refresh_keeps_cache_exactly_consistent(self, backend):
        """With tolerance=0 the kept cache entries stay *exact*.

        The fixed-iteration-count result is defined from the identity start,
        and untouched components recompute bit-identically, so every
        surviving cache entry equals a fresh recompute.
        """
        graph = build_graph()
        config = EngineConfig(
            method="simrank",
            backend=backend,
            similarity=SimrankConfig(iterations=7, zero_evidence_floor=0.1),
        )
        engine = RewriteEngine.from_graph(
            graph.copy(), config, bid_terms={str(q) for q in graph.queries()}
        ).fit()
        queries = sorted(graph.queries())
        cached = {q: r.as_tuples() for q, r in zip(queries, engine.rewrite_batch(queries))}

        engine.refresh(one_component_delta(engine.graph, component=0))
        untouched = [q for q in queries if q not in component_queries(engine.graph, 0)]
        for query in untouched:
            recomputed = engine._rewriter.compute_rewrites(query).as_tuples()
            assert cached[query] == recomputed  # bit-identical, not approx

    def test_successive_refreshes_accumulate(self):
        graph = build_graph()
        engine = build_engine(graph.copy(), backend="sharded")
        queries = sorted(graph.queries())
        for component in (0, 1):
            delta = one_component_delta(engine.graph, component=component)
            engine.refresh(delta)
        fresh = build_engine(engine.graph.copy(), backend="sharded")
        assert engine.serving_profile(queries) == fresh.serving_profile(queries)


class TestOldSignatureMethods:
    def test_single_argument_fit_methods_fit_and_refresh(self):
        """Methods overriding fit(graph) with one argument fit and refresh."""
        from repro.api.registry import register_method, unregister_method
        from repro.core.simrank_matrix import MatrixSimrank

        class LegacyMethod(MatrixSimrank):
            def fit(self, graph):  # old single-argument signature
                return super().fit(graph)

        register_method("legacy_method", backends=("matrix",))(
            lambda config, backend: LegacyMethod(config=config)
        )
        try:
            graph = build_graph()
            engine = RewriteEngine.from_graph(
                graph,
                EngineConfig(method="legacy_method", similarity=SIMILARITY),
                bid_terms={str(q) for q in graph.queries()},
            ).fit()
            queries = sorted(graph.queries())
            assert engine.rewrite(queries[0]) is not None
            engine.refresh(one_component_delta(engine.graph, component=0))
            assert engine.last_refresh.refit is True
            assert engine.rewrite(queries[0]) is not None
        finally:
            unregister_method("legacy_method")


class TestRefreshErrors:
    def test_unfitted_engine_rejects_refresh(self):
        graph = build_graph()
        engine = RewriteEngine.from_graph(
            graph, EngineConfig(method="weighted_simrank", similarity=SIMILARITY)
        )
        with pytest.raises(RuntimeError, match="not been fitted"):
            engine.refresh(ClickGraphDelta())

    def test_snapshot_engine_without_graph_rejects_refresh(self, tmp_path):
        engine = build_engine(build_graph())
        engine.save(tmp_path / "snap")
        loaded = RewriteEngine.load(tmp_path / "snap")
        delta = ClickGraphDelta(removed=(("c0_q0", "c0_a0"),))
        with pytest.raises(RuntimeError, match=r"fit\(graph\)"):
            loaded.refresh(delta)

    def test_failed_refresh_rolls_the_delta_back(self):
        """A refit failure mid-refresh leaves graph, scores and cache as before."""
        graph = build_graph()
        engine = build_engine(graph.copy())
        queries = sorted(graph.queries())
        before = engine.serving_profile(queries)
        info_before = engine.cache_info()
        delta = one_component_delta(engine.graph, component=0)

        plan = faults.FaultPlan([faults.FaultSpec("shard.fit", error="injected")])
        with plan, pytest.raises(faults.FaultError, match="injected"):
            engine.refresh(delta)
        assert plan.fire_count("shard.fit") == 1
        assert engine.graph == graph  # delta rolled back
        assert engine.last_refresh is None
        assert engine.cache_info() == info_before
        assert engine.serving_profile(queries) == before

        engine.refresh(delta)  # the same refresh succeeds on retry
        fresh = build_engine(graph.copy().apply_delta(delta))
        assert engine.serving_profile(queries) == fresh.serving_profile(queries)

    def test_mismatched_delta_leaves_engine_consistent(self):
        engine = build_engine(build_graph())
        queries = sorted(engine.graph.queries())
        before = engine.serving_profile(queries)
        bad = ClickGraphDelta(removed=(("never", "seen"),))
        with pytest.raises(ValueError):
            engine.refresh(bad)
        assert engine.serving_profile(queries) == before


class TestCopy:
    """RewriteEngine.copy(): the building block of copy-on-write serving."""

    def test_copy_serves_identically_and_shares_no_cache(self):
        engine = build_engine(build_graph(), cache_size=8)
        queries = sorted(str(q) for q in engine.graph.queries())
        engine.rewrite_batch(queries[:4])
        clone = engine.copy()
        assert clone is not engine
        assert clone.serving_profile(queries) == engine.serving_profile(queries)
        # Counters came across, but the cache itself is independent.
        assert clone.cache_info().size == engine.cache_info().size
        clone.clear_cache()
        assert clone.cache_info().size == 0
        assert engine.cache_info().size > 0

    def test_refreshing_the_copy_leaves_the_original_untouched(self):
        graph = build_graph()
        engine = build_engine(graph)
        queries = sorted(str(q) for q in graph.queries())
        before_profile = engine.serving_profile(queries)
        before_edges = {(q, a) for q, a, _ in engine.graph.edges()}

        clone = engine.copy()
        clone.refresh(one_component_delta(clone.graph))

        assert engine.graph is not clone.graph
        assert {(q, a) for q, a, _ in engine.graph.edges()} == before_edges
        assert engine.serving_profile(queries) == before_profile
        assert engine.last_refresh is None
        assert clone.last_refresh is not None
        # ... and the refreshed copy matches a from-scratch fit.
        fresh = build_engine(clone.graph.copy())
        assert [row[:3] for row in clone.serving_profile(queries)] == [
            row[:3] for row in fresh.serving_profile(queries)
        ]

    def test_copy_of_a_snapshot_engine_keeps_serving(self, tmp_path):
        engine = build_engine(build_graph())
        queries = sorted(str(q) for q in engine.graph.queries())
        engine.save(tmp_path / "snap")
        loaded = RewriteEngine.load(tmp_path / "snap")
        clone = loaded.copy()
        assert clone.graph is None
        assert clone.serving_profile(queries) == engine.serving_profile(queries)
