"""Unit tests of the component-sharded SimRank backend."""

import pytest

from repro.core.config import SimrankConfig
from repro.core.scores_array import ArraySimilarityScores
from repro.core.simrank_matrix import MatrixSimrank
from repro.core.simrank_sharded import ShardedSimrank
from repro.graph.click_graph import ClickGraph
from repro.synth.scenarios import multi_component_graph


@pytest.fixture
def four_component_graph() -> ClickGraph:
    return multi_component_graph(num_components=4, seed=17)


class TestSharding:
    def test_one_shard_per_edge_carrying_component(self, four_component_graph):
        method = ShardedSimrank(SimrankConfig(iterations=5)).fit(four_component_graph)
        assert method.num_shards == 4

    def test_shards_sorted_largest_first(self, four_component_graph):
        method = ShardedSimrank(SimrankConfig(iterations=5)).fit(four_component_graph)
        sizes = method.shard_sizes()
        assert sizes == sorted(sizes, reverse=True)

    def test_isolated_nodes_form_no_shards(self):
        graph = multi_component_graph(num_components=2, with_isolates=True, seed=7)
        method = ShardedSimrank(SimrankConfig(iterations=5)).fit(graph)
        assert method.num_shards == 2
        assert method.shard_of("c0_isolated_query") is None
        assert method.query_similarity("c0_isolated_query", "c0_isolated_query") == 1.0
        assert method.query_similarity("c0_isolated_query", "c0_q0") == 0.0

    def test_shard_of_maps_queries_to_their_component(self, four_component_graph):
        method = ShardedSimrank(SimrankConfig(iterations=5)).fit(four_component_graph)
        for k in range(4):
            shard_ids = {method.shard_of(f"c{k}_q{i}") for i in range(4)}
            assert len(shard_ids) == 1
        all_ids = {method.shard_of(f"c{k}_q0") for k in range(4)}
        assert len(all_ids) == 4

    def test_empty_graph(self):
        method = ShardedSimrank(SimrankConfig(iterations=5)).fit(ClickGraph())
        assert method.num_shards == 0
        assert len(method.similarities()) == 0


class TestIterationsRun:
    """``iterations_run`` is the most iterations any shard's fit ran."""

    CONVERGING = SimrankConfig(iterations=200, tolerance=1e-9)

    def test_cold_fit_reports_the_slowest_shard(self, four_component_graph):
        method = ShardedSimrank(self.CONVERGING).fit(four_component_graph)
        counts = [shard.iterations_run for shard in method._shard_methods]
        assert method.iterations_run == max(counts)
        assert 0 < method.iterations_run < 200

    def test_reused_shards_keep_their_own_count(self, four_component_graph):
        method = ShardedSimrank(self.CONVERGING).fit(four_component_graph)
        cold_counts = [shard.iterations_run for shard in method._shard_methods]
        changed = four_component_graph.copy()
        stats = changed.edge("c0_q0", "c0_a0")
        changed.add_edge(
            "c0_q0", "c0_a0", impressions=stats.impressions + 5, clicks=stats.clicks
        )
        method.fit(changed, initial_scores=method.similarities())
        assert method.reused_shards == 3
        counts = [shard.iterations_run for shard in method._shard_methods]
        assert method.iterations_run == max(counts)
        refit = method.shard_of("c0_q0")
        assert [c for i, c in enumerate(counts) if i != refit] == [
            c for i, c in enumerate(cold_counts) if i != refit
        ]

    def test_restore_clears_the_count(self, four_component_graph):
        method = ShardedSimrank(self.CONVERGING).fit(four_component_graph)
        restored = ShardedSimrank(self.CONVERGING).restore(method.similarities())
        assert restored.iterations_run is None

    def test_empty_graph_runs_no_iterations(self):
        method = ShardedSimrank(self.CONVERGING).fit(ClickGraph())
        assert method.iterations_run == 0

    def test_tolerance_exits_early_and_stays_close(self, four_component_graph):
        full = ShardedSimrank(SimrankConfig(c1=0.6, c2=0.6, iterations=30)).fit(
            four_component_graph
        )
        early = ShardedSimrank(
            SimrankConfig(c1=0.6, c2=0.6, iterations=30, tolerance=1e-3)
        ).fit(four_component_graph)
        assert full.iterations_run == 30
        assert early.iterations_run < 30
        assert full.similarities().max_difference(early.similarities()) < 1e-2


class TestScores:
    @pytest.mark.parametrize("mode", ["simrank", "evidence", "weighted"])
    @pytest.mark.parametrize("floor", [0.0, 0.1])
    def test_matches_dense_engine(self, four_component_graph, mode, floor):
        config = SimrankConfig(iterations=7, zero_evidence_floor=floor)
        dense = MatrixSimrank(config, mode=mode).fit(four_component_graph)
        sharded = ShardedSimrank(config, mode=mode).fit(four_component_graph)
        assert dense.similarities().max_difference(sharded.similarities()) < 1e-12

    def test_serving_top_matches_dense_engine(self, four_component_graph):
        config = SimrankConfig(iterations=7)
        dense = MatrixSimrank(config, mode="weighted").fit(four_component_graph)
        sharded = ShardedSimrank(config, mode="weighted").fit(four_component_graph)
        for query in sorted(four_component_graph.queries(), key=repr):
            dense_top = dense.top_rewrites(query, k=5)
            sharded_top = sharded.top_rewrites(query, k=5)
            assert [node for node, _ in sharded_top] == [node for node, _ in dense_top]
            for (_, expected), (_, actual) in zip(dense_top, sharded_top):
                assert actual == pytest.approx(expected, abs=1e-12)

    def test_returns_one_array_backed_store(self, four_component_graph):
        method = ShardedSimrank(SimrankConfig(iterations=5)).fit(four_component_graph)
        scores = method.similarities()
        assert isinstance(scores, ArraySimilarityScores)
        # One dense block per component, adopted from the shard fits.
        assert len(scores.blocks) == method.num_shards
        for (matrix, nodes), shard in zip(scores.blocks, method.shard_graphs()):
            assert matrix.shape == (len(nodes), len(nodes))
            assert set(nodes) <= set(shard.queries())
        assert scores.index == [node for _, nodes in scores.blocks for node in nodes]

    def test_cross_component_pairs_score_zero(self, four_component_graph):
        method = ShardedSimrank(SimrankConfig(iterations=5)).fit(four_component_graph)
        assert method.query_similarity("c0_q0", "c1_q0") == 0.0
        assert method.ad_similarity("c0_a0", "c1_a0") == 0.0

    def test_ad_similarity_within_component(self, four_component_graph):
        config = SimrankConfig(iterations=7)
        dense = MatrixSimrank(config).fit(four_component_graph)
        sharded = ShardedSimrank(config).fit(four_component_graph)
        assert sharded.ad_similarity("c0_a0", "c0_a1") == pytest.approx(
            dense.ad_similarity("c0_a0", "c0_a1"), abs=1e-12
        )
        assert sharded.ad_similarity("c0_a0", "c0_a0") == 1.0
        assert sharded.ad_similarity("c0_a0", "unknown") == 0.0


class TestWorkerPool:
    @pytest.mark.parametrize("n_jobs", [2, -1])
    def test_parallel_fit_matches_serial(self, four_component_graph, n_jobs):
        config = SimrankConfig(iterations=5)
        serial = ShardedSimrank(config, mode="weighted", n_jobs=1).fit(
            four_component_graph
        )
        parallel = ShardedSimrank(config, mode="weighted", n_jobs=n_jobs).fit(
            four_component_graph
        )
        assert serial.similarities().max_difference(parallel.similarities()) == 0.0

    @pytest.mark.parametrize("n_jobs", [0, -2])
    def test_invalid_n_jobs_rejected(self, n_jobs):
        with pytest.raises(ValueError):
            ShardedSimrank(n_jobs=n_jobs)


class TestValidation:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ShardedSimrank(mode="bogus")

    def test_reported_name_follows_mode(self):
        assert ShardedSimrank(mode="simrank").name == "simrank"
        assert ShardedSimrank(mode="evidence").name == "evidence_simrank"
        assert ShardedSimrank(mode="weighted").name == "weighted_simrank"

    def test_requires_fit_before_access(self):
        method = ShardedSimrank()
        with pytest.raises(RuntimeError):
            method.similarities()
        with pytest.raises(RuntimeError):
            method.num_shards


class TestAffinityAwareSizing:
    def test_n_jobs_minus_one_respects_cpu_affinity(self, monkeypatch):
        """Regression: -1 used os.cpu_count() and oversubscribed containers."""
        from repro.core import parallel

        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
        method = ShardedSimrank(SimrankConfig(iterations=5), n_jobs=-1)
        assert method._resolve_jobs(num_shards=8) == 2

    def test_explicit_n_jobs_is_capped_by_shard_count(self):
        method = ShardedSimrank(SimrankConfig(iterations=5), n_jobs=16)
        assert method._resolve_jobs(num_shards=3) == 3


class _FailingFitInjector:
    """Wraps ``_build_inner`` so chosen shards raise mid-fit; counts starts."""

    def __init__(self, fail_on: int, delay: float = 0.0):
        self.fail_on = fail_on
        self.delay = delay
        self.builds = 0
        self.fit_starts = []

    def install(self, monkeypatch):
        injector = self
        original = ShardedSimrank._build_inner

        def build(method_self, subgraph):
            inner = original(method_self, subgraph)
            build_id = injector.builds
            injector.builds += 1
            inner_fit = inner.fit

            def wrapped_fit(graph, initial_scores=None):
                injector.fit_starts.append(build_id)
                if build_id == injector.fail_on:
                    raise RuntimeError("injected shard failure")
                if injector.delay:
                    import time

                    time.sleep(injector.delay)
                return inner_fit(graph, initial_scores=initial_scores)

            inner.fit = wrapped_fit
            return inner

        monkeypatch.setattr(ShardedSimrank, "_build_inner", build)


class TestFailedShardCleanup:
    """Regression: a failing shard fit must not leave the method half-fitted."""

    def test_first_fit_failure_leaves_method_cleanly_unfitted(
        self, four_component_graph, monkeypatch
    ):
        _FailingFitInjector(fail_on=0).install(monkeypatch)
        method = ShardedSimrank(SimrankConfig(iterations=5), n_jobs=2, executor="thread")
        with pytest.raises(RuntimeError, match="injected shard failure"):
            method.fit(four_component_graph)
        assert not method.is_fitted
        assert method.reused_shards is None
        assert method.refitted_shards is None
        assert method._shard_graphs == []
        assert method._shard_methods == []
        with pytest.raises(RuntimeError):
            method.similarities()
        with pytest.raises(RuntimeError):
            method.num_shards

    def test_failed_refit_keeps_serving_the_previous_fit(
        self, four_component_graph, monkeypatch
    ):
        config = SimrankConfig(iterations=5)
        method = ShardedSimrank(config, n_jobs=2, executor="thread").fit(
            four_component_graph
        )
        before = method.similarities()
        num_shards_before = method.num_shards
        _FailingFitInjector(fail_on=0).install(monkeypatch)
        with pytest.raises(RuntimeError, match="injected shard failure"):
            method.fit(multi_component_graph(num_components=4, seed=99))
        assert method.is_fitted
        assert method.num_shards == num_shards_before
        assert method.similarities().max_difference(before) == 0.0

    def test_serial_path_cleans_up_too(self, four_component_graph, monkeypatch):
        _FailingFitInjector(fail_on=1).install(monkeypatch)
        method = ShardedSimrank(SimrankConfig(iterations=5), n_jobs=1)
        with pytest.raises(RuntimeError, match="injected shard failure"):
            method.fit(four_component_graph)
        assert not method.is_fitted

    def test_failure_cancels_outstanding_shard_fits(self, monkeypatch):
        """Queued sibling fits are cancelled once one shard fails."""
        graph = multi_component_graph(num_components=8, seed=23)
        injector = _FailingFitInjector(fail_on=0, delay=0.2)
        injector.install(monkeypatch)
        method = ShardedSimrank(SimrankConfig(iterations=5), n_jobs=2, executor="thread")
        with pytest.raises(RuntimeError, match="injected shard failure"):
            method.fit(graph)
        # The failing shard fails instantly; with 2 workers at most a couple
        # of siblings can have started before the cancellation lands.
        assert len(injector.fit_starts) < 8


def _exploding_batch(batch):
    raise RuntimeError("injected worker failure")


class TestProcessExecutor:
    @pytest.mark.timeout(120)
    def test_process_fit_matches_serial(self, four_component_graph):
        config = SimrankConfig(iterations=5)
        serial = ShardedSimrank(config, mode="weighted", n_jobs=1).fit(
            four_component_graph
        )
        process = ShardedSimrank(
            config, mode="weighted", n_jobs=2, executor="process"
        ).fit(four_component_graph)
        assert serial.similarities().max_difference(process.similarities()) == 0.0
        assert process.ad_similarity("c0_a0", "c0_a1") == pytest.approx(
            serial.ad_similarity("c0_a0", "c0_a1"), abs=1e-12
        )

    @pytest.mark.timeout(120)
    def test_process_worker_error_propagates_and_cleans_up(self, monkeypatch):
        graph = multi_component_graph(num_components=3, seed=31)
        # Sabotage the worker function: every batch raises in the child.  The
        # replacement must be module-level (picklable by reference) -- a
        # test-local closure cannot cross the process boundary.
        import repro.core.simrank_sharded as sharded_module

        monkeypatch.setattr(sharded_module, "_fit_shard_batch", _exploding_batch)
        method = ShardedSimrank(SimrankConfig(iterations=5), n_jobs=2, executor="process")
        with pytest.raises(RuntimeError, match="injected worker failure"):
            method.fit(graph)
        assert not method.is_fitted

    def test_auto_executor_picks_threads_for_tiny_shards(self, four_component_graph):
        method = ShardedSimrank(SimrankConfig(iterations=5), n_jobs=2)
        assert method.executor == "auto"
        subgraphs = ShardedSimrank(SimrankConfig(iterations=5)).fit(
            four_component_graph
        ).shard_graphs()
        assert method._resolve_executor(subgraphs, workers=2) == "thread"

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_explicit_executor_is_honoured(self, four_component_graph, executor):
        method = ShardedSimrank(SimrankConfig(iterations=5), n_jobs=2, executor=executor)
        subgraphs = ShardedSimrank(SimrankConfig(iterations=5)).fit(
            four_component_graph
        ).shard_graphs()
        assert method._resolve_executor(subgraphs, workers=2) == executor

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            ShardedSimrank(executor="fibers")
