"""Integration tests for the end-to-end evaluation harness."""

import pytest

from repro.api.snapshot import SCORES_FILENAME
from repro.core.config import SimrankConfig
from repro.eval.harness import RELEVANCE_THRESHOLDS, ExperimentHarness


@pytest.fixture(scope="module")
def harness_result(request):
    """One shared harness run on the tiny workload (kept small for speed)."""
    from repro.synth.yahoo_like import yahoo_like_workload

    harness = ExperimentHarness(
        workload=yahoo_like_workload("tiny"),
        desirability_cases=8,
        max_evaluation_queries=30,
        traffic_sample_size=400,
    )
    return harness.run()


class TestHarnessRun:
    def test_all_paper_methods_evaluated(self, harness_result):
        assert set(harness_result.methods) == {
            "pearson",
            "simrank",
            "evidence_simrank",
            "weighted_simrank",
        }

    def test_subgraphs_are_nonempty_and_disjoint(self, harness_result):
        seen = set()
        for subgraph in harness_result.subgraphs:
            queries = set(subgraph.queries())
            assert subgraph.num_edges > 0
            assert not queries & seen
            seen |= queries

    def test_evaluation_queries_come_from_the_dataset(self, harness_result):
        assert harness_result.evaluation_queries
        for query in harness_result.evaluation_queries:
            assert harness_result.dataset.has_query(query)

    def test_dataset_statistics_rows(self, harness_result):
        stats = harness_result.dataset_statistics()
        assert len(stats) == len(harness_result.subgraphs)
        assert all(row.num_edges > 0 for row in stats)

    def test_coverage_shape_matches_paper(self, harness_result):
        """Figure 8 shape: Pearson covers far fewer queries than the SimRank family."""
        coverage = harness_result.coverage_by_method()
        assert coverage["pearson"] < coverage["simrank"]
        assert coverage["simrank"] >= 90.0
        assert coverage["evidence_simrank"] >= 90.0
        assert coverage["weighted_simrank"] >= 90.0

    def test_depth_shape_matches_paper(self, harness_result):
        """Figure 11 shape: the SimRank variants reach full depth far more often than Pearson."""
        depth = harness_result.depth_by_method()
        assert depth["weighted_simrank"]["5"] > depth["pearson"]["5"]
        assert depth["simrank"]["1-5"] > depth["pearson"]["1-5"]

    def test_precision_metrics_are_populated(self, harness_result):
        for evaluation in harness_result.methods.values():
            for threshold in RELEVANCE_THRESHOLDS:
                assert set(evaluation.precision_at_x[threshold]) == {1, 2, 3, 4, 5}
                for value in evaluation.precision_at_x[threshold].values():
                    assert 0.0 <= value <= 1.0
                curve = evaluation.pr_curves[threshold]
                assert len(curve.precisions) == 11
        # Strict relevance (grade 1 only) can never have higher precision than
        # the relaxed threshold for the same method.
        for evaluation in harness_result.methods.values():
            assert evaluation.precision_at_x[1][5] <= evaluation.precision_at_x[2][5] + 1e-9

    def test_grades_are_valid(self, harness_result):
        for evaluation in harness_result.methods.values():
            for grade in evaluation.grades.values():
                assert 1 <= grade <= 4
            assert 0.0 <= evaluation.mean_grade() <= 4.0

    def test_desirability_results(self, harness_result):
        assert set(harness_result.desirability) == {
            "simrank",
            "evidence_simrank",
            "weighted_simrank",
        }
        for result in harness_result.desirability.values():
            assert result.total > 0
            assert 0.0 <= result.percentage <= 100.0

    def test_accessors_are_consistent(self, harness_result):
        assert harness_result.coverage_by_method().keys() == harness_result.methods.keys()
        assert set(harness_result.desirability_by_method()) == set(harness_result.desirability)
        curves = harness_result.pr_curve_by_method(2)
        assert set(curves) == set(harness_result.methods)


class TestHarnessOptions:
    def test_component_based_subgraphs(self, tiny_workload):
        harness = ExperimentHarness(
            workload=tiny_workload,
            use_partitioning=False,
            desirability_cases=0,
            max_evaluation_queries=10,
            traffic_sample_size=100,
        )
        result = harness.run()
        assert result.subgraphs
        assert result.desirability == {}

    def test_method_subset_and_custom_config(self, tiny_workload):
        harness = ExperimentHarness(
            workload=tiny_workload,
            methods=["simrank", "weighted_simrank"],
            config=SimrankConfig(iterations=3, zero_evidence_floor=0.05),
            desirability_cases=0,
            max_evaluation_queries=10,
            traffic_sample_size=100,
        )
        result = harness.run()
        assert set(result.methods) == {"simrank", "weighted_simrank"}

    def test_engine_snapshots_round_trip_through_the_pipeline(
        self, tiny_workload, tmp_path
    ):
        """save_engines_to then load_engines_from reproduces the same rewrites."""
        kwargs = dict(
            workload=tiny_workload,
            methods=["simrank", "weighted_simrank"],
            config=SimrankConfig(iterations=3, zero_evidence_floor=0.05),
            desirability_cases=0,
            max_evaluation_queries=10,
            traffic_sample_size=100,
        )
        snapshot_dir = tmp_path / "engines"
        saved = ExperimentHarness(save_engines_to=snapshot_dir, **kwargs).run()
        from repro.api.snapshot import EngineSnapshotStore

        store = EngineSnapshotStore(snapshot_dir)
        assert store.list_snapshots() == ["simrank-sharded", "weighted_simrank-sharded"]

        loaded = ExperimentHarness(load_engines_from=snapshot_dir, **kwargs).run()
        for method_name in kwargs["methods"]:
            saved_lists = saved.methods[method_name].rewrite_lists
            loaded_lists = loaded.methods[method_name].rewrite_lists
            assert set(saved_lists) == set(loaded_lists)
            for query, rewrite_list in saved_lists.items():
                assert rewrite_list.as_tuples() == loaded_lists[query].as_tuples()

    def test_mismatched_snapshots_are_ignored_not_served(self, tiny_workload, tmp_path):
        """A snapshot saved under different similarity knobs must not be revived."""
        snapshot_dir = tmp_path / "engines"
        kwargs = dict(
            workload=tiny_workload,
            methods=["weighted_simrank"],
            desirability_cases=0,
            max_evaluation_queries=10,
            traffic_sample_size=100,
        )
        ExperimentHarness(
            config=SimrankConfig(iterations=3, zero_evidence_floor=0.05),
            save_engines_to=snapshot_dir,
            **kwargs,
        ).run()
        changed = ExperimentHarness(
            config=SimrankConfig(iterations=5, zero_evidence_floor=0.05),
            load_engines_from=snapshot_dir,
            **kwargs,
        )
        engine = changed._fitted_engine(
            "weighted_simrank", changed._combine(changed.build_subgraphs())
        )
        # The stale 3-iteration snapshot was skipped: the engine really ran
        # the requested 5 iterations (a revived engine would report 3).
        assert engine.config.similarity.iterations == 5
        assert engine.method.iterations_run == 5
        assert engine.graph is not None  # fitted fresh, not snapshot-revived

    def test_snapshots_for_a_different_dataset_are_ignored(
        self, tiny_workload, tmp_path
    ):
        """Changed dataset-shaping knobs must not revive a stale engine."""
        snapshot_dir = tmp_path / "engines"
        kwargs = dict(
            workload=tiny_workload,
            methods=["weighted_simrank"],
            config=SimrankConfig(iterations=3, zero_evidence_floor=0.05),
            desirability_cases=0,
            max_evaluation_queries=10,
            traffic_sample_size=100,
        )
        ExperimentHarness(
            use_partitioning=True, save_engines_to=snapshot_dir, **kwargs
        ).run()
        reshaped = ExperimentHarness(
            use_partitioning=False, load_engines_from=snapshot_dir, **kwargs
        )
        dataset = reshaped._combine(reshaped.build_subgraphs())
        engine = reshaped._fitted_engine("weighted_simrank", dataset)
        assert engine.graph is dataset  # fitted fresh on the unpartitioned dataset

    def test_damaged_snapshots_fall_back_to_fitting(self, tiny_workload, tmp_path):
        """A matching-but-corrupt snapshot must not abort the run."""
        snapshot_dir = tmp_path / "engines"
        kwargs = dict(
            workload=tiny_workload,
            methods=["weighted_simrank"],
            config=SimrankConfig(iterations=3, zero_evidence_floor=0.05),
            desirability_cases=0,
            max_evaluation_queries=10,
            traffic_sample_size=100,
        )
        ExperimentHarness(save_engines_to=snapshot_dir, **kwargs).run()
        # Damage the score matrix but keep the (matching) manifest intact.
        (snapshot_dir / "weighted_simrank-sharded" / SCORES_FILENAME).write_bytes(
            b"damaged"
        )
        harness = ExperimentHarness(load_engines_from=snapshot_dir, **kwargs)
        engine = harness._fitted_engine(
            "weighted_simrank", harness._combine(harness.build_subgraphs())
        )
        assert engine.graph is not None  # fitted fresh instead of crashing

    def test_sharded_backend_matches_the_reference_pipeline(self, tiny_workload):
        """The default sharded backend matches the reference oracle's coverage."""
        kwargs = dict(
            workload=tiny_workload,
            methods=["weighted_simrank"],
            config=SimrankConfig(iterations=3, zero_evidence_floor=0.05),
            desirability_cases=2,
            max_evaluation_queries=10,
            traffic_sample_size=100,
        )
        sharded = ExperimentHarness(backend="sharded", **kwargs).run()
        reference = ExperimentHarness(backend="reference", **kwargs).run()
        assert sharded.coverage_by_method() == reference.coverage_by_method()
        assert set(sharded.desirability) == {"weighted_simrank"}
