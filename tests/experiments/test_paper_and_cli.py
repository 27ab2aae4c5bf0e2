"""Tests for the per-table/figure drivers and the CLI."""

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.paper import (
    PaperExperiments,
    figure8_query_coverage,
    figure9_precision_recall,
    figure11_rewriting_depth,
    figure12_desirability,
    table1_common_ads,
    table2_simrank_sample,
    table3_simrank_iterations,
    table4_evidence_iterations,
    table5_dataset_statistics,
    table6_editorial_grades,
)


class TestTables:
    def test_table1_matches_paper(self):
        rows = {row["query"]: row for row in table1_common_ads()}
        assert rows["camera"]["digital camera"] == 2
        assert rows["pc"]["tv"] == 0
        assert rows["flower"]["pc"] == 0
        assert rows["pc"]["pc"] == "-"

    def test_table2_matches_paper(self):
        rows = {row["query"]: row for row in table2_simrank_sample()}
        assert rows["pc"]["camera"] == pytest.approx(0.619, abs=2e-3)
        assert rows["pc"]["tv"] == pytest.approx(0.437, abs=2e-3)
        assert rows["flower"]["camera"] == 0

    def test_table3_matches_paper(self):
        rows = table3_simrank_iterations()
        assert rows[0]['sim("camera", "digital camera")'] == pytest.approx(0.4)
        assert rows[0]['sim("pc", "camera")'] == pytest.approx(0.8)
        assert rows[6]['sim("camera", "digital camera")'] == pytest.approx(0.6655744, abs=1e-6)

    def test_table4_matches_paper(self):
        rows = table4_evidence_iterations()
        assert rows[0]['sim("camera", "digital camera")'] == pytest.approx(0.3)
        assert rows[0]['sim("pc", "camera")'] == pytest.approx(0.4)
        assert rows[6]['sim("camera", "digital camera")'] == pytest.approx(0.4991808, abs=1e-6)

    def test_table6_covers_all_grades(self, tiny_workload):
        rows = table6_editorial_grades(tiny_workload)
        assert [row["Score"] for row in rows] == [1, 2, 3, 4]
        assert all(row["Definition"] for row in rows)


class TestFiguresViaPaperExperiments:
    @pytest.fixture(scope="class")
    def experiments(self):
        runner = PaperExperiments(workload_size="tiny", desirability_cases=6)
        # Keep the cached harness run small.
        runner._result = None
        return runner

    def test_table5_and_figures(self, experiments):
        result = experiments.harness_result()
        rows = table5_dataset_statistics(result)
        assert rows[-1]["subgraph"] == "Total"
        coverage = figure8_query_coverage(result)
        assert coverage["simrank"] > coverage["pearson"]
        figure9 = figure9_precision_recall(result)
        assert set(figure9) == {"precision_recall", "precision_at_x"}
        assert len(figure9["precision_recall"]["weighted_simrank"]) == 11
        depth = figure11_rewriting_depth(result)
        assert "5" in depth["simrank"]
        desirability = figure12_desirability(result)
        assert set(desirability) == {"simrank", "evidence_simrank", "weighted_simrank"}

    def test_render_each_experiment(self, experiments):
        for name in experiments.all_experiments():
            text = experiments.render(name)
            assert isinstance(text, str) and text

    def test_render_unknown_experiment(self, experiments):
        with pytest.raises(ValueError):
            experiments.render("table99")


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiment == "all"
        assert args.size == "small"

    def test_main_runs_single_table(self, capsys):
        exit_code = main(["--experiment", "table3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table 3" in output
        assert "0.8" in output

    def test_main_runs_figure_on_tiny_workload(self, capsys):
        exit_code = main(
            ["--experiment", "figure8", "--size", "tiny", "--desirability-cases", "0"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "coverage" in output.lower()

    def test_save_engine_then_load_engine_round_trip(self, capsys, tmp_path):
        """--save-engine persists fitted engines; --load-engine serves from them."""
        from repro.api.snapshot import EngineSnapshotStore

        snapshot_dir = str(tmp_path / "engines")
        base = ["--experiment", "figure8", "--size", "tiny", "--desirability-cases", "0"]
        assert main(base + ["--save-engine", snapshot_dir]) == 0
        saved_output = capsys.readouterr().out
        store = EngineSnapshotStore(snapshot_dir)
        assert store.list_snapshots() == [
            "evidence_simrank-sharded",
            "pearson-sharded",
            "simrank-sharded",
            "weighted_simrank-sharded",
        ]
        assert main(base + ["--load-engine", snapshot_dir]) == 0
        assert capsys.readouterr().out == saved_output
