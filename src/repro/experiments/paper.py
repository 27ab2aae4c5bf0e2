"""Regenerate every table and figure of the paper's evaluation.

Tables 1-4 and 6 are exact computations on the paper's small illustrative
graphs; Table 5 and Figures 8-12 run the full harness on a synthetic
Yahoo!-like workload (absolute numbers therefore differ from the paper, but
the shapes -- which method wins, and by roughly how much -- should match).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.baselines import common_ad_count
from repro.core.config import SimrankConfig
from repro.core.evidence_simrank import EvidenceSimrank
from repro.core.simrank import BipartiteSimrank
from repro.eval.editorial import GRADE_DESCRIPTIONS, EditorialJudge
from repro.eval.harness import EvaluationResult, ExperimentHarness
from repro.eval.metrics import STANDARD_RECALL_LEVELS
from repro.eval.reporting import format_series, format_table
from repro.graph.statistics import dataset_statistics
from repro.synth.generator import SyntheticWorkload
from repro.synth.scenarios import FIGURE3_QUERIES, figure3_graph, figure4_graphs
from repro.synth.yahoo_like import yahoo_like_workload

__all__ = [
    "table1_common_ads",
    "table2_simrank_sample",
    "table3_simrank_iterations",
    "table4_evidence_iterations",
    "table5_dataset_statistics",
    "table6_editorial_grades",
    "figure8_query_coverage",
    "figure9_precision_recall",
    "figure10_precision_recall_strict",
    "figure11_rewriting_depth",
    "figure12_desirability",
    "PaperExperiments",
]


# --------------------------------------------------------------------- tables


def table1_common_ads() -> List[Dict[str, object]]:
    """Table 1: common-ad counts between the Figure 3 queries."""
    graph = figure3_graph()
    rows = []
    for first in FIGURE3_QUERIES:
        row: Dict[str, object] = {"query": first}
        for second in FIGURE3_QUERIES:
            row[second] = "-" if first == second else common_ad_count(graph, first, second)
        rows.append(row)
    return rows


def table2_simrank_sample(
    iterations: int = 20, c1: float = 0.8, c2: float = 0.8
) -> List[Dict[str, object]]:
    """Table 2: SimRank scores (C1 = C2 = 0.8) on the Figure 3 graph."""
    graph = figure3_graph()
    config = SimrankConfig(c1=c1, c2=c2, iterations=iterations)
    simrank = BipartiteSimrank(config=config).fit(graph)
    rows = []
    for first in FIGURE3_QUERIES:
        row: Dict[str, object] = {"query": first}
        for second in FIGURE3_QUERIES:
            row[second] = (
                "-" if first == second else round(simrank.query_similarity(first, second), 3)
            )
        rows.append(row)
    return rows


def table3_simrank_iterations(iterations: int = 7) -> List[Dict[str, object]]:
    """Table 3: per-iteration SimRank scores on the Figure 4 graphs.

    ``sim("camera", "digital camera")`` lives in the K2,2 graph and
    ``sim("pc", "camera")`` in the K1,2 graph.
    """
    k22, k12 = figure4_graphs()
    config = SimrankConfig(iterations=iterations)
    sim_k22 = BipartiteSimrank(config=config, track_history=True).fit(k22)
    sim_k12 = BipartiteSimrank(config=config, track_history=True).fit(k12)
    rows = []
    for index in range(iterations):
        rows.append(
            {
                "Iteration": index + 1,
                'sim("camera", "digital camera")': round(
                    sim_k22.result.query_history[index].score("camera", "digital camera"), 7
                ),
                'sim("pc", "camera")': round(
                    sim_k12.result.query_history[index].score("pc", "camera"), 7
                ),
            }
        )
    return rows


def table4_evidence_iterations(iterations: int = 7) -> List[Dict[str, object]]:
    """Table 4: per-iteration evidence-based SimRank scores on the Figure 4 graphs."""
    k22, k12 = figure4_graphs()
    config = SimrankConfig(iterations=iterations)
    sim_k22 = EvidenceSimrank(config=config, track_history=True).fit(k22)
    sim_k12 = EvidenceSimrank(config=config, track_history=True).fit(k12)
    rows = []
    for index in range(iterations):
        rows.append(
            {
                "Iteration": index + 1,
                'sim("camera", "digital camera")': round(
                    sim_k22.query_history[index].score("camera", "digital camera"), 7
                ),
                'sim("pc", "camera")': round(
                    sim_k12.query_history[index].score("pc", "camera"), 7
                ),
            }
        )
    return rows


def table5_dataset_statistics(result: EvaluationResult) -> List[Dict[str, object]]:
    """Table 5: per-subgraph query/ad/edge counts of the extracted dataset."""
    rows: List[Dict[str, object]] = []
    totals = {"# of Queries": 0, "# of Ads": 0, "# of Edges": 0}
    for index, subgraph in enumerate(result.subgraphs, start=1):
        stats = dataset_statistics(subgraph)
        row = {"subgraph": f"subgraph {index}"}
        row.update(stats.as_row())
        for key in totals:
            totals[key] += row[key]
        rows.append(row)
    rows.append({"subgraph": "Total", **totals})
    return rows


def table6_editorial_grades(workload: Optional[SyntheticWorkload] = None) -> List[Dict[str, object]]:
    """Table 6: the editorial scoring system, demonstrated on example pairs."""
    workload = workload or yahoo_like_workload("tiny")
    judge = EditorialJudge(workload)
    examples = _grade_examples(workload, judge)
    rows = []
    for score in (1, 2, 3, 4):
        example = examples.get(score, ("-", "-"))
        rows.append(
            {
                "Score": score,
                "Definition": GRADE_DESCRIPTIONS[score],
                "Example (query - re-write)": f"{example[0]} - {example[1]}",
            }
        )
    return rows


def _grade_examples(workload: SyntheticWorkload, judge: EditorialJudge) -> Dict[int, tuple]:
    """Find one example query-rewrite pair per grade from the workload."""
    examples: Dict[int, tuple] = {}
    queries = sorted(workload.query_topics)
    for first in queries:
        for second in queries:
            if first == second:
                continue
            grade = judge.grade(first, second)
            if grade not in examples:
                examples[grade] = (first, second)
            if len(examples) == 4:
                return examples
    return examples


# -------------------------------------------------------------------- figures


def figure8_query_coverage(result: EvaluationResult) -> Dict[str, float]:
    """Figure 8: query coverage percentage per method."""
    return result.coverage_by_method()


def figure9_precision_recall(result: EvaluationResult) -> Dict[str, Dict[str, List[float]]]:
    """Figure 9: 11-point PR curves and P@1..5 with grades {1,2} as positive."""
    return _precision_figure(result, threshold=2)


def figure10_precision_recall_strict(result: EvaluationResult) -> Dict[str, Dict[str, List[float]]]:
    """Figure 10: same as Figure 9 but only grade 1 counts as relevant."""
    return _precision_figure(result, threshold=1)


def _precision_figure(result: EvaluationResult, threshold: int) -> Dict[str, Dict[str, List[float]]]:
    curves = result.pr_curve_by_method(threshold)
    p_at_x = result.precision_at_x_by_method(threshold)
    return {
        "precision_recall": {name: list(curve.precisions) for name, curve in curves.items()},
        "precision_at_x": {
            name: [values.get(k, 0.0) for k in sorted(values)] for name, values in p_at_x.items()
        },
    }


def figure11_rewriting_depth(result: EvaluationResult) -> Dict[str, Dict[str, float]]:
    """Figure 11: percentage of queries at each rewriting depth per method."""
    return result.depth_by_method()


def figure12_desirability(result: EvaluationResult) -> Dict[str, float]:
    """Figure 12: correct desirability-ordering percentage per method."""
    return result.desirability_by_method()


# ----------------------------------------------------------------- aggregator


@dataclass
class PaperExperiments:
    """Runs everything once and renders each table/figure on demand."""

    workload_size: str = "small"
    config: Optional[SimrankConfig] = None
    desirability_cases: int = 50
    seed: int = 29
    backend: str = "sharded"
    #: Parallel-fitting knobs of the sharded backend: worker count
    #: (-1 = all available CPUs) and pool flavour (thread/process/auto).
    n_jobs: int = 1
    executor: str = "auto"
    #: Engine-snapshot directories (offline -> online split): fitted engines
    #: are saved under ``save_engines_to`` and revived from
    #: ``load_engines_from`` instead of refitting; see ExperimentHarness.
    save_engines_to: Optional[str] = None
    load_engines_from: Optional[str] = None
    _result: Optional[EvaluationResult] = None

    def harness_result(self) -> EvaluationResult:
        """The (cached) harness run behind Table 5 and Figures 8-12."""
        if self._result is None:
            harness = ExperimentHarness(
                workload_size=self.workload_size,
                config=self.config,
                desirability_cases=self.desirability_cases,
                seed=self.seed,
                backend=self.backend,
                n_jobs=self.n_jobs,
                executor=self.executor,
                save_engines_to=self.save_engines_to,
                load_engines_from=self.load_engines_from,
            )
            self._result = harness.run()
        return self._result

    # --------------------------------------------------------- text rendering

    def render(self, experiment: str) -> str:
        """Render one experiment ("table1" ... "figure12") as text."""
        renderers = {
            "table1": lambda: format_table(table1_common_ads(), title="Table 1: common-ad similarity"),
            "table2": lambda: format_table(table2_simrank_sample(), title="Table 2: SimRank (C=0.8)"),
            "table3": lambda: format_table(table3_simrank_iterations(), title="Table 3: SimRank iterations"),
            "table4": lambda: format_table(
                table4_evidence_iterations(), title="Table 4: evidence-based SimRank iterations"
            ),
            "table5": lambda: format_table(
                table5_dataset_statistics(self.harness_result()), title="Table 5: dataset statistics"
            ),
            "table6": lambda: format_table(table6_editorial_grades(), title="Table 6: editorial scoring"),
            "figure8": lambda: format_table(
                [
                    {"method": name, "coverage (%)": value}
                    for name, value in figure8_query_coverage(self.harness_result()).items()
                ],
                title="Figure 8: query coverage",
            ),
            "figure9": lambda: self._render_precision_figure(2, "Figure 9"),
            "figure10": lambda: self._render_precision_figure(1, "Figure 10"),
            "figure11": lambda: format_table(
                [
                    {"method": name, **depths}
                    for name, depths in figure11_rewriting_depth(self.harness_result()).items()
                ],
                title="Figure 11: rewriting depth (% of queries)",
            ),
            "figure12": lambda: format_table(
                [
                    {"method": name, "correct ordering (%)": value}
                    for name, value in figure12_desirability(self.harness_result()).items()
                ],
                title="Figure 12: desirability prediction",
            ),
        }
        if experiment not in renderers:
            raise ValueError(f"unknown experiment {experiment!r}; choose from {sorted(renderers)}")
        return renderers[experiment]()

    def _render_precision_figure(self, threshold: int, title: str) -> str:
        data = _precision_figure(self.harness_result(), threshold)
        pr_text = format_series(
            data["precision_recall"],
            x_labels=[f"{level:.1f}" for level in STANDARD_RECALL_LEVELS],
            title=f"{title}: interpolated precision at 11 recall levels (threshold {threshold})",
            x_name="recall",
        )
        p_at_x_text = format_series(
            data["precision_at_x"],
            x_labels=[1, 2, 3, 4, 5],
            title=f"{title}: precision after X rewrites (threshold {threshold})",
            x_name="X",
        )
        return pr_text + "\n\n" + p_at_x_text

    def all_experiments(self) -> List[str]:
        return [
            "table1", "table2", "table3", "table4", "table5", "table6",
            "figure8", "figure9", "figure10", "figure11", "figure12",
        ]

    def render_all(self) -> str:
        return "\n\n".join(self.render(name) for name in self.all_experiments())
