"""End-to-end evaluation harness (paper Sections 9.2-9.4).

:class:`ExperimentHarness` reproduces the paper's experimental pipeline on a
synthetic workload:

1. take the workload's click graph, keep the largest connected component and
   decompose it into a handful of subgraphs with the ACL local partitioner
   (Table 5 dataset);
2. sample the evaluation queries from the simulated traffic stream and keep
   those present in the dataset (the 1200 -> 120 reduction of Section 9.2);
3. fit every similarity method on the dataset, generate up to five filtered
   rewrites per evaluation query (stemming dedup + bid-term filter);
4. grade each query-rewrite pair with the simulated editorial judge and
   compute query coverage (Figure 8), 11-point precision/recall and P@X for
   both relevance thresholds (Figures 9/10) and the rewriting-depth
   distribution (Figure 11);
5. run the desirability edge-removal experiment (Figure 12).

Every step resolves similarity methods through the registry, so the
``backend`` knob accepts either SimRank backend (``sharded``, the default, or
the ``reference`` oracle); ``n_jobs`` / ``executor`` control the parallel
fitting tier of the sharded backend.  The SimRank parameters default to
:data:`~repro.core.config.PAPER_CONFIG`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.registry import PAPER_METHODS, create
from repro.api.snapshot import EngineSnapshotStore, SnapshotError, graph_fingerprint
from repro.api.sources import resolve_engine_source
from repro.core.config import PAPER_CONFIG, SimrankConfig
from repro.core.rewriter import RewriteList
from repro.eval.coverage import coverage_percentage, depth_distribution
from repro.eval.desirability import DesirabilityResult, run_desirability_experiment
from repro.eval.editorial import EditorialJudge
from repro.eval.metrics import (
    PrecisionRecallCurve,
    interpolated_precision_recall,
    precision_at_k,
)
from repro.graph.click_graph import ClickGraph
from repro.graph.components import connected_components, largest_component
from repro.graph.sampling import intersect_with_graph, sample_queries_by_traffic
from repro.graph.statistics import DatasetStatistics, dataset_statistics
from repro.partition.extraction import extract_subgraphs
from repro.synth.generator import SyntheticWorkload
from repro.synth.yahoo_like import yahoo_like_workload

__all__ = ["MethodEvaluation", "EvaluationResult", "ExperimentHarness"]

Node = Hashable

#: Relevance thresholds used by the paper: grades {1, 2} positive (Figure 9)
#: and grade {1} only positive (Figure 10).
RELEVANCE_THRESHOLDS: Tuple[int, ...] = (2, 1)


@dataclass
class MethodEvaluation:
    """Everything measured for one similarity method."""

    method_name: str
    rewrite_lists: Dict[Node, RewriteList] = field(default_factory=dict)
    grades: Dict[Tuple[Node, Node], int] = field(default_factory=dict)
    coverage: float = 0.0
    depth: Dict[str, float] = field(default_factory=dict)
    #: threshold -> {k: precision at k}, averaged over covered queries.
    precision_at_x: Dict[int, Dict[int, float]] = field(default_factory=dict)
    #: threshold -> 11-point interpolated precision-recall curve.
    pr_curves: Dict[int, PrecisionRecallCurve] = field(default_factory=dict)

    def mean_grade(self) -> float:
        """Average editorial grade of all proposed rewrites (lower is better)."""
        if not self.grades:
            return 0.0
        return sum(self.grades.values()) / len(self.grades)


@dataclass
class EvaluationResult:
    """Output of one full harness run."""

    workload: SyntheticWorkload
    subgraphs: List[ClickGraph]
    dataset: ClickGraph
    evaluation_queries: List[Node]
    methods: Dict[str, MethodEvaluation]
    desirability: Dict[str, DesirabilityResult] = field(default_factory=dict)

    def dataset_statistics(self) -> List[DatasetStatistics]:
        """Per-subgraph statistics (the rows of Table 5)."""
        return [dataset_statistics(subgraph) for subgraph in self.subgraphs]

    def coverage_by_method(self) -> Dict[str, float]:
        """Figure 8 series: coverage percentage per method."""
        return {name: evaluation.coverage for name, evaluation in self.methods.items()}

    def depth_by_method(self) -> Dict[str, Dict[str, float]]:
        """Figure 11 series: depth distribution per method."""
        return {name: evaluation.depth for name, evaluation in self.methods.items()}

    def precision_at_x_by_method(self, threshold: int = 2) -> Dict[str, Dict[int, float]]:
        """Figure 9/10 (bottom) series: P@1..5 per method."""
        return {
            name: evaluation.precision_at_x.get(threshold, {})
            for name, evaluation in self.methods.items()
        }

    def pr_curve_by_method(self, threshold: int = 2) -> Dict[str, PrecisionRecallCurve]:
        """Figure 9/10 (top) series: interpolated PR curve per method."""
        return {
            name: evaluation.pr_curves.get(threshold, PrecisionRecallCurve())
            for name, evaluation in self.methods.items()
        }

    def desirability_by_method(self) -> Dict[str, float]:
        """Figure 12 series: correct-ordering percentage per method."""
        return {name: result.percentage for name, result in self.desirability.items()}


class ExperimentHarness:
    """Runs the paper's evaluation pipeline over a synthetic workload."""

    def __init__(
        self,
        workload: Optional[SyntheticWorkload] = None,
        workload_size: str = "small",
        config: Optional[SimrankConfig] = None,
        methods: Sequence[str] = PAPER_METHODS,
        backend: str = "sharded",
        n_jobs: int = 1,
        executor: str = "auto",
        num_subgraphs: int = 5,
        use_partitioning: bool = True,
        traffic_sample_size: int = 1200,
        max_evaluation_queries: int = 120,
        max_rewrites: int = 5,
        candidate_pool: int = 100,
        desirability_cases: int = 50,
        desirability_radius: int = 6,
        seed: int = 29,
        save_engines_to: Optional[Union[str, Path]] = None,
        load_engines_from: Optional[Union[str, Path]] = None,
        refresh_engines_from: Optional[Union[str, Path]] = None,
    ) -> None:
        self.workload = workload or yahoo_like_workload(workload_size)
        # The paper preset's zero-evidence floor keeps the evidence-carrying
        # variants able to rank pairs with no (remaining) common ad; see
        # SimrankConfig for why it deviates from the strict Equation 7.3.
        self.config = config or PAPER_CONFIG
        self.methods = list(methods)
        self.backend = backend
        self.n_jobs = n_jobs
        self.executor = executor
        self.num_subgraphs = num_subgraphs
        self.use_partitioning = use_partitioning
        self.traffic_sample_size = traffic_sample_size
        self.max_evaluation_queries = max_evaluation_queries
        self.max_rewrites = max_rewrites
        self.candidate_pool = candidate_pool
        self.desirability_cases = desirability_cases
        self.desirability_radius = desirability_radius
        self.seed = seed
        #: Offline -> online split: when ``save_engines_to`` is set every
        #: fitted engine is snapshotted there (named ``<method>-<backend>``),
        #: and when ``load_engines_from`` is set existing snapshots are
        #: served from instead of refitting.  Snapshots are keyed by method
        #: and backend only -- the caller owns invalidation (delete the
        #: directory when the workload, config or seed changes).
        self.save_engines_to = save_engines_to
        self.load_engines_from = load_engines_from
        #: Warm-start fallback: snapshots under this directory whose config
        #: and bid terms match -- but whose *graph* need not -- seed a
        #: warm-started refit on the current dataset instead of a cold fit.
        #: This is the incremental path when the workload moved between
        #: runs; ``load_engines_from`` (exact match, no refit) wins when
        #: both are set and the snapshot still fits.
        self.refresh_engines_from = refresh_engines_from

    # ------------------------------------------------------------------- run

    def run(self, run_desirability: bool = True) -> EvaluationResult:
        """Execute the full pipeline and return all measurements."""
        rng = random.Random(self.seed)
        subgraphs = self.build_subgraphs()
        dataset = self._combine(subgraphs)
        evaluation_queries = self.select_evaluation_queries(dataset, rng)
        judge = EditorialJudge(self.workload)

        rewrites_per_method: Dict[str, Dict[Node, RewriteList]] = {}
        for method_name in self.methods:
            engine = self._fitted_engine(method_name, dataset)
            rewrites_per_method[method_name] = {
                query: rewrite_list
                for query, rewrite_list in zip(
                    evaluation_queries, engine.rewrite_batch(evaluation_queries)
                )
            }

        relevant_pool = self._pooled_relevant(rewrites_per_method, judge)
        evaluations = {
            method_name: self._evaluate_method(
                method_name, rewrites, judge, relevant_pool
            )
            for method_name, rewrites in rewrites_per_method.items()
        }

        desirability: Dict[str, DesirabilityResult] = {}
        if run_desirability and self.desirability_cases > 0:
            desirability = self.run_desirability(dataset, rng)

        return EvaluationResult(
            workload=self.workload,
            subgraphs=subgraphs,
            dataset=dataset,
            evaluation_queries=evaluation_queries,
            methods=evaluations,
            desirability=desirability,
        )

    # ----------------------------------------------------------- preparation

    def build_subgraphs(self) -> List[ClickGraph]:
        """Decompose the workload's click graph into the evaluation dataset."""
        graph = self.workload.click_graph
        if not self.use_partitioning:
            components = connected_components(graph)[: self.num_subgraphs]
            return [graph.subgraph(queries=q, ads=a) for q, a in components]
        giant = largest_component(graph)
        extraction = extract_subgraphs(
            giant,
            num_subgraphs=self.num_subgraphs,
            rng=random.Random(self.seed),
        )
        if not extraction.subgraphs:
            return [giant]
        return extraction.subgraphs

    def select_evaluation_queries(
        self, dataset: ClickGraph, rng: random.Random
    ) -> List[Node]:
        """Popularity-weighted traffic sample intersected with the dataset."""
        sample = sample_queries_by_traffic(
            self.workload.traffic, self.traffic_sample_size, rng=rng
        )
        in_graph = intersect_with_graph(sample, dataset)
        return in_graph[: self.max_evaluation_queries]

    def run_desirability(
        self, dataset: ClickGraph, rng: random.Random
    ) -> Dict[str, DesirabilityResult]:
        """The Figure 12 experiment for the SimRank variants (Pearson excluded)."""
        simrank_methods = [name for name in self.methods if name != "pearson"]
        factories = {
            name: (lambda name=name: create(name, config=self.config, backend=self.backend))
            for name in simrank_methods
        }
        return run_desirability_experiment(
            dataset,
            factories,
            num_cases=self.desirability_cases,
            rng=rng,
            source=self.config.weight_source,
            neighborhood_radius=self.desirability_radius,
        )

    # ------------------------------------------------------------ evaluation

    def _fitted_engine(self, method_name: str, dataset: ClickGraph) -> RewriteEngine:
        """A servable engine for one method: loaded, warm-started, or fitted.

        With ``load_engines_from`` set and a ``<method>-<backend>`` snapshot
        present, the engine is revived without refitting -- but only when the
        snapshot's persisted configuration and bid terms match what this run
        would fit with; a mismatched snapshot (say, a different iteration
        count) is ignored rather than silently serving stale knobs.

        With ``refresh_engines_from`` set, a snapshot whose config and bid
        terms match but whose recorded graph differs from ``dataset`` is used
        as a *warm-start seed*: the engine is revived and refit on
        ``dataset`` with the snapshot's scores seeding the fixpoint (far
        fewer iterations on a mildly moved workload than a cold fit).

        Otherwise the method is fitted cold on ``dataset``.  In every path
        the resulting engine is snapshotted when ``save_engines_to`` is set.
        """
        name = f"{method_name}-{self.backend}"
        if self.load_engines_from is not None:
            store = EngineSnapshotStore(self.load_engines_from)
            if name in store and self._snapshot_matches(
                store, name, method_name, dataset
            ):
                try:
                    # No sibling fallback here: a sibling snapshot would be
                    # a *different* method/backend, not a stand-in.
                    return resolve_engine_source(
                        snapshot=store.path(name), fallback_siblings=False
                    ).engine
                except SnapshotError:
                    pass  # damaged snapshot: fall through to a fresh fit
        engine = self._warm_started_engine(name, method_name, dataset)
        if engine is None:
            engine = resolve_engine_source(
                graph=dataset,
                config=self._engine_config(method_name),
                bid_terms=self._bid_terms(),
            ).engine
        if self.save_engines_to is not None:
            EngineSnapshotStore(self.save_engines_to).save(name, engine)
        return engine

    def _warm_started_engine(
        self, name: str, method_name: str, dataset: ClickGraph
    ) -> Optional[RewriteEngine]:
        """Engine warm-started from ``refresh_engines_from``, or None.

        Requires tolerance-based early exit: with ``tolerance == 0`` the
        method's result is the fixed iteration count from the identity, and
        a seeded refit would silently compute a further-converged, different
        result -- the harness falls back to a cold fit there.
        """
        if self.refresh_engines_from is None or self.config.tolerance <= 0:
            return None
        store = EngineSnapshotStore(self.refresh_engines_from)
        if name not in store or not self._snapshot_matches(
            store, name, method_name, dataset, require_same_graph=False
        ):
            return None
        try:
            return store.load(name).fit(dataset, warm_start=True)
        except SnapshotError:
            return None  # damaged snapshot: cold fit instead

    def _snapshot_matches(
        self,
        store: EngineSnapshotStore,
        name: str,
        method_name: str,
        dataset: ClickGraph,
        require_same_graph: bool = True,
    ) -> bool:
        """Cheap manifest-only check that a snapshot fits this run.

        Reads only the small JSON manifest -- the score matrix is loaded
        only once the snapshot is known to match.  Besides the engine config
        and bid terms, the snapshot's recorded graph fingerprint must match
        the dataset this run would fit on, so changed dataset-shaping knobs
        (``num_subgraphs``, ``use_partitioning``, workload, seed) do not
        silently revive an engine fitted on a different graph.  The
        warm-start path passes ``require_same_graph=False``: a snapshot of a
        *different* graph state is exactly what seeds a warm refit.
        """
        try:
            manifest = store.manifest(name)
            persisted_config = EngineConfig.from_dict(manifest["engine_config"])
            bid_terms = manifest.get("bid_terms")
            persisted_bid_terms = (
                frozenset(bid_terms) if bid_terms is not None else None
            )
            fingerprint = (manifest.get("fit") or {}).get("graph")
        except (SnapshotError, KeyError, TypeError, ValueError):
            # Unreadable or wrong-shape manifest: treat as mismatched.
            return False
        return (
            persisted_config == self._engine_config(method_name)
            and persisted_bid_terms == self._bid_terms()
            and (
                not require_same_graph
                or fingerprint == graph_fingerprint(dataset)
            )
        )

    def _engine_config(self, method_name: str) -> EngineConfig:
        return EngineConfig(
            method=method_name,
            backend=self.backend,
            similarity=self.config,
            max_rewrites=self.max_rewrites,
            candidate_pool=self.candidate_pool,
            n_jobs=self.n_jobs,
            executor=self.executor,
        )

    def _bid_terms(self) -> frozenset:
        return frozenset(str(term) for term in self.workload.bid_terms)

    def _pooled_relevant(
        self,
        rewrites_per_method: Dict[str, Dict[Node, RewriteList]],
        judge: EditorialJudge,
    ) -> Dict[int, Dict[Node, Set[Node]]]:
        """Relevant rewrites per query pooled over all methods, per threshold."""
        pool: Dict[int, Dict[Node, Set[Node]]] = {t: {} for t in RELEVANCE_THRESHOLDS}
        for rewrites in rewrites_per_method.values():
            for query, rewrite_list in rewrites.items():
                for rewrite in rewrite_list.rewrites:
                    grade = judge.grade(query, rewrite.rewrite)
                    for threshold in RELEVANCE_THRESHOLDS:
                        if grade <= threshold:
                            pool[threshold].setdefault(query, set()).add(rewrite.rewrite)
        return pool

    def _evaluate_method(
        self,
        method_name: str,
        rewrites: Dict[Node, RewriteList],
        judge: EditorialJudge,
        relevant_pool: Dict[int, Dict[Node, Set[Node]]],
    ) -> MethodEvaluation:
        grades: Dict[Tuple[Node, Node], int] = {}
        for query, rewrite_list in rewrites.items():
            for rewrite in rewrite_list.rewrites:
                grades[(query, rewrite.rewrite)] = judge.grade(query, rewrite.rewrite)

        evaluation = MethodEvaluation(
            method_name=method_name,
            rewrite_lists=rewrites,
            grades=grades,
            coverage=coverage_percentage(rewrites),
            depth=depth_distribution(rewrites, max_depth=self.max_rewrites),
        )

        for threshold in RELEVANCE_THRESHOLDS:
            rankings = {
                query: [
                    grades[(query, rewrite.rewrite)] <= threshold
                    for rewrite in rewrite_list.rewrites
                ]
                for query, rewrite_list in rewrites.items()
                if rewrite_list.rewrites
            }
            totals = {
                query: len(relevant_pool[threshold].get(query, set()))
                for query in rankings
            }
            evaluation.pr_curves[threshold] = interpolated_precision_recall(rankings, totals)
            evaluation.precision_at_x[threshold] = {
                k: self._mean_precision_at_k(rankings, k)
                for k in range(1, self.max_rewrites + 1)
            }
        return evaluation

    @staticmethod
    def _mean_precision_at_k(rankings: Dict[Node, List[bool]], k: int) -> float:
        """P@k averaged over the queries the method covered."""
        if not rankings:
            return 0.0
        return sum(precision_at_k(ranking, k) for ranking in rankings.values()) / len(rankings)

    def _combine(self, subgraphs: Sequence[ClickGraph]) -> ClickGraph:
        combined = ClickGraph()
        for subgraph in subgraphs:
            for query in subgraph.queries():
                combined.add_query(query)
            for ad in subgraph.ads():
                combined.add_ad(ad)
            for query, ad, stats in subgraph.edges():
                combined.add_edge_stats(query, ad, stats)
        return combined
