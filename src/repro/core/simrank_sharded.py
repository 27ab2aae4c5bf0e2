"""Component-sharded SimRank engine.

Click graphs are highly disconnected in practice: the paper's own experiments
operate on connected-component samples of the Yahoo! click graph ("one huge
connected component and several smaller subgraphs", Section 9.2).  SimRank
scores between nodes in different connected components are provably zero --
the recursive sums only ever traverse edges -- yet :class:`MatrixSimrank`
allocates one dense ``n x n`` similarity matrix over the whole node set and
spends ``O(n^3)`` multiply time per iteration on cross-component blocks that
stay zero forever.

:class:`ShardedSimrank` exploits that structure, and is the default backend
of every SimRank method.  It decomposes the click graph into connected
components (:func:`repro.graph.components.connected_components`), fits the
dense :class:`MatrixSimrank` kernel on each component's induced subgraph and
stitches the per-component results into one
:class:`~repro.core.scores_array.ArraySimilarityScores` whose blocks are
the per-component dense score matrices, adopted without a copy
(cross-component pairs provably score zero, which is exactly the block
structure).  The dense work therefore shrinks from one ``n x n`` matrix to
a family of ``n_k x n_k`` blocks (``sum n_k = n``); on a single-component
graph it is one dense fit.  ``benchmarks/bench_sharded_backend.py`` gates
the speedup over a whole-graph dense fit.

Isolated nodes (zero degree) can only self-score, so they are skipped
entirely; ``query_similarity`` still returns 1 for the self-pair and 0
elsewhere via the block store's missing-pair default.

Per-component fits are independent, so they can run on a worker pool:
``n_jobs > 1`` fits components on that many workers, ``n_jobs=-1`` uses one
worker per *available* CPU (affinity-aware, see
:func:`repro.core.parallel.available_cpu_count`).  The pool flavour is the
``executor``: ``"thread"`` shares the interpreter (cheap to start, but
GIL-bound outside numpy's released-GIL regions), ``"process"`` fits shard
batches in worker processes for true multi-core scaling (picklable payloads,
batches balanced by estimated cost), and ``"auto"`` -- the default -- picks
processes only when the estimated work clearly exceeds the fork/pickle
overhead.

A fit that follows a fit is incremental: a component whose node set and
edges (statistics included) equal one of the previous fit's shards is
*clean*, and its fitted kernel is reused verbatim.  Every other component
-- changed, merged, split or new -- is refit cold, from the identity.  The
kernel indexes each component's nodes in sorted order, so a cold refit of
a clean component would reproduce its scores bit for bit: reuse saves the
work and never changes an answer.  A refit therefore serves exactly what a
cold fit of the same graph serves, whatever the fit history.
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core import faults
from repro.core.config import SimrankConfig
from repro.core.parallel import chunk_balanced, pick_executor, resolve_worker_count
from repro.core.scores_array import ArraySimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.simrank_matrix import MatrixSimrank
from repro.graph.click_graph import ClickGraph
from repro.graph.components import connected_components

__all__ = ["ShardedSimrank"]

Node = Hashable

_MODES = ("simrank", "evidence", "weighted")

_EXECUTORS = ("thread", "process", "auto")


class ShardedSimrank(QuerySimilarityMethod):
    """SimRank family computed per connected component and stitched together.

    Exact for the whole SimRank family: plain, evidence-based and weighted
    SimRank all score cross-component pairs zero (the iteration, the evidence
    factors and the spread factors are each local to a component), so the
    stitched scores equal what the dense engine computes on the full graph.
    """

    def __init__(
        self,
        config: Optional[SimrankConfig] = None,
        mode: str = "simrank",
        min_score: float = 1e-9,
        n_jobs: int = 1,
        executor: str = "auto",
    ) -> None:
        super().__init__()
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if n_jobs == 0 or n_jobs < -1:
            raise ValueError(f"n_jobs must be a positive integer or -1, got {n_jobs}")
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        self.config = config or SimrankConfig()
        self.mode = mode
        self.min_score = min_score
        self.n_jobs = n_jobs
        #: Pool flavour for parallel shard fits; ``"auto"`` picks processes
        #: only when the estimated work amortises the fork/pickle overhead.
        self.executor = executor
        # Report under the same name as the dense and reference engines so
        # experiment tables stay comparable across backends.
        self.name = {
            "simrank": "simrank",
            "evidence": "evidence_simrank",
            "weighted": "weighted_simrank",
        }[mode]
        #: Iterations of the last fit: the most any shard ran (a reused
        #: shard counts with the iterations of the fit that produced it).
        self.iterations_run: Optional[int] = None
        #: Shards of the last fit reused verbatim from the previous fit
        #: (dirty-component detection) and shards actually refit.
        self.reused_shards: Optional[int] = None
        self.refitted_shards: Optional[int] = None
        self._shard_graphs: List[ClickGraph] = []
        self._shard_methods: List[QuerySimilarityMethod] = []
        self._query_shard: Dict[Node, int] = {}
        self._ad_shard: Dict[Node, int] = {}

    # -------------------------------------------------------------- fit path

    def _compute_query_scores(self, graph: ClickGraph) -> ArraySimilarityScores:
        # A shard fit that raises must not leave the method half-updated:
        # `reused_shards` and the shard tables are mutated below *before*
        # the fits run, so on any failure the pre-fit values are restored
        # wholesale.  Combined with the base class's build-then-publish
        # contract for `_query_scores`, a failed fit leaves the method
        # exactly as it was -- cleanly unfitted on a first fit, or still
        # serving the previous fit on a refit.
        prior_state = (
            self.iterations_run,
            self.reused_shards,
            self.refitted_shards,
            self._shard_graphs,
            self._shard_methods,
            self._query_shard,
            self._ad_shard,
        )
        try:
            return self._compute_and_stitch(graph)
        except BaseException:
            (
                self.iterations_run,
                self.reused_shards,
                self.refitted_shards,
                self._shard_graphs,
                self._shard_methods,
                self._query_shard,
                self._ad_shard,
            ) = prior_state
            raise

    def _compute_and_stitch(self, graph: ClickGraph) -> ArraySimilarityScores:
        previous_graphs = self._shard_graphs or []
        previous_methods = self._shard_methods or []
        previous_query_shard = self._query_shard or {}
        previous_ad_shard = self._ad_shard or {}

        components = [
            (queries, ads)
            for queries, ads in connected_components(graph)
            # A component missing one side is a single isolated node: it has
            # no edges, so every score involving it is 0 (or the implicit 1
            # of the self-pair).  Skip it.
            if queries and ads
        ]

        # Dirty-component detection: a component whose node set and
        # adjacency are identical to one of the previous fit's shards is
        # *clean* -- no edge in it changed, so its fixpoint is exactly the
        # previous one and both the fitted inner engine and the induced
        # subgraph are reused verbatim (no rebuild, no refit).  The check
        # reads per-node adjacency straight off the full graph, so clean
        # components cost O(component edges), not an O(all edges) subgraph
        # construction.  Only dirty components (changed, merged, split or
        # new) are refit, each cold.
        shard_graphs: List[Optional[ClickGraph]] = [None] * len(components)
        methods: List[Optional[QuerySimilarityMethod]] = [None] * len(components)
        for shard_id, (queries, ads) in enumerate(components):
            previous_id = _single_previous_shard(
                queries, ads, previous_query_shard, previous_ad_shard
            )
            if previous_id is not None and _component_unchanged(
                graph, queries, ads, previous_graphs[previous_id]
            ):
                shard_graphs[shard_id] = previous_graphs[previous_id]
                methods[shard_id] = previous_methods[previous_id]

        dirty = [shard_id for shard_id, method in enumerate(methods) if method is None]
        for shard_id in dirty:
            queries, ads = components[shard_id]
            shard_graphs[shard_id] = graph.subgraph(queries=queries, ads=ads)
        self.reused_shards = len(components) - len(dirty)
        self.refitted_shards = len(dirty)
        dirty_graphs = [shard_graphs[shard_id] for shard_id in dirty]
        fitted = self._fit_shards(dirty_graphs)
        for shard_id, method in zip(dirty, fitted):
            methods[shard_id] = method
        self.iterations_run = max(
            (method.iterations_run for method in methods), default=0
        )

        self._shard_graphs = shard_graphs
        self._shard_methods = methods
        self._query_shard = {}
        self._ad_shard = {}
        for shard_id, subgraph in enumerate(self._shard_graphs):
            for query in subgraph.queries():
                self._query_shard[query] = shard_id
            for ad in subgraph.ads():
                self._ad_shard[ad] = shard_id
        # Components are node-disjoint, so the combined store is just the
        # per-component blocks side by side -- stitched without copying a
        # single score.
        return ArraySimilarityScores.stitched(
            method.similarities() for method in self._shard_methods
        )

    def _build_inner(self, subgraph: ClickGraph) -> MatrixSimrank:
        """The dense kernel that fits one component."""
        return MatrixSimrank(config=self.config, mode=self.mode, min_score=self.min_score)

    def _fit_shards(self, subgraphs: List[ClickGraph]) -> List[QuerySimilarityMethod]:
        """Fit one inner engine per component, serially or on a worker pool.

        A failing shard fit cancels the outstanding shard fits and re-raises
        the first error in submission order; the caller restores the pre-fit
        state.
        """
        methods = [self._build_inner(subgraph) for subgraph in subgraphs]
        workers = self._resolve_jobs(len(subgraphs))
        # One fault claim per shard, in shard order, *before* any work is
        # dispatched: central counting keeps "shard.fit" injection
        # deterministic across the serial, thread and process paths (and
        # across retries -- a consumed fault stays consumed).
        actions = [faults.claim("shard.fit") for _ in subgraphs]
        if workers <= 1 or len(subgraphs) <= 1:
            for method, subgraph, action in zip(methods, subgraphs, actions):
                if action is not None:
                    action.execute()
                method.fit(subgraph)
            return methods
        if self._resolve_executor(subgraphs, workers) == "process":
            return self._fit_shards_process(methods, subgraphs, workers, actions)
        return self._fit_shards_thread(methods, subgraphs, workers, actions)

    def _fit_shards_thread(
        self,
        methods: List[QuerySimilarityMethod],
        subgraphs: List[ClickGraph],
        workers: int,
        actions: List[Optional[faults.FaultAction]],
    ) -> List[QuerySimilarityMethod]:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [
                pool.submit(_fit_one_shard, method, subgraph, action)
                for method, subgraph, action in zip(methods, subgraphs, actions)
            ]
            # Stop at the first failure instead of draining the whole map:
            # queued sibling fits are cancelled, running ones are joined
            # (threads cannot be interrupted mid-fit).
            pending = wait(futures, return_when=FIRST_EXCEPTION)[1]
            for future in pending:
                future.cancel()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        _raise_first_error(futures)
        return methods

    def _fit_shards_process(
        self,
        methods: List[QuerySimilarityMethod],
        subgraphs: List[ClickGraph],
        workers: int,
        actions: List[Optional[faults.FaultAction]],
    ) -> List[QuerySimilarityMethod]:
        """Fit shard batches in worker processes and collect the fitted engines.

        Shards are packed into at most ``workers`` cost-balanced batches
        (one pickled payload per batch amortises IPC) and each worker
        rebuilds, fits and returns its engines.  The fitted engines replace
        the local placeholders, so callers observe exactly the serial
        result.

        Injected faults travel the same way: the parent claims them (the
        generic ``shard.fit`` ones handed in by the caller, plus the
        process-only ``shard.fit.worker`` ones -- the channel for
        ``crash=True`` specs, which must kill a *worker*, never the
        serving/fitting process itself) and ships the picklable actions
        inside the batch, where the worker executes them before fitting.
        """
        costs = [_estimate_shard_cost(subgraph) for subgraph in subgraphs]
        worker_actions = [faults.claim("shard.fit.worker") for _ in subgraphs]
        chunks = chunk_balanced(costs, workers)
        batches = [
            [
                (
                    self.config,
                    self.mode,
                    self.min_score,
                    subgraphs[i],
                    tuple(
                        action
                        for action in (actions[i], worker_actions[i])
                        if action is not None
                    ),
                )
                for i in chunk
            ]
            for chunk in chunks
        ]
        pool = ProcessPoolExecutor(max_workers=len(batches))
        try:
            futures = [pool.submit(_fit_shard_batch, batch) for batch in batches]
            pending = wait(futures, return_when=FIRST_EXCEPTION)[1]
            for future in pending:
                future.cancel()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        _raise_first_error(futures)
        for chunk, future in zip(chunks, futures):
            for shard_id, fitted in zip(chunk, future.result()):
                methods[shard_id] = fitted
        return methods

    def _resolve_executor(self, subgraphs: List[ClickGraph], workers: int) -> str:
        if self.executor != "auto":
            return self.executor
        return pick_executor([subgraph.num_nodes for subgraph in subgraphs], workers)

    def _resolve_jobs(self, num_shards: int) -> int:
        # Affinity-aware: n_jobs=-1 sizes from the CPUs this process may
        # actually run on, not the machine's total core count.
        return resolve_worker_count(self.n_jobs, num_shards)

    # ---------------------------------------------------------------- access

    def restore(self, scores, graph=None) -> "ShardedSimrank":
        """Adopt precomputed query scores; the shard decomposition is fit-only.

        Snapshots persist the stitched query scores, not the per-component
        structure, so the shard accessors of a restored engine raise a clear
        error instead of reporting an empty (zero-shard) decomposition.
        """
        super().restore(scores, graph)
        self.iterations_run = None
        self.reused_shards = None
        self.refitted_shards = None
        self._shard_graphs = None
        self._shard_methods = None
        self._query_shard = None
        self._ad_shard = None
        return self

    @property
    def num_shards(self) -> int:
        """Number of connected components that carried at least one edge."""
        self._require_fitted()
        return len(self._require_fit_extra(self._shard_graphs, "shard decomposition"))

    def shard_graphs(self) -> List[ClickGraph]:
        """The induced component subgraphs, largest first."""
        self._require_fitted()
        return list(self._require_fit_extra(self._shard_graphs, "shard decomposition"))

    def shard_sizes(self) -> List[int]:
        """Node count per shard, largest first (Table 5-style reporting)."""
        self._require_fitted()
        shard_graphs = self._require_fit_extra(self._shard_graphs, "shard decomposition")
        return [subgraph.num_nodes for subgraph in shard_graphs]

    def shard_of(self, query: Node) -> Optional[int]:
        """Index of the shard containing a query (None for unknown/isolated)."""
        self._require_fitted()
        query_shard = self._require_fit_extra(self._query_shard, "shard decomposition")
        return query_shard.get(query)

    def ad_similarity(self, first: Node, second: Node) -> float:
        """Similarity of two ads under the same per-component fixpoints."""
        self._require_fitted()
        ad_shard = self._require_fit_extra(self._ad_shard, "ad-side scores")
        if first == second:
            return 1.0
        shard = ad_shard.get(first)
        if shard is None or shard != ad_shard.get(second):
            return 0.0
        return self._shard_methods[shard].ad_similarity(first, second)


def _fit_one_shard(
    method: QuerySimilarityMethod,
    subgraph: ClickGraph,
    action: Optional[faults.FaultAction],
) -> QuerySimilarityMethod:
    """Thread-pool task body: execute any claimed fault, then fit the shard."""
    if action is not None:
        action.execute()
    return method.fit(subgraph)


def _fit_shard_batch(batch: List[Tuple]) -> List[QuerySimilarityMethod]:
    """Process-pool worker: rebuild, fit and return one batch of inner engines.

    Module-level (and fed only picklable payloads) so it can cross the
    process boundary: each payload is ``(config, mode, min_score, subgraph,
    fault_actions)`` and the fitted engines -- graph, scores and all -- are
    pickled back to the parent, where they serve
    exactly like thread-fitted ones.  Fault actions were claimed in the
    parent (central, deterministic counting) and execute here, in the
    worker -- ``crash=True`` actions take down this process, which the
    parent pool surfaces as ``BrokenProcessPool``.
    """
    fitted = []
    for config, mode, min_score, subgraph, shard_faults in batch:
        for action in shard_faults:
            action.execute()
        method = MatrixSimrank(config=config, mode=mode, min_score=min_score)
        method.fit(subgraph)
        fitted.append(method)
    return fitted


def _estimate_shard_cost(subgraph: ClickGraph) -> float:
    """Relative cost estimate used to balance shard batches across workers.

    The dense kernel's per-iteration cost scales with ``n^3`` (full matrix
    products); only the *ratios* matter.
    """
    return max(float(subgraph.num_nodes) ** 3, 1.0)


def _raise_first_error(futures) -> None:
    """Re-raise the first (submission-order) error of a completed pool run."""
    for future in futures:
        if future.cancelled():
            continue
        error = future.exception()
        if error is not None:
            raise error


def _single_previous_shard(
    queries,
    ads,
    previous_query_shard: Dict[Node, int],
    previous_ad_shard: Dict[Node, int],
) -> Optional[int]:
    """The one previous shard this component's nodes all belonged to, if any.

    ``None`` when the nodes span several previous shards (components merged)
    or include nodes the previous fit never saw (new queries/ads) -- such a
    component cannot be clean.  A single candidate is only a *candidate*:
    the caller still verifies the component's adjacency is unchanged, so
    edge-stat changes and splits within one previous shard are caught there.
    """
    candidate: Optional[int] = None
    for query in queries:
        shard = previous_query_shard.get(query)
        if shard is None or (candidate is not None and shard != candidate):
            return None
        candidate = shard
    for ad in ads:
        shard = previous_ad_shard.get(ad)
        if shard is None or shard != candidate:
            return None
    return candidate


def _component_unchanged(
    graph: ClickGraph, queries, ads, previous_shard: ClickGraph
) -> bool:
    """Whether a component of ``graph`` equals a previous induced shard.

    Same node sets and, for every query, the same incident edges with the
    same statistics.  Comparing the query-side adjacency alone covers every
    edge (the graph is bipartite), and reading rows off the full graph is
    sound because a component's edges never leave it.
    """
    if set(previous_shard.queries()) != queries or set(previous_shard.ads()) != ads:
        return False
    return all(
        graph.ads_of(query) == previous_shard.ads_of(query) for query in queries
    )
