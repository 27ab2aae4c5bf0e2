"""The fit -> serve facade over the similarity methods and the rewriter.

The paper's deployment story (Section 9.3) computes rewrites offline and
serves them online; :class:`RewriteEngine` is that split as an API.  ``fit``
is the expensive analytics step (SimRank fixpoint over the click graph);
``rewrite`` / ``rewrite_batch`` are the latency-critical serving steps, which
cache each query's filtered top-k rewrite list so repeated calls are O(1)
dictionary lookups instead of O(V) similarity scans.

Typical lifecycle::

    engine = RewriteEngine.from_graph(graph, EngineConfig(method="weighted_simrank"),
                                      bid_terms=bid_terms).fit()
    engine.rewrite("camera")                  # RewriteList, computed once
    engine.rewrite_batch(traffic)             # cached after first sight
    engine.explain("camera", "digital camera")  # why (not) proposed?

The offline fit survives process restarts: ``engine.save(path)`` writes a
snapshot (score store + config + bid terms, :mod:`repro.api.snapshot`) and
``RewriteEngine.load(path)`` revives a servable engine without re-running
the fixpoint.  The serving cache is bounded by ``EngineConfig.cache_size``
(LRU eviction; ``None`` keeps every entry for the paper's full-precompute
mode).

Serving can also run without the score matrix resident at all:
``engine.export_store(path)`` materializes the per-query rewrite lists
into a single-file SQLite serving store (:mod:`repro.store`) and
``RewriteEngine.from_store(path)`` revives a *serving-only* engine that
answers ``rewrite`` / ``rewrite_batch`` / ``expansions`` with indexed
point lookups through the same LRU cache -- byte-equal results, resident
memory O(cache) instead of O(nnz).  Store-backed engines cannot ``fit`` /
``refresh`` / ``save`` / ``explain`` / ``export_store`` (those raise
:class:`~repro.store.base.ServingOnlyEngineError`); refit the original
engine and re-export instead.

The fit also survives *graph change*: ``engine.refresh(delta)`` applies a
:class:`~repro.graph.delta.ClickGraphDelta` to the bound graph, refits
(the sharded backend reuses every untouched component and refits the rest
cold) and invalidates only the cache entries whose rewrites could differ
-- the incremental path for click graphs that shift continuously under
serving traffic.  A refreshed engine serves exactly what a cold fit of the
same graph serves.

Thread-safety contract
----------------------
The *serving* reads -- ``rewrite`` / ``rewrite_batch`` / ``expansions`` /
``serving_profile`` -- are safe to call from multiple threads on one
fitted engine: the similarity scan is a pure read of the fitted score
store and the serving cache is guarded by an internal lock.  The
*control-plane* operations -- ``fit``, ``refresh``, ``precompute``,
``clear_cache``, ``save`` -- mutate engine state in multiple steps and
must never run concurrently with each other or with serving reads on the
same instance.  Deployments that need to refresh under live traffic take
:meth:`RewriteEngine.copy` first, refresh the copy off to the side and
atomically publish it (the copy-on-write swap implemented by
:class:`repro.serving.EngineHolder`); readers holding the old engine keep
seeing a fully consistent pre-refresh state.
"""

from __future__ import annotations

import copy as _copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.config import EngineConfig
from repro.api.registry import create
from repro.core import faults
from repro.core.rewriter import CandidateDecision, QueryRewriter, RewriteList
from repro.core.similarity_base import QuerySimilarityMethod
from repro.graph.click_graph import ClickGraph
from repro.graph.components import reachable_queries
from repro.graph.delta import ClickGraphDelta

if TYPE_CHECKING:
    from repro.store.base import ServingStore

__all__ = ["CacheInfo", "Explanation", "RefreshInfo", "RewriteEngine"]

Node = Hashable
PathLike = Union[str, Path]


@dataclass(frozen=True)
class CacheInfo:
    """Serving-cache statistics since the last fit (or ``clear_cache``).

    ``capacity`` is the configured LRU bound (``None`` = unbounded) and
    ``evictions`` counts entries dropped to respect it; eviction never
    changes served results, only whether a re-seen query costs a recompute.
    """

    hits: int
    misses: int
    size: int
    evictions: int = 0
    capacity: Optional[int] = None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class RefreshInfo:
    """What one :meth:`RewriteEngine.refresh` call did.

    ``affected_queries`` counts the queries whose rewrites could have
    changed (every query connected to a changed edge, in the graph state
    before or after the delta); ``invalidated_entries`` of those were
    actually cached and got dropped.  Invalidations are not evictions --
    ``CacheInfo.evictions`` still counts only capacity-driven drops.  A
    no-op (empty) delta skips the refit entirely: ``refit`` is False and
    every cached entry survives.
    """

    changes: int
    affected_queries: int
    invalidated_entries: int
    refit: bool


@dataclass(frozen=True)
class Explanation:
    """Why a particular rewrite was (or was not) proposed for a query.

    ``reason`` is ``"accepted"``, one of the filter fates recorded by the
    rewriter (``"not_in_bid_terms"``, ``"duplicate"``,
    ``"beyond_max_rewrites"``), or -- for rewrites that never reached the
    filter pipeline -- ``"below_similarity_floor"`` / ``"not_in_candidate_pool"``.
    ``candidates`` is the full trace of the query's candidate pool.
    """

    query: Node
    rewrite: Node
    similarity: float
    accepted: bool
    rank: Optional[int]
    reason: str
    candidates: Tuple[CandidateDecision, ...]


class RewriteEngine:
    """Single front door for query rewriting: fit once, serve cached top-k."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        bid_terms: Optional[Iterable[str]] = None,
        graph: Optional[ClickGraph] = None,
    ) -> None:
        """
        Parameters
        ----------
        config:
            The unified engine configuration; defaults to weighted SimRank
            with the paper's serving knobs.
        bid_terms:
            Queries that received at least one bid; rewrites outside this set
            are filtered out unless ``config.bid_filtering`` is off.
        graph:
            Click graph to fit on; may also be supplied later via
            :meth:`fit` (or up front via :meth:`from_graph`).
        """
        self.config = config or EngineConfig()
        self._bid_terms = set(bid_terms) if bid_terms is not None else None
        method = create(
            self.config.method,
            config=self.config.similarity,
            backend=self.config.backend,
            n_jobs=self.config.n_jobs,
            executor=self.config.executor,
        )
        self._rewriter = QueryRewriter(
            method,
            bid_terms=self._bid_terms if self.config.bid_filtering else None,
            max_rewrites=self.config.max_rewrites,
            candidate_pool=self.config.candidate_pool,
            min_score=self.config.min_score,
            deduplicate=self.config.deduplicate,
        )
        self._graph = graph
        #: What the most recent refresh(delta) call did (None before any).
        self.last_refresh: Optional[RefreshInfo] = None
        #: guarded-by: _cache_lock
        self._cache: "OrderedDict[Node, RewriteList]" = OrderedDict()
        #: Guards the serving cache and its counters so concurrent
        #: ``rewrite`` calls from executor threads stay consistent; the
        #: control-plane operations (fit/refresh/precompute) are NOT made
        #: concurrency-safe by this lock -- see the module docstring.
        self._cache_lock = threading.Lock()
        #: guarded-by: _cache_lock
        self._hits = 0
        #: guarded-by: _cache_lock
        self._misses = 0
        #: guarded-by: _cache_lock
        self._evictions = 0
        #: Snapshot-carried state (set by repro.api.snapshot.read_snapshot,
        #: superseded by a fresh fit): the fitted graph's query set -- so
        #: precompute() on a revived engine warms exactly what the original
        #: fitted engine would have -- and the recorded fit iteration count.
        self._precompute_universe: Optional[List[Node]] = None
        self._snapshot_iterations_run: Optional[int] = None
        self._snapshot_graph_fingerprint: Optional[Dict[str, int]] = None
        #: Fit generation of the method at restore time; carried snapshot
        #: state is trusted only while the method still holds that fit.
        self._snapshot_state_generation: Optional[int] = None
        #: The method fit generation the serving caches were built against;
        #: an out-of-band method.fit()/restore() bumps the method's counter
        #: and the next serve drops the stale caches (see _require_fitted).
        self._served_generation: Optional[int] = None
        #: Serving source for store-backed engines (:meth:`from_store`);
        #: when set, cache misses read materialized rewrite lists from the
        #: store instead of running the similarity scan, and the
        #: control-plane operations raise ServingOnlyEngineError.
        self._store: Optional["ServingStore"] = None

    @classmethod
    def from_graph(
        cls,
        graph: ClickGraph,
        config: Optional[EngineConfig] = None,
        bid_terms: Optional[Iterable[str]] = None,
    ) -> "RewriteEngine":
        """Engine bound to a click graph, ready for a no-argument :meth:`fit`."""
        return cls(config=config, bid_terms=bid_terms, graph=graph)

    @classmethod
    def from_dict(
        cls,
        payload: Dict[str, object],
        bid_terms: Optional[Iterable[str]] = None,
        graph: Optional[ClickGraph] = None,
    ) -> "RewriteEngine":
        """Engine built from a serialized :class:`EngineConfig` dictionary."""
        return cls(config=EngineConfig.from_dict(payload), bid_terms=bid_terms, graph=graph)

    def to_dict(self) -> Dict[str, object]:
        """The engine's configuration as a plain dictionary."""
        return self.config.to_dict()

    # --------------------------------------------------------------- fitting

    @property
    def method(self) -> QuerySimilarityMethod:
        """The underlying similarity method instance."""
        return self._rewriter.method

    @property
    def graph(self) -> Optional[ClickGraph]:
        return self._graph

    @property
    def bid_terms(self) -> Optional[frozenset]:
        return frozenset(self._bid_terms) if self._bid_terms is not None else None

    @property
    def is_fitted(self) -> bool:
        return self._store is not None or self.method.is_fitted

    @property
    def serving_store(self) -> Optional["ServingStore"]:
        """The store a :meth:`from_store` engine serves from (else ``None``)."""
        return self._store

    def fit(self, graph: Optional[ClickGraph] = None) -> "RewriteEngine":
        """Run the offline analytics step: fit the similarity method.

        Fits on ``graph`` when given, otherwise on the graph bound by
        :meth:`from_graph`.  Clears the serving cache.  A fit that follows
        a fit reuses every component the sharded backend finds unchanged
        and refits the rest cold, so the result is always that of a cold
        fit of ``graph``.
        """
        self._ensure_not_store_backed("fit")
        if graph is not None:
            self._graph = graph
        if self._graph is None:
            raise RuntimeError(
                "no click graph to fit on; pass one to fit() or build the "
                "engine with RewriteEngine.from_graph(graph, ...)"
            )
        self.method.fit(self._graph)
        self._mark_fresh_fit()
        self.clear_cache()
        return self

    def refresh(self, delta: ClickGraphDelta) -> "RewriteEngine":
        """Bring a fitted engine forward over a click-graph delta.

        Applies the delta to the bound graph, refits the similarity method
        (the sharded backend reuses every untouched component verbatim and
        refits the dirty ones cold -- see
        :class:`~repro.core.simrank_sharded.ShardedSimrank`), and drops only
        the cached rewrite lists whose results could have changed: the
        queries connected to a changed edge, before or after the delta.
        SimRank-family scores never cross component boundaries, so every
        other cached entry still serves correct rewrites.  The refreshed
        engine serves exactly what a cold fit of the updated graph serves.

        An empty delta is a true no-op: no refit, every cache entry kept.
        What happened is recorded in :attr:`last_refresh`.  Raises
        ``RuntimeError`` on an unfitted engine or one revived from a
        snapshot (which carries no graph to apply the delta to -- use
        ``fit(graph)`` with the updated graph there instead).  If the refit
        itself fails, the delta is rolled back before the error propagates,
        so the engine keeps serving its consistent pre-refresh state and
        the same refresh can be retried.

        **Thread-safety contract.**  ``refresh`` mutates this engine in
        place across multiple steps -- the bound graph first, then (only
        after the full replacement score store has been computed -- see
        :meth:`~repro.core.similarity_base.QuerySimilarityMethod.fit`) the
        published scores, then the serving cache -- so it must never run
        concurrently with serving reads *on the same instance*: a reader
        interleaved between those steps could pair new-graph rewrites with
        old scores.  For zero-downtime refresh under live traffic, take
        :meth:`copy` first, refresh the copy and publish it atomically
        (:class:`repro.serving.EngineHolder` packages exactly this
        copy-on-write swap); readers holding the old engine then never
        observe partial refresh state.
        """
        self._ensure_not_store_backed("refresh")
        faults.fire("engine.refresh")
        self._require_fitted()
        if self._graph is None:
            raise RuntimeError(
                "refresh() needs the fitted click graph, and engines revived "
                "from a snapshot carry none; call fit(graph) with the "
                "updated graph instead"
            )
        if delta.is_empty:
            self.last_refresh = RefreshInfo(
                changes=0,
                affected_queries=0,
                invalidated_entries=0,
                refit=False,
            )
            return self
        touched_queries = delta.touched_queries()
        touched_ads = delta.touched_ads()
        # Queries whose scores could change: everything connected to a
        # touched node in the *old* graph (a removal may split a component;
        # the split-off remainder changes too) union the *new* graph (an
        # addition may merge previously untouched components in).
        affected = reachable_queries(self._graph, touched_queries, touched_ads)
        inverse = delta.inverted(self._graph)  # rollback, captured pre-apply
        faults.fire("delta.apply")
        self._graph.apply_delta(delta)
        if delta.added or delta.removed:
            # Only topology changes can alter reachability; for the common
            # stats-only delta the post-apply components are the pre-apply
            # ones and the second traversal would re-walk them for nothing.
            affected |= reachable_queries(self._graph, touched_queries, touched_ads)
        affected |= touched_queries  # endpoints left isolated on either side
        try:
            self.method.fit(self._graph)
        except BaseException:
            # A failed refit must not leave the engine half-refreshed: the
            # scores, cache and last_refresh are still pre-delta, so put the
            # graph back to match and let the caller see the error.
            self._graph.apply_delta(inverse)
            raise
        self._rewriter.clear_cache()
        self._mark_fresh_fit()
        invalidated = 0
        with self._cache_lock:
            for query in [query for query in self._cache if query in affected]:
                del self._cache[query]
                invalidated += 1
        self.last_refresh = RefreshInfo(
            changes=len(delta),
            affected_queries=len(affected),
            invalidated_entries=invalidated,
            refit=True,
        )
        return self

    def copy(self) -> "RewriteEngine":
        """An independent engine with the same fitted state and cache.

        The copy shares nothing mutable with the original: the click graph,
        the fitted similarity method (scores, shard state) and the serving
        cache are all duplicated, so mutating one engine -- ``refresh``,
        ``fit``, cache churn -- never affects the other.  This is the
        copy-on-write half of the zero-downtime serving swap: refresh the
        copy off to the side while the original keeps serving, then publish
        the copy atomically (see :class:`repro.serving.EngineHolder`).

        Cached rewrite lists themselves are shared (they are immutable
        value objects), which keeps the copy cheap relative to a refit.
        """
        clone = type(self)(config=self.config, bid_terms=self._bid_terms)
        memo: Dict[int, object] = {}
        if self._graph is not None:
            clone._graph = self._graph.copy()
            # Seed deepcopy's memo so the method's internal graph reference
            # lands on the clone's graph copy, not a third graph instance.
            memo[id(self._graph)] = clone._graph
        clone._rewriter = _copy.deepcopy(self._rewriter, memo)
        with self._cache_lock:
            clone._cache = OrderedDict(self._cache)
            clone._hits = self._hits
            clone._misses = self._misses
            clone._evictions = self._evictions
        clone.last_refresh = self.last_refresh
        clone._precompute_universe = (
            list(self._precompute_universe)
            if self._precompute_universe is not None
            else None
        )
        clone._snapshot_iterations_run = self._snapshot_iterations_run
        clone._snapshot_graph_fingerprint = (
            dict(self._snapshot_graph_fingerprint)
            if self._snapshot_graph_fingerprint is not None
            else None
        )
        clone._snapshot_state_generation = self._snapshot_state_generation
        clone._served_generation = self._served_generation
        # Stores are shared, not duplicated: lookups are lock-guarded pure
        # reads, and a store-backed engine has no mutable fitted state for
        # the copies to diverge on.
        clone._store = self._store
        return clone

    def _mark_fresh_fit(self) -> None:
        """Reset per-fit bookkeeping: a fresh fit supersedes snapshot state."""
        self._precompute_universe = None
        self._snapshot_iterations_run = None
        self._snapshot_graph_fingerprint = None
        self._snapshot_state_generation = None
        self._served_generation = getattr(self.method, "_fit_generation", None)

    # --------------------------------------------------------------- serving

    def rewrite(self, query: Node) -> RewriteList:
        """The filtered, ranked rewrites of one query (cached).

        With ``config.cache_size=None`` (the default) the cache is unbounded
        -- one entry per distinct query seen, including queries with no
        rewrites -- matching the paper's offline full-precompute deployment.
        A positive ``cache_size`` bounds it with least-recently-used
        eviction for long-tail online traffic; eviction only ever costs a
        recompute on the next sighting, never a different result.

        Safe to call from multiple threads: cache reads and inserts are
        lock-guarded, and the similarity scan itself is a pure read of the
        fitted scores.  Two threads racing on the same cold query both
        compute the (identical, deterministic) result and the second insert
        is a harmless overwrite -- both count as misses.
        """
        self._require_fitted()
        with self._cache_lock:
            cached = self._cache.get(query)
            if cached is not None:
                self._hits += 1
                if self.config.cache_size is not None:
                    # Recency only matters when eviction can happen; the
                    # unbounded hit path stays a read-only dictionary lookup.
                    self._cache.move_to_end(query)
                return cached
            self._misses += 1
        # The engine is the single cache layer: misses bypass the rewriter's
        # unbounded memo, otherwise the LRU bound would not bound anything.
        # Computed outside the lock -- this is the expensive part, and
        # holding the lock through it would serialize concurrent serving.
        result = self._compute_rewrites(query)
        with self._cache_lock:
            self._cache[query] = result
            capacity = self.config.cache_size
            if capacity is not None:
                while len(self._cache) > capacity:
                    self._cache.popitem(last=False)
                    self._evictions += 1
        return result

    def _compute_rewrites(self, query: Node) -> RewriteList:
        """One cache miss: the store's materialized list or a live scan."""
        if self._store is not None:
            return self._store.rewrites(query)
        return self._rewriter.compute_rewrites(query)

    def rewrite_batch(self, queries: Sequence[Node]) -> List[RewriteList]:
        """Rewrite lists for a whole traffic batch, aligned with the input.

        Repeated queries within the batch are deduplicated: each unique
        query hits the score store / serving cache exactly once and the
        duplicates are served from a batch-local memo (with a bounded cache
        a duplicate re-seen after churn would otherwise pay a full
        recompute).  Duplicate occurrences count as cache hits in
        :meth:`cache_info` -- they are served without a similarity scan.
        """
        memo: Dict[Node, RewriteList] = {}
        results: List[RewriteList] = []
        duplicates = 0
        for query in queries:
            seen = memo.get(query)
            if seen is None:
                seen = self.rewrite(query)
                memo[query] = seen
            else:
                duplicates += 1
            results.append(seen)
        if duplicates:
            with self._cache_lock:
                self._hits += duplicates
        return results

    def serving_profile(
        self, queries: Sequence[Node]
    ) -> List[Tuple[Node, Node, int, float]]:
        """Flattened ``(query, rewrite, rank, score)`` rows for a batch.

        The exact serving profile: two engines serve equivalently iff their
        profiles over the same queries are equal.  The cross-backend snapshot
        equivalence tests and ``benchmarks/bench_engine_snapshot.py`` compare
        exactly this.
        """
        return [
            row for result in self.rewrite_batch(queries) for row in result.as_tuples()
        ]

    def expansions(self, query: Node, max_rewrites: Optional[int] = None) -> List[Node]:
        """Just the rewrite terms of a query, for serving-path expansion."""
        limit = max_rewrites if max_rewrites is not None else self.config.max_rewrites
        return [rewrite.rewrite for rewrite in self.rewrite(query).top(limit)]

    def precompute(self, queries: Optional[Iterable[Node]] = None) -> int:
        """Warm the serving cache offline; returns the number of new entries.

        With no argument, precomputes every query of the fitted click graph
        -- the paper's full offline pass.  On an engine revived from a
        snapshot (no graph attached) it warms the snapshot's recorded query
        universe -- the same set the fitted engine would have warmed -- or,
        for snapshots without one, every query of the restored score store.

        With a bounded cache, only the entries that would survive a full LRU
        replay of the sequence are computed -- queries the replay would evict
        on arrival are skipped outright, and already-cached survivors are
        recency-refreshed.  The end-state cache matches the replay exactly,
        without the compute-then-discard churn.
        """
        self._require_fitted()
        if queries is None:
            if self._store is not None:
                queries = self._store.queries()
            elif self._graph is not None:
                queries = self._graph.queries()
            elif (
                self._precompute_universe is not None
                and self._snapshot_state_fresh()
            ):
                queries = self._precompute_universe
            else:
                queries = self._score_store_queries()
        capacity = self.config.cache_size
        if capacity is not None:
            return self._warm_bounded(queries, capacity)
        warmed = 0
        for query in queries:
            # Membership check under the lock, rewrite() outside it: the
            # lock is not reentrant and rewrite() takes it to fill the
            # cache, so holding it across the call would self-deadlock.
            with self._cache_lock:
                cached = query in self._cache
            if not cached:
                self.rewrite(query)
                warmed += 1
        return warmed

    def _warm_bounded(self, queries: Iterable[Node], capacity: int) -> int:
        """Warm a bounded cache without computing entries that cannot survive.

        A symbolic LRU replay over the current cache contents plus the
        stream determines the end-state entries first; only those are then
        computed (misses) or recency-refreshed (existing entries), in final
        recency order, so the real cache finishes in exactly the state the
        naive query-by-query replay would produce.
        """
        with self._cache_lock:
            simulated: "OrderedDict[Node, None]" = OrderedDict(
                (query, None) for query in self._cache
            )
        for query in queries:
            if query in simulated:
                simulated.move_to_end(query)
            else:
                simulated[query] = None
                if len(simulated) > capacity:
                    simulated.popitem(last=False)
        # Drop the entries the replay evicts *before* warming: otherwise an
        # insertion mid-loop could push out a not-yet-refreshed survivor and
        # force the recompute this path exists to avoid.
        with self._cache_lock:
            for query in [
                query for query in self._cache if query not in simulated
            ]:
                del self._cache[query]
                self._evictions += 1
        warmed = 0
        for query in simulated:
            # Same split as precompute(): check-and-touch under the lock,
            # rewrite() (which takes the lock itself) outside it.
            with self._cache_lock:
                cached = query in self._cache
                if cached:
                    self._cache.move_to_end(query)
            if not cached:
                self.rewrite(query)
                warmed += 1
        return warmed

    def _snapshot_state_fresh(self) -> bool:
        """Whether snapshot-carried metadata still describes the held fit.

        An out-of-band ``method.fit()``/``method.restore()`` bumps the
        method's fit generation past the one recorded at load time, at which
        point the carried universe/fingerprint/iteration metadata describe a
        different fit and must be ignored.
        """
        return (
            self._snapshot_state_generation is not None
            and self._snapshot_state_generation
            == getattr(self.method, "_fit_generation", None)
        )

    def _score_store_queries(self) -> List[Node]:
        """Every query the fitted score store knows about (snapshot serving)."""
        scores = self.method.similarities()
        index = getattr(scores, "index", None)
        if index is not None:
            return list(index)
        return list(scores.nodes())

    def _serving_universe(self) -> List[Node]:
        """Every query serving must answer, in deterministic (repr) order.

        The fitted graph's query set when a graph is bound, the recorded
        snapshot universe on a revived engine, the score store's queries as
        the last resort -- the same precedence :meth:`precompute` uses.
        Store exports (:meth:`export_store`,
        :meth:`~repro.store.memory.InMemoryServingStore.from_engine`)
        persist exactly this set as the store's query universe.
        """
        if self._store is not None:
            return self._store.queries()
        if self._graph is not None:
            universe = self._graph.queries()
        elif self._precompute_universe is not None and self._snapshot_state_fresh():
            universe = self._precompute_universe
        else:
            universe = self._score_store_queries()
        return sorted(universe, key=repr)

    # ----------------------------------------------------------- explanation

    def explain(self, query: Node, rewrite: Node) -> Explanation:
        """Trace the filter pipeline to explain one (query, rewrite) decision."""
        self._ensure_not_store_backed("explain")
        self._require_fitted()
        decisions = tuple(self._rewriter.explain_candidates(query))
        for decision in decisions:
            if decision.candidate == rewrite:
                return Explanation(
                    query=query,
                    rewrite=rewrite,
                    similarity=decision.score,
                    accepted=decision.accepted,
                    rank=decision.rank,
                    reason=decision.fate,
                    candidates=decisions,
                )
        similarity = self.method.query_similarity(query, rewrite)
        reason = (
            "below_similarity_floor"
            if similarity <= self.config.min_score
            else "not_in_candidate_pool"
        )
        return Explanation(
            query=query,
            rewrite=rewrite,
            similarity=similarity,
            accepted=False,
            rank=None,
            reason=reason,
            candidates=decisions,
        )

    # ------------------------------------------------------------ cache admin

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction counters and current size of the serving cache."""
        with self._cache_lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                size=len(self._cache),
                evictions=self._evictions,
                capacity=self.config.cache_size,
            )

    def clear_cache(self) -> None:
        """Drop all cached rewrite lists and reset every cache counter."""
        with self._cache_lock:
            self._cache.clear()
            self._rewriter.clear_cache()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    # ------------------------------------------------------------ persistence

    def save(self, path: PathLike) -> Path:
        """Write the fitted engine as a snapshot directory; returns its path.

        The snapshot (see :mod:`repro.api.snapshot`) holds the similarity
        score store, the :class:`EngineConfig`, the bid terms and fit
        metadata -- everything :meth:`load` needs to serve identical rewrite
        lists without re-running the SimRank fixpoint.  The click graph
        itself is *not* included (persist it with
        :class:`~repro.graph.storage.ClickGraphStore` if refitting later
        matters).
        """
        self._ensure_not_store_backed("save")
        from repro.api.snapshot import write_snapshot

        return write_snapshot(self, path)

    @classmethod
    def load(cls, path: PathLike) -> "RewriteEngine":
        """Revive a servable engine from a :meth:`save` snapshot, without refitting.

        The restored engine serves identical rewrite lists to the engine
        that was saved; it carries no click graph, so :meth:`fit` requires
        an explicit graph and :meth:`precompute` warms the snapshot's query
        universe.
        """
        from repro.api.snapshot import read_snapshot

        return read_snapshot(path, engine_cls=cls)

    def export_store(self, path: PathLike) -> Path:
        """Materialize the fitted serving lists as a SQLite store file.

        Computes every query's rewrite list with this engine's own top-k
        and Section 9.3 filter pipeline and writes the lists into a single
        crash-safe SQLite file -- see :mod:`repro.store.sqlite`.
        :meth:`from_store` then serves byte-equal rewrite lists from it with
        O(cache) resident memory.  Returns the store path.
        """
        self._ensure_not_store_backed("export_store")
        from repro.store.sqlite import export_serving_store

        return export_serving_store(self, path)

    @classmethod
    def from_store(
        cls, source: Union[PathLike, "ServingStore"]
    ) -> "RewriteEngine":
        """Revive a serving-only engine from an exported serving store.

        ``source`` is a store path (opened as a
        :class:`~repro.store.sqlite.SqliteServingStore`) or an already-open
        :class:`~repro.store.base.ServingStore`.  The engine rebuilds its
        serving knobs (``cache_size``, ``max_rewrites``) from the config
        recorded in the store and answers ``rewrite`` / ``rewrite_batch`` /
        ``expansions`` through the usual LRU cache, each miss being one
        store lookup.  Control-plane operations (``fit``, ``refresh``,
        ``save``, ``explain``, ``export_store``) raise
        :class:`~repro.store.base.ServingOnlyEngineError`: the store holds
        materialized lists, not the score matrix.
        """
        from repro.store.base import ServingStore
        from repro.store.sqlite import SqliteServingStore

        store = source if isinstance(source, ServingStore) else SqliteServingStore(source)
        payload = store.engine_config()
        config = EngineConfig.from_dict(payload) if payload else None
        engine = cls(config=config)
        engine._store = store
        return engine

    # ------------------------------------------------------------------ misc

    def _ensure_not_store_backed(self, operation: str) -> None:
        if self._store is None:
            return
        from repro.store.base import ServingOnlyEngineError

        raise ServingOnlyEngineError(
            f"{operation}() is unavailable on a store-backed engine: it "
            "serves materialized rewrite lists, not the fitted score "
            "matrix; refit (or load) the original engine and re-export "
            "the store instead"
        )

    def _require_fitted(self) -> None:
        if self._store is not None:
            # Store-backed serving has no method fit generation to track;
            # the store's materialized lists are immutable.
            return
        if not self.is_fitted:
            raise RuntimeError(
                "RewriteEngine has not been fitted; call .fit(graph) "
                "(or .from_graph(graph, ...).fit()) before serving"
            )
        # Out-of-band method.fit()/method.restore() (not via this engine)
        # bumps the method's fit generation; serving stale cached rewrite
        # lists next to the new scores would silently mix two fits.
        generation = getattr(self.method, "_fit_generation", None)
        if generation != self._served_generation:
            self.clear_cache()
            self._served_generation = generation

    def __repr__(self) -> str:
        state = "fitted" if self.is_fitted else "unfitted"
        if self._store is not None:
            state = f"store-backed ({self._store.kind})"
        with self._cache_lock:
            cached = len(self._cache)
        return (
            f"RewriteEngine(method={self.config.method!r}, {state}, "
            f"cached={cached})"
        )
