"""The public serving API: method registry, engine configuration, rewrite engine.

This package is the single front door to the library for serving workloads:

* :mod:`repro.api.registry` -- a decorator-based registry of query-similarity
  methods.  Downstream code registers custom methods with
  :func:`~repro.api.registry.register_method` without editing core modules.
* :class:`~repro.api.config.EngineConfig` -- one validated, serializable
  configuration object unifying the SimRank parameters with the rewrite
  front-end knobs (bid-term filtering, dedup, candidate pool, max rewrites).
* :class:`~repro.api.engine.RewriteEngine` -- the fit -> serve facade: fit a
  similarity method on a click graph once (offline), then serve cached top-k
  rewrite lists with O(1) repeated lookups (online), matching the paper's
  offline-computation / online-serving deployment story (Section 9.3).

Choosing a backend
------------------

The SimRank family ships two backends, selected with
``EngineConfig(backend=...)`` (or ``--backend`` on the experiments CLI).
Both compute the same fixpoint and agree within 1e-6 -- the standing
``tests/equivalence/`` harness asserts exactly that for every mode.

``sharded``
    The default.  Decomposes the click graph into connected components,
    fits the dense :class:`~repro.core.simrank_matrix.MatrixSimrank` kernel
    per component and stitches the per-component score matrices
    block-diagonally (cross-component pairs provably score zero, so the
    result is exact).  Realistic click graphs are highly disconnected, so
    memory and time scale with the largest component, not the whole graph;
    a single-component graph is simply one dense fit.
    ``benchmarks/bench_sharded_backend.py`` gates the speedup (>= 2x over a
    whole-graph dense fit on a 10-component graph).
``reference``
    The node-pair implementations that follow the paper's equations
    literally.  Slowest (Python double loops), but they expose per-iteration
    traces; use them for tiny graphs, debugging and paper-table
    reproduction, and as the oracle the fast path is tested against.

The ``matrix``, ``sparse`` and ``auto`` backends of earlier releases are
retired: each name still resolves, to ``sharded``, with a
:class:`DeprecationWarning` (see
:data:`~repro.api.registry.RETIRED_BACKENDS`; removed in 2.0).

Parallel fitting
----------------

The sharded backend fits independent components on a worker pool:
``EngineConfig(n_jobs=N)`` (or ``ShardedSimrank(n_jobs=...)``) sets the
worker count, with ``-1`` meaning one worker per *available* CPU --
affinity-aware via :func:`repro.core.parallel.available_cpu_count`, so
cgroup-restricted containers are not oversubscribed.  ``executor=`` picks
the pool flavour: ``"thread"`` (cheap, GIL-bound outside numpy),
``"process"`` (true multi-core: shards are batched into cost-balanced
picklable payloads, the warm-start seed shipped once per batch) or ``"auto"`` (the
default -- processes only when the estimated work amortises the fork/pickle
overhead).  ``benchmarks/bench_sharded_backend.py`` gates ``n_jobs=4``
process fitting at >= 2.5x a single-core fit on a many-component graph.

The sharded backend serves scores through the array-backed
:class:`~repro.core.scores_array.ArraySimilarityScores` store, which
adopts each component's final dense score matrix as one block instead of
materializing millions of dict entries.

Snapshots and the serving cache
-------------------------------

The fit -> serve split survives process restarts: ``engine.save(path)``
writes a versioned snapshot (the dense score blocks in one ``.npy`` array
plus a JSON manifest with the ``EngineConfig``, bid terms and fit
metadata; version-1 CSR snapshots still load), and
``RewriteEngine.load(path)`` revives a servable engine *without
refitting* -- identical rewrite lists, for every
backend (the dict-backed ``reference`` store converts through
``SimilarityScores.to_array`` / ``from_array``).
:class:`~repro.api.snapshot.EngineSnapshotStore` manages named snapshots
under one directory, the eval harness and ``simrankpp-experiments``
(``--save-engine`` / ``--load-engine``) wire it end to end, and
``benchmarks/bench_engine_snapshot.py`` gates snapshot loading at >= 20x
faster than refitting.

Incremental refresh
-------------------

Production click graphs change continuously; a full refit per change is the
cold path.  ``engine.refresh(delta)`` takes a
:class:`~repro.graph.delta.ClickGraphDelta` (captured with
``ClickGraphDelta.between(old, new)`` or recorded with
:class:`~repro.graph.delta.DeltaBuilder`), applies it to the bound graph,
refits warm-started from the current scores -- the sharded backend refits
*only* the components an edge change touched and reuses the rest verbatim
-- and invalidates only the cached rewrite lists whose results could have
changed.  Snapshots double as warm-start seeds:
:func:`~repro.api.snapshot.warm_start_from_snapshot` (or
``RewriteEngine.load(path).fit(graph, warm_start=True)``) refits a revived
engine on a moved graph in a handful of iterations.
``benchmarks/bench_engine_refresh.py`` gates refresh at >= 5x faster than
a cold refit on a delta touching <= 10% of components.

Online serving no longer requires an unbounded cache:
``EngineConfig(cache_size=N)`` bounds the serving cache to ``N`` rewrite
lists with least-recently-used eviction (``None``, the default, keeps every
entry -- the paper's full-precompute mode).  Evictions are counted in
``CacheInfo.evictions``; an evicted query costs one recompute on its next
sighting and never a different result.

Serving stores and the engine-source resolver
---------------------------------------------

Serving does not even require the score matrix resident:
``engine.export_store(path)`` materializes the per-query rewrite lists
into a single-file SQLite serving store (the lists the engine itself
serves, written row for row -- :mod:`repro.store`), and
``RewriteEngine.from_store(path)`` revives a serving-only engine that
answers byte-equal rewrite lists via indexed point lookups with O(cache)
resident memory.  :func:`repro.api.sources.resolve_engine_source` is the
one front door over every engine source -- serving store, snapshot
directory (with crash-safe sibling fallback) or fresh fit -- used by the
serving CLI and the eval harness alike.
``benchmarks/bench_sql_serving.py`` gates store-backed serving at
byte-equal profiles, p99 lookup latency within 5x of in-memory and
measurably lower peak RSS than full-snapshot serving.
"""

from repro.api.config import ConfigError, EngineConfig
from repro.api.engine import CacheInfo, Explanation, RefreshInfo, RewriteEngine
from repro.api.registry import (
    PAPER_METHODS,
    SIMRANK_BACKENDS,
    DuplicateMethodError,
    MethodSpec,
    RegistryError,
    UnknownBackendError,
    UnknownMethodError,
    available_backends,
    available_methods,
    create,
    method_spec,
    register_method,
    unregister_method,
)
from repro.api.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    EngineSnapshotStore,
    SnapshotError,
    read_snapshot,
    warm_start_from_snapshot,
    write_snapshot,
)
from repro.api.sources import ResolvedEngine, resolve_engine_source

__all__ = [
    "ResolvedEngine",
    "resolve_engine_source",
    "ConfigError",
    "EngineConfig",
    "CacheInfo",
    "Explanation",
    "RefreshInfo",
    "RewriteEngine",
    "SNAPSHOT_FORMAT_VERSION",
    "EngineSnapshotStore",
    "SnapshotError",
    "read_snapshot",
    "warm_start_from_snapshot",
    "write_snapshot",
    "PAPER_METHODS",
    "SIMRANK_BACKENDS",
    "DuplicateMethodError",
    "MethodSpec",
    "RegistryError",
    "UnknownBackendError",
    "UnknownMethodError",
    "available_backends",
    "available_methods",
    "create",
    "method_spec",
    "register_method",
    "unregister_method",
]
