"""Simrank++: query rewriting through link analysis of the click graph.

A full reproduction of Antonellis, Garcia-Molina & Chang (VLDB 2008):
plain bipartite SimRank, evidence-based SimRank and weighted SimRank
("Simrank++") over weighted query-ad click graphs, plus every substrate the
paper's evaluation depends on -- click-graph construction and storage, local
graph partitioning, a sponsored-search serving simulator, a synthetic
Yahoo!-like workload generator, a simulated editorial judge and the complete
evaluation harness that regenerates the paper's tables and figures.

The serving front door is :class:`~repro.api.engine.RewriteEngine`: fit a
similarity method on a click graph once (offline), then serve cached,
filtered top-k rewrite lists (online).

Quickstart::

    from repro import ClickGraph, EngineConfig, RewriteEngine

    graph = ClickGraph()
    graph.add_edge("camera", "hp.com", impressions=500, clicks=40)
    graph.add_edge("digital camera", "hp.com", impressions=400, clicks=35)

    engine = RewriteEngine.from_graph(
        graph, EngineConfig(method="weighted_simrank")
    ).fit()
    for rewrite in engine.rewrite("camera").rewrites:
        print(rewrite.rewrite, rewrite.score)
    print(engine.explain("camera", "digital camera").reason)

Custom similarity methods plug into the registry without touching core::

    from repro import register_method

    @register_method("my_method", backends=("default",))
    def build_my_method(config, backend):
        return MyMethod(config=config)

    engine = RewriteEngine.from_graph(graph, EngineConfig(method="my_method")).fit()

Fitted engines also serve without the score matrix resident:
``engine.export_store(path)`` materializes the rewrite lists into a
single-file SQLite serving store and ``RewriteEngine.from_store(path)``
revives a serving-only engine answering byte-equal rewrites via indexed
point lookups (see :mod:`repro.store`);
:func:`~repro.api.sources.resolve_engine_source` is the one front door
over store / snapshot / fresh-fit engine construction.

The pre-registry entry point ``create_method(name, config, backend)`` still
works as a deprecation shim (removal planned for version 2.0); see
CHANGES.md for the migration note.
"""

from repro.api import (
    EngineConfig,
    EngineSnapshotStore,
    ResolvedEngine,
    RewriteEngine,
    available_methods,
    register_method,
    resolve_engine_source,
)
from repro.core import (
    BipartiteSimrank,
    EvidenceSimrank,
    MatrixSimrank,
    PearsonSimilarity,
    QueryRewriter,
    ShardedSimrank,
    SimilarityScores,
    ArraySimilarityScores,
    SimrankConfig,
    WeightedSimrank,
    create_method,
)
from repro.eval import EditorialJudge, ExperimentHarness
from repro.serving import EngineHolder, RewriteServer, ServerConfig
from repro.graph import (
    ClickGraph,
    ClickGraphDelta,
    ClickGraphStore,
    DeltaBuilder,
    EdgeStats,
    WeightSource,
)
from repro.store import (
    InMemoryServingStore,
    ServingOnlyEngineError,
    ServingStore,
    SqliteServingStore,
    StoreError,
)
from repro.synth import generate_workload, yahoo_like_workload

__version__ = "1.2.0"

__all__ = [
    "EngineConfig",
    "EngineSnapshotStore",
    "ResolvedEngine",
    "RewriteEngine",
    "available_methods",
    "register_method",
    "resolve_engine_source",
    "InMemoryServingStore",
    "ServingOnlyEngineError",
    "ServingStore",
    "SqliteServingStore",
    "StoreError",
    "BipartiteSimrank",
    "EvidenceSimrank",
    "MatrixSimrank",
    "PearsonSimilarity",
    "QueryRewriter",
    "ShardedSimrank",
    "SimilarityScores",
    "ArraySimilarityScores",
    "SimrankConfig",
    "WeightedSimrank",
    "create_method",
    "EditorialJudge",
    "ExperimentHarness",
    "EngineHolder",
    "RewriteServer",
    "ServerConfig",
    "ClickGraph",
    "ClickGraphDelta",
    "ClickGraphStore",
    "DeltaBuilder",
    "EdgeStats",
    "WeightSource",
    "generate_workload",
    "yahoo_like_workload",
    "__version__",
]
