"""SQLite serving stores must be serving-equivalent for every backend name.

The store layer's contract: for each SimRank backend (and each retired
backend name, which resolves to ``sharded``) and each evidence mode, ``RewriteEngine.from_store(path)``
serves *byte-identical* rewrite lists -- same rewrites, same ranks,
bit-identical float64 scores -- to the fitted engine the store was
exported from.  The rows must come back from SQLite exactly as the engine
computed them, and the equivalence must hold under a bounded LRU serving
cache and after a full ``precompute()``.
"""

from __future__ import annotations

import pytest

from backend_matrix import BACKEND_NAMES, CONFIGS, MODES, SCENARIOS, engine_config

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.registry import SIMRANK_BACKENDS
from repro.store import InMemoryServingStore

#: One multi-component scenario exercises sharding, stitching and isolated
#: nodes in a single graph; the full scenario matrix already runs in
#: test_backend_equivalence.py.
SCENARIO = "uneven_components_with_isolates"


def fitted_engine(method_name, backend):
    graph = SCENARIOS[SCENARIO]()
    return RewriteEngine.from_graph(
        graph,
        engine_config(backend, method=method_name, similarity=CONFIGS["floored"]),
        bid_terms={str(query) for query in graph.queries()},
    ).fit()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("method_name", MODES)
def test_sqlite_store_serves_identical_rewrites(method_name, backend, tmp_path):
    engine = fitted_engine(method_name, backend)
    store_path = engine.export_store(tmp_path / f"{method_name}-{backend}.sqlite")
    served = RewriteEngine.from_store(store_path)

    assert served.is_fitted
    queries = engine._serving_universe()
    assert served.serving_profile(queries) == engine.serving_profile(queries)
    # The store's universe is the engine's precompute universe, verbatim.
    assert served.serving_store.queries() == queries


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("method_name", MODES)
def test_memory_store_serves_identical_rewrites(method_name, backend):
    engine = fitted_engine(method_name, backend)
    served = RewriteEngine.from_store(InMemoryServingStore.from_engine(engine))

    queries = engine._serving_universe()
    assert served.serving_profile(queries) == engine.serving_profile(queries)


@pytest.mark.parametrize("backend", SIMRANK_BACKENDS)
@pytest.mark.parametrize("method_name", MODES)
def test_every_scenario_serves_byte_equal_from_every_source(
    method_name, backend, scenario_graph, simrank_config, tmp_path
):
    """Snapshot, SQLite and in-memory sources agree on every scenario graph.

    Ties are where the sources could drift apart (each re-implements the
    ``(-score, repr(node))`` ordering), and the scenario matrix is where
    the ties are: symmetric fragments, isolates and both configurations.
    """
    engine = RewriteEngine.from_graph(
        scenario_graph,
        EngineConfig(method=method_name, backend=backend, similarity=simrank_config),
        bid_terms={str(query) for query in scenario_graph.queries()},
    ).fit()
    queries = engine._serving_universe()
    expected = engine.serving_profile(queries)

    snapshot = RewriteEngine.load(engine.save(tmp_path / "snapshot"))
    memory = RewriteEngine.from_store(InMemoryServingStore.from_engine(engine))
    sqlite = RewriteEngine.from_store(engine.export_store(tmp_path / "rewrites.sqlite"))
    try:
        assert snapshot.serving_profile(queries) == expected
        assert memory.serving_profile(queries) == expected
        assert sqlite.serving_profile(queries) == expected
    finally:
        sqlite.serving_store.close()


def test_store_equivalence_survives_bounded_lru_cache(tmp_path):
    """Cache churn recomputes through the store; results must not drift."""
    graph = SCENARIOS[SCENARIO]()
    engine = RewriteEngine.from_graph(
        graph,
        EngineConfig(
            method="weighted_simrank",
            backend="sharded",
            similarity=CONFIGS["floored"],
            cache_size=3,
        ),
        bid_terms={str(query) for query in graph.queries()},
    ).fit()
    store_path = engine.export_store(tmp_path / "bounded.sqlite")
    # from_store rebuilds the recorded config, LRU bound included.
    served = RewriteEngine.from_store(store_path)
    assert served.config.cache_size == 3

    queries = engine._serving_universe()
    expected = engine.serving_profile(queries)
    # Two full passes force every entry through at least one eviction and
    # one store re-read on the second sighting.
    assert served.serving_profile(queries) == expected
    assert served.serving_profile(queries) == expected
    info = served.cache_info()
    assert info.capacity == 3
    assert info.evictions > 0


def test_store_equivalence_after_precompute(tmp_path):
    """A full precompute() warms the store universe; serving stays equal."""
    engine = fitted_engine("weighted_simrank", "sharded")
    store_path = engine.export_store(tmp_path / "precomputed.sqlite")
    served = RewriteEngine.from_store(store_path)

    queries = engine._serving_universe()
    warmed = served.precompute()
    assert warmed == len(queries)
    lookups_after_warm = served.serving_store.lookups
    assert served.serving_profile(queries) == engine.serving_profile(queries)
    # Every profile row came from the warmed cache, not new store reads.
    assert served.serving_store.lookups == lookups_after_warm
