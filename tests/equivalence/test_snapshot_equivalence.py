"""Snapshot loading must be serving-equivalent for every backend name.

The persistence layer's contract: for each SimRank backend (and each retired
backend name, which resolves to ``sharded``) and each evidence mode,
``RewriteEngine.load(path)`` serves *identical* rewrite lists -- same
rewrites, same ranks, bit-identical scores -- to the freshly fitted engine
it was saved from, without refitting.
"""

from __future__ import annotations

import pytest

from backend_matrix import BACKEND_NAMES, CONFIGS, MODES, SCENARIOS, engine_config

from repro.api.engine import RewriteEngine

#: One multi-component scenario exercises sharding, stitching and isolated
#: nodes in a single graph; the full scenario matrix already runs in
#: test_backend_equivalence.py.
SCENARIO = "uneven_components_with_isolates"


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("method_name", MODES)
def test_loaded_engine_serves_identical_rewrites(method_name, backend, tmp_path):
    graph = SCENARIOS[SCENARIO]()
    engine = RewriteEngine.from_graph(
        graph,
        engine_config(backend, method=method_name, similarity=CONFIGS["floored"]),
        bid_terms={str(query) for query in graph.queries()},
    ).fit()
    loaded = RewriteEngine.load(engine.save(tmp_path / f"{method_name}-{backend}"))

    assert loaded.is_fitted
    queries = sorted(graph.queries(), key=repr)
    assert loaded.serving_profile(queries) == engine.serving_profile(queries)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_loaded_scores_match_exactly(backend, tmp_path):
    """Point similarity lookups survive the round trip bit-identically."""
    graph = SCENARIOS[SCENARIO]()
    engine = RewriteEngine.from_graph(
        graph, engine_config(backend, method="weighted_simrank")
    ).fit()
    loaded = RewriteEngine.load(engine.save(tmp_path / backend))
    assert loaded.method.similarities().max_difference(
        engine.method.similarities()
    ) == 0.0
