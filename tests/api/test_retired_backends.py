"""Retired backend names and config keys keep old configs, snapshots and stores working.

Earlier releases registered ``matrix``, ``sparse`` and ``auto`` backends and
two ``prune_*`` similarity fields, and wrote a planner ``plan`` into
snapshot manifests.  Every such name now resolves to ``sharded`` with a
:class:`DeprecationWarning`, the retired keys are dropped on load, and the
result serves exactly what a fresh ``sharded`` engine serves.
"""

from __future__ import annotations

import json
import sqlite3
import warnings

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.registry import (
    RETIRED_BACKENDS,
    UnknownBackendError,
    create,
    register_method,
    unregister_method,
)
from repro.api.snapshot import MANIFEST_FILENAME
from repro.core.config import SimrankConfig
from repro.core.simrank_sharded import ShardedSimrank

RETIRED = sorted(RETIRED_BACKENDS)

SIMILARITY = SimrankConfig(iterations=5, zero_evidence_floor=0.1)

#: A planner decision as earlier releases recorded it under ``fit.plan``.
LEGACY_PLAN = {
    "strategy": "sharded",
    "executor": "thread",
    "n_jobs": 1,
    "workers": 1,
    "profile": {
        "num_queries": 3,
        "num_ads": 3,
        "num_edges": 4,
        "density": 0.44,
        "component_sizes": [6],
    },
    "shards": [{"nodes": 6, "edges": 4, "backend": "matrix"}],
    "rationale": "recorded by an earlier release",
}


def legacy_config_dict(backend: str) -> dict:
    """An engine config in the exact ``to_dict()`` shape earlier releases wrote."""
    payload = EngineConfig(method="weighted_simrank", similarity=SIMILARITY).to_dict()
    payload["backend"] = backend
    payload["similarity"]["prune_threshold"] = 0.0
    payload["similarity"]["prune_top_k"] = 0
    return payload


@pytest.fixture
def fresh(small_weighted_graph):
    """The engine every legacy artifact must serve byte-equal to."""
    config = EngineConfig(method="weighted_simrank", backend="sharded", similarity=SIMILARITY)
    return RewriteEngine.from_graph(
        small_weighted_graph, config, bid_terms={"digital camera", "pc", "laptop"}
    ).fit()


class TestAliases:
    @pytest.mark.parametrize("backend", RETIRED)
    def test_create_warns_and_builds_the_sharded_engine(self, backend):
        with pytest.warns(DeprecationWarning, match="retired"):
            method = create("weighted_simrank", backend=backend)
        assert isinstance(method, ShardedSimrank)

    @pytest.mark.parametrize("backend", RETIRED)
    def test_engine_config_warns_and_records_sharded(self, backend):
        with pytest.warns(DeprecationWarning, match="retired"):
            config = EngineConfig(method="simrank", backend=backend)
        assert config.backend == "sharded"
        assert config.to_dict()["backend"] == "sharded"

    def test_a_plugin_backend_of_a_retired_name_is_not_aliased(self):
        @register_method("plugin_matrix", backends=("matrix",))
        def build(config, backend):
            return ShardedSimrank(config=config)

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                config = EngineConfig(method="plugin_matrix", backend="matrix")
                create("plugin_matrix", backend="matrix")
            assert config.backend == "matrix"
        finally:
            unregister_method("plugin_matrix")

    def test_alias_needs_the_replacement_backend(self):
        @register_method("reference_only", backends=("reference",))
        def build(config, backend):
            return ShardedSimrank(config=config)

        try:
            with pytest.raises(UnknownBackendError):
                create("reference_only", backend="matrix")
        finally:
            unregister_method("reference_only")


class TestLegacyArtifacts:
    @pytest.mark.parametrize("backend", RETIRED)
    def test_legacy_config_dict_loads(self, backend):
        with pytest.warns(DeprecationWarning):
            config = EngineConfig.from_dict(legacy_config_dict(backend))
        assert config == EngineConfig(
            method="weighted_simrank", backend="sharded", similarity=SIMILARITY
        )

    @pytest.mark.parametrize("backend", RETIRED)
    def test_legacy_snapshot_serves_like_a_fresh_sharded_engine(
        self, backend, fresh, small_weighted_graph, tmp_path
    ):
        path = fresh.save(tmp_path / "snap")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["engine_config"] = legacy_config_dict(backend)
        manifest["fit"]["plan"] = LEGACY_PLAN
        manifest_path.write_text(json.dumps(manifest))

        with pytest.warns(DeprecationWarning):
            loaded = RewriteEngine.load(path)
        queries = sorted(small_weighted_graph.queries())
        assert loaded.serving_profile(queries) == fresh.serving_profile(queries)

    @pytest.mark.parametrize("backend", RETIRED)
    def test_legacy_sqlite_store_serves_like_a_fresh_sharded_engine(
        self, backend, fresh, small_weighted_graph, tmp_path
    ):
        store_path = fresh.export_store(tmp_path / "rewrites.sqlite")
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'engine_config'",
                (json.dumps(legacy_config_dict(backend)),),
            )
        connection.close()

        with pytest.warns(DeprecationWarning):
            served = RewriteEngine.from_store(store_path)
        try:
            queries = sorted(small_weighted_graph.queries())
            assert served.serving_profile(queries) == fresh.serving_profile(queries)
        finally:
            served.serving_store.close()
