"""ServingStore implementations: format discipline, counters, lifecycle."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core.config import SimrankConfig
from repro.graph.click_graph import ClickGraph
from repro.store import (
    STORE_FORMAT_VERSION,
    InMemoryServingStore,
    SqliteServingStore,
    StoreError,
)
from repro.synth.scenarios import equivalence_scenarios, multi_component_graph

#: The scenario graphs of the store-equivalence sweep.
SCENARIOS = equivalence_scenarios()


def build_engine(graph, **config_kwargs):
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=7, tolerance=1e-8),
        **config_kwargs,
    )
    return RewriteEngine.from_graph(
        graph, config, bid_terms={str(q) for q in graph.queries()}
    ).fit()


@pytest.fixture
def engine(small_weighted_graph):
    return build_engine(small_weighted_graph)


@pytest.fixture
def store_path(engine, tmp_path):
    return engine.export_store(tmp_path / "rewrites.sqlite")


class TestSqliteStore:
    def test_lookup_matches_live_serving(self, engine, store_path):
        with SqliteServingStore(store_path) as store:
            for query in engine._serving_universe():
                assert (
                    store.rewrites(query).as_tuples()
                    == engine.rewrite(query).as_tuples()
                )

    def test_top_k_truncation(self, engine, store_path):
        with SqliteServingStore(store_path) as store:
            full = store.rewrites("camera")
            assert len(full.rewrites) > 1
            top = store.rewrites("camera", k=1)
            assert top.rewrites == full.rewrites[:1]

    def test_unknown_query_serves_empty_list(self, store_path):
        with SqliteServingStore(store_path) as store:
            assert store.rewrites("definitely-unknown").rewrites == []
            # Identifier types the store cannot hold are unknown queries,
            # not errors -- matching the in-memory serving path.
            assert store.rewrites(("a", "tuple")).rewrites == []
            assert store.empty_lookups == 2

    def test_universe_and_contains(self, engine, store_path):
        with SqliteServingStore(store_path) as store:
            assert store.queries() == engine._serving_universe()
            assert "camera" in store
            assert "hp.com" not in store  # ads are not queries
            assert ("a", "tuple") not in store

    def test_lookup_counters(self, store_path):
        with SqliteServingStore(store_path) as store:
            assert store.lookups == 0
            store.rewrites("camera")
            store.rewrites("nope")
            assert store.lookups == 2
            assert store.empty_lookups == 1

    def test_describe_is_json_ready(self, store_path):
        with SqliteServingStore(store_path) as store:
            facts = store.describe()
        assert facts["kind"] == "sqlite"
        assert facts["path"] == str(store_path)
        assert facts["version"] == 1
        assert facts["lookups"] == 0

    def test_closed_store_refuses_lookups(self, store_path):
        store = SqliteServingStore(store_path)
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            store.rewrites("camera")
        with pytest.raises(StoreError, match="closed"):
            store.queries()

    def test_engine_config_round_trips(self, engine, store_path):
        with SqliteServingStore(store_path) as store:
            assert store.engine_config() == engine.config.to_dict()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StoreError, match="not a file"):
            SqliteServingStore(tmp_path / "nope.sqlite")

    def test_non_database_file_raises(self, tmp_path):
        junk = tmp_path / "junk.sqlite"
        junk.write_bytes(b"this is not a sqlite database, not even close!")
        with pytest.raises(StoreError, match="not a readable serving store"):
            SqliteServingStore(junk)

    def test_foreign_format_version_rejected(self, store_path):
        connection = sqlite3.connect(str(store_path))
        connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'format_version'",
            (str(STORE_FORMAT_VERSION + 1),),
        )
        connection.commit()
        connection.close()
        with pytest.raises(StoreError, match="format version"):
            SqliteServingStore(store_path)

    def test_store_file_holds_no_scratch_tables(self, store_path):
        connection = sqlite3.connect(str(store_path))
        tables = {
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        connection.close()
        assert tables == {"meta", "queries", "rewrites"}


class TestExport:
    def test_unfitted_engine_cannot_export(self, tmp_path):
        engine = RewriteEngine(EngineConfig())
        with pytest.raises(StoreError, match="unfitted"):
            engine.export_store(tmp_path / "never.sqlite")
        assert not (tmp_path / "never.sqlite").exists()

    def test_unencodable_node_ids_fail_loudly(self, tmp_path):
        graph = ClickGraph()
        graph.add_edge(("tuple", "query"), "ad", impressions=10, clicks=5)
        engine = RewriteEngine.from_graph(graph, EngineConfig()).fit()
        with pytest.raises(StoreError, match="round-trip"):
            engine.export_store(tmp_path / "never.sqlite")
        # The staged write was discarded: no store file, no staging debris.
        assert list(tmp_path.iterdir()) == []

    def test_export_overwrites_previous_store(self, engine, tmp_path):
        target = tmp_path / "rewrites.sqlite"
        engine.export_store(target)
        first = SqliteServingStore(target)
        first_profile = [first.rewrites(q).as_tuples() for q in first.queries()]
        first.close()
        engine.export_store(target)
        second = SqliteServingStore(target)
        assert [
            second.rewrites(q).as_tuples() for q in second.queries()
        ] == first_profile
        second.close()

    def test_snapshot_store_materializes_by_name(self, engine, tmp_path):
        from repro.api.snapshot import EngineSnapshotStore

        snapshots = EngineSnapshotStore(tmp_path / "engines")
        snapshots.save("weighted", engine)
        store_path = snapshots.materialize("weighted", tmp_path / "weighted.sqlite")
        served = RewriteEngine.from_store(store_path)
        queries = engine._serving_universe()
        assert served.serving_profile(queries) == engine.serving_profile(queries)
        with pytest.raises(KeyError):
            snapshots.materialize("unknown", tmp_path / "nope.sqlite")


    def test_score_index_queries_outside_the_universe_are_exported(
        self, small_weighted_graph, tmp_path
    ):
        """An out-of-band restore() can index queries the bound graph lacks:
        the store answers them, but they stay out of the query universe."""
        wider = small_weighted_graph.copy()
        wider.add_edge("camera lens", "hp.com", impressions=300, clicks=30)
        engine = build_engine(small_weighted_graph)
        engine.method.restore(
            build_engine(wider).method.similarities(), graph=small_weighted_graph
        )
        expected = engine._rewriter.compute_rewrites("camera lens").as_tuples()
        assert expected

        with SqliteServingStore(engine.export_store(tmp_path / "wider.sqlite")) as store:
            assert store.rewrites("camera lens").as_tuples() == expected
            assert "camera lens" not in store
            assert store.queries() == engine._serving_universe()

    def test_exported_file_is_compact(self, tmp_path):
        graph = multi_component_graph(
            num_components=10, queries_per_component=30, ads_per_component=20,
            extra_edges=30, seed=41,
        )
        path = build_engine(graph).export_store(tmp_path / "compact.sqlite")
        connection = sqlite3.connect(str(path))
        try:
            assert connection.execute("PRAGMA freelist_count").fetchone() == (0,)
            (pages,) = connection.execute("PRAGMA page_count").fetchone()
            connection.execute("VACUUM")
            assert connection.execute("PRAGMA page_count").fetchone() == (pages,)
        finally:
            connection.close()

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_rows_are_the_engines_own_rewrite_lists(self, scenario, tmp_path):
        engine = build_engine(SCENARIOS[scenario]())
        store_path = engine.export_store(tmp_path / "rewrites.sqlite")
        connection = sqlite3.connect(str(store_path))
        rows = connection.execute(
            "SELECT query, rank, rewrite, score FROM rewrites"
        ).fetchall()
        connection.close()
        exported = {
            (json.loads(query), rank, json.loads(rewrite), score)
            for query, rank, rewrite, score in rows
        }
        assert len(exported) == len(rows)
        assert exported == {
            (query, rewrite.rank, rewrite.rewrite, rewrite.score)
            for query in engine._serving_universe()
            for rewrite in engine._rewriter.compute_rewrites(query).rewrites
        }


class TestInMemoryStore:
    def test_from_engine_matches_live_serving(self, engine):
        store = InMemoryServingStore.from_engine(engine)
        assert store.kind == "memory"
        for query in engine._serving_universe():
            assert (
                store.rewrites(query).as_tuples()
                == engine.rewrite(query).as_tuples()
            )

    def test_unfitted_engine_rejected(self):
        with pytest.raises(StoreError, match="unfitted"):
            InMemoryServingStore.from_engine(RewriteEngine(EngineConfig()))

    def test_top_k_and_counters(self, engine):
        store = InMemoryServingStore.from_engine(engine)
        full = store.rewrites("camera")
        assert store.rewrites("camera", k=1).rewrites == full.rewrites[:1]
        assert store.lookups == 2

    def test_universe_contains_and_close(self, engine):
        store = InMemoryServingStore.from_engine(engine)
        assert store.queries() == engine._serving_universe()
        assert "camera" in store
        assert ["unhashable"] not in store
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.rewrites("camera")
