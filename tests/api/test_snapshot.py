"""Engine snapshots: save/load round trips, the named store, failure modes."""

import gc
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.snapshot import (
    MANIFEST_FILENAME,
    SCORES_FILENAME,
    SNAPSHOT_FORMAT_VERSION,
    EngineSnapshotStore,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)
from repro.core.config import SimrankConfig
from repro.graph.click_graph import ClickGraph


class TestRoundTrip:
    @pytest.fixture
    def fitted(self, small_weighted_graph):
        config = EngineConfig(
            method="weighted_simrank",
            similarity=SimrankConfig(iterations=5, zero_evidence_floor=0.1),
            max_rewrites=3,
        )
        return RewriteEngine.from_graph(
            small_weighted_graph, config, bid_terms={"digital camera", "pc", "laptop"}
        ).fit()

    def test_served_rewrites_are_identical_without_refitting(
        self, fitted, small_weighted_graph, tmp_path
    ):
        path = fitted.save(tmp_path / "snap")
        loaded = RewriteEngine.load(path)
        assert loaded.is_fitted
        assert loaded.graph is None  # no graph persisted, no fixpoint run
        queries = sorted(small_weighted_graph.queries())
        assert loaded.serving_profile(queries) == fitted.serving_profile(queries)

    def test_config_and_bid_terms_survive(self, fitted, tmp_path):
        loaded = RewriteEngine.load(fitted.save(tmp_path / "snap"))
        assert loaded.config == fitted.config
        assert loaded.bid_terms == fitted.bid_terms

    def test_fit_metadata_survives(self, fitted, tmp_path):
        loaded = RewriteEngine.load(fitted.save(tmp_path / "snap"))
        assert loaded.method.iterations_run == fitted.method.iterations_run

    def test_fit_metadata_survives_for_reference_methods(
        self, small_weighted_graph, tmp_path
    ):
        """Reference methods record iterations on their result objects; the
        manifest must still carry them (and a re-save must not drop them)."""
        engine = RewriteEngine.from_graph(
            small_weighted_graph,
            EngineConfig(method="weighted_simrank", backend="reference"),
        ).fit()
        expected = engine.method.result.iterations_run
        path = engine.save(tmp_path / "snap")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        assert manifest["fit"]["iterations_run"] == expected
        loaded = RewriteEngine.load(path)
        resaved = loaded.save(tmp_path / "snap2")
        manifest = json.loads((resaved / MANIFEST_FILENAME).read_text())
        assert manifest["fit"]["iterations_run"] == expected

    def test_refit_after_load_supersedes_snapshot_metadata(
        self, small_weighted_graph, tmp_path
    ):
        """Regression: a loaded-then-refitted engine must persist the *new*
        fit's iteration count, not the stale one its snapshot recorded."""
        engine = RewriteEngine.from_graph(
            small_weighted_graph,
            EngineConfig(
                method="weighted_simrank",
                backend="reference",
                similarity=SimrankConfig(iterations=2),
            ),
        ).fit()
        path = engine.save(tmp_path / "snap")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["fit"]["iterations_run"] = 99  # distinguishable marker
        manifest_path.write_text(json.dumps(manifest))
        # Un-refitted, a re-save forwards the snapshot's recorded value...
        loaded = RewriteEngine.load(path)
        resaved = json.loads(
            (loaded.save(tmp_path / "snap2") / MANIFEST_FILENAME).read_text()
        )
        assert resaved["fit"]["iterations_run"] == 99
        # ...but a refit supersedes it with the fresh fit's real count.
        loaded = RewriteEngine.load(path)
        loaded.fit(small_weighted_graph)
        refit_manifest = json.loads(
            (loaded.save(tmp_path / "snap3") / MANIFEST_FILENAME).read_text()
        )
        assert refit_manifest["fit"]["iterations_run"] == 2

    def test_resave_after_out_of_band_refit_drops_stale_carried_state(
        self, small_weighted_graph, tmp_path
    ):
        """A loaded engine whose method is refit out of band must not pair
        the new scores with the old snapshot's universe/fingerprint."""
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        loaded = RewriteEngine.load(engine.save(tmp_path / "snap"))
        other_graph = ClickGraph()
        other_graph.add_edge("tv", "bestbuy.com", impressions=10, clicks=2)
        other_graph.add_edge("hdtv", "bestbuy.com", impressions=9, clicks=2)
        loaded.method.fit(other_graph)  # out-of-band: engine.graph stays None
        resaved = loaded.save(tmp_path / "snap2")
        manifest = json.loads((resaved / MANIFEST_FILENAME).read_text())
        # Carried state described the old graph; it must be dropped, not lied.
        assert manifest["query_universe"] is None
        assert manifest["fit"]["graph"] is None
        # The reloaded engine serves (and warms) the new fit's universe.
        reloaded = RewriteEngine.load(resaved)
        assert reloaded.precompute() == 2  # tv, hdtv -- from the score store
        assert [r.rewrite for r in reloaded.rewrite("tv").rewrites] == ["hdtv"]

    def test_restored_trace_accessors_fail_loudly(self, small_weighted_graph, tmp_path):
        engine = RewriteEngine.from_graph(
            small_weighted_graph,
            EngineConfig(method="evidence_simrank", backend="reference"),
        ).fit()
        loaded = RewriteEngine.load(engine.save(tmp_path / "snap"))
        with pytest.raises(RuntimeError, match="not part of an engine snapshot"):
            loaded.method.query_history
        with pytest.raises(RuntimeError, match="not part of an engine snapshot"):
            loaded.method.simrank_result

    def test_loaded_cache_starts_fresh_and_precompute_warms_the_store(
        self, fitted, tmp_path
    ):
        warmed_by_fitted = fitted.precompute()
        loaded = RewriteEngine.load(fitted.save(tmp_path / "snap"))
        info = loaded.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)
        # No graph attached: precompute warms the snapshot's recorded query
        # universe -- the same count the fitted engine warmed.
        assert loaded.precompute() == warmed_by_fitted

    def test_precompute_after_load_covers_pairless_queries(self, tmp_path):
        """The reference backend's dict store drops isolated queries, but the
        snapshot's query universe still warms them -- exactly like a fitted
        engine's precompute (which walks the graph) would."""
        graph = ClickGraph()
        graph.add_edge("camera", "hp.com", impressions=10, clicks=2)
        graph.add_edge("digital camera", "hp.com", impressions=9, clicks=2)
        graph.add_query("lonely")
        engine = RewriteEngine.from_graph(
            graph, EngineConfig(method="simrank", backend="reference")
        ).fit()
        loaded = RewriteEngine.load(engine.save(tmp_path / "snap"))
        assert loaded.precompute() == 3  # camera, digital camera, lonely
        assert not loaded.rewrite("lonely").covered
        # A re-save of the loaded engine forwards the universe unchanged.
        reloaded = RewriteEngine.load(loaded.save(tmp_path / "snap2"))
        assert reloaded.precompute() == 3

    def test_missing_bid_terms_round_trip_as_none(self, small_weighted_graph, tmp_path):
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        loaded = RewriteEngine.load(engine.save(tmp_path / "snap"))
        assert loaded.bid_terms is None

    def test_int_node_ids_round_trip(self, tmp_path):
        graph = ClickGraph()
        graph.add_edge(1, 100, impressions=500, clicks=40)
        graph.add_edge(2, 100, impressions=400, clicks=35)
        engine = RewriteEngine.from_graph(graph, EngineConfig(method="simrank")).fit()
        loaded = RewriteEngine.load(engine.save(tmp_path / "snap"))
        # The identifier comes back as int, not "1" -- rewrite(1) still hits.
        assert [r.rewrite for r in loaded.rewrite(1).rewrites] == [2]

    def test_manifest_records_format_and_fit(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "snap")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["fit"]["method"] == "weighted_simrank"
        assert manifest["fit"]["iterations_run"] == fitted.method.iterations_run
        assert manifest["fit"]["num_queries"] == len(manifest["query_index"])
        assert (path / SCORES_FILENAME).is_file()

    def test_save_overwrites_previous_snapshot(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "snap")
        again = fitted.save(tmp_path / "snap")
        assert again == path
        assert RewriteEngine.load(path).is_fitted


class TestFailureModes:
    def test_unfitted_engine_refuses_to_save(self, tmp_path):
        engine = RewriteEngine(EngineConfig(method="simrank"))
        with pytest.raises(SnapshotError):
            write_snapshot(engine, tmp_path / "snap")

    def test_loading_a_missing_snapshot_fails_loudly(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(tmp_path / "nope")

    def test_future_format_version_is_rejected(self, small_weighted_graph, tmp_path):
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_corrupt_manifest_is_rejected(self, small_weighted_graph, tmp_path):
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        (path / MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_corrupt_score_matrix_is_rejected(self, small_weighted_graph, tmp_path):
        """A truncated/damaged npz raises SnapshotError, not a raw zip error."""
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        (path / SCORES_FILENAME).write_bytes(b"not a real npz payload")
        with pytest.raises(SnapshotError, match="corrupt snapshot score matrix"):
            read_snapshot(path)

    def test_torn_score_matrix_leaves_no_file_open(self, small_weighted_graph, tmp_path):
        """The failed load closes the .npz it opened (no ResourceWarning)."""
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        scores = path / SCORES_FILENAME
        scores.write_bytes(scores.read_bytes()[: scores.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SnapshotError, match="corrupt snapshot score matrix"):
                read_snapshot(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_byte_corrupt_manifest_is_rejected(self, small_weighted_graph, tmp_path):
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        (path / MANIFEST_FILENAME).write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(SnapshotError, match="corrupt snapshot manifest"):
            read_snapshot(path)

    def test_load_respects_engine_subclasses(self, small_weighted_graph, tmp_path):
        class InstrumentedEngine(RewriteEngine):
            pass

        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        assert isinstance(InstrumentedEngine.load(path), InstrumentedEngine)

    def test_wrong_typed_bid_terms_in_manifest_is_rejected(
        self, small_weighted_graph, tmp_path
    ):
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["bid_terms"] = 5
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="invalid bid_terms"):
            read_snapshot(path)

    @pytest.mark.parametrize("payload", ["null", "[]", '"a string"'])
    def test_non_object_manifest_is_rejected(
        self, small_weighted_graph, tmp_path, payload
    ):
        """Valid JSON that is not an object raises SnapshotError, not
        AttributeError."""
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        (path / MANIFEST_FILENAME).write_text(payload)
        with pytest.raises(SnapshotError, match="expected a JSON object"):
            read_snapshot(path)

    @pytest.mark.parametrize("missing_key", ["engine_config", "query_index"])
    def test_manifest_missing_required_keys_is_rejected(
        self, small_weighted_graph, tmp_path, missing_key
    ):
        """Valid JSON lacking required keys raises SnapshotError, not KeyError."""
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        del manifest[missing_key]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="missing key"):
            read_snapshot(path)

    def test_interrupted_overwrite_keeps_the_old_snapshot_intact(
        self, small_weighted_graph, tmp_path, monkeypatch
    ):
        """Regression: saves are staged and swapped in atomically.

        A crash mid-overwrite used to be able to pair the old manifest with
        the new score matrix -- silently wrong serving when the node counts
        match.  A failed save must leave the previous snapshot fully intact
        and no staging debris behind.
        """
        import repro.api.snapshot as snapshot_module

        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        path = engine.save(tmp_path / "snap")
        before = RewriteEngine.load(path).serving_profile(
            sorted(small_weighted_graph.queries())
        )

        original_write_blocks = snapshot_module._write_blocks

        def poisoned_write_blocks(path, array):
            original_write_blocks(path, array)  # scores written, then the crash
            raise RuntimeError("simulated crash before the manifest write")

        monkeypatch.setattr(snapshot_module, "_write_blocks", poisoned_write_blocks)
        with pytest.raises(RuntimeError):
            engine.save(tmp_path / "snap")
        monkeypatch.undo()

        after = RewriteEngine.load(path).serving_profile(
            sorted(small_weighted_graph.queries())
        )
        assert after == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["snap"]

    @pytest.mark.parametrize("backend", ["reference", "sharded"])
    def test_unrestored_ad_scores_fail_loudly_not_with_attribute_error(
        self, small_weighted_graph, tmp_path, backend
    ):
        """Snapshots persist query-side scores only; the ad-side accessors of
        a restored engine must raise a clear RuntimeError on every backend --
        neither an AttributeError on None nor a silently fabricated 0.0."""
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank", backend=backend)
        ).fit()
        loaded = RewriteEngine.load(engine.save(tmp_path / backend))
        with pytest.raises(RuntimeError, match="not part of an engine snapshot"):
            loaded.method.ad_similarity("hp.com", "dell.com")
        if backend == "sharded":
            with pytest.raises(RuntimeError, match="not part of an engine snapshot"):
                loaded.method.num_shards

    def test_non_json_node_ids_fail_at_save_time(self, tmp_path):
        graph = ClickGraph()
        graph.add_edge(("a", "tuple"), "ad", impressions=10, clicks=2)
        graph.add_edge(("b", "tuple"), "ad", impressions=10, clicks=2)
        engine = RewriteEngine.from_graph(graph, EngineConfig(method="simrank")).fit()
        with pytest.raises(SnapshotError):
            engine.save(tmp_path / "snap")

    def test_non_json_node_ids_in_a_restored_store_fail_at_save_time(
        self, small_weighted_graph, tmp_path
    ):
        """An out-of-band restore() can put nodes in the index that the
        bound graph never had -- those must be validated too."""
        bad_graph = ClickGraph()
        bad_graph.add_edge(("a", "tuple"), "ad", impressions=10, clicks=2)
        bad_graph.add_edge(("b", "tuple"), "ad", impressions=10, clicks=2)
        bad_scores = (
            RewriteEngine.from_graph(bad_graph, EngineConfig(method="simrank"))
            .fit()
            .method.similarities()
        )
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        engine.method.restore(bad_scores, graph=small_weighted_graph)
        with pytest.raises(SnapshotError):
            engine.save(tmp_path / "snap")


V1_FIXTURE = Path(__file__).parent / "fixtures" / "small_weighted_v1"


class TestFormatVersion2:
    """One dense block per component, sized by the manifest's block_sizes."""

    @pytest.fixture
    def saved(self, small_weighted_graph, tmp_path):
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        return engine, engine.save(tmp_path / "snap")

    def test_blocks_are_raveled_into_one_array(self, saved):
        engine, path = saved
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        blocks = engine.method.similarities().blocks
        assert len(blocks) == 2
        assert manifest["fit"]["block_sizes"] == [len(nodes) for _, nodes in blocks]
        assert manifest["query_index"] == [node for _, nodes in blocks for node in nodes]
        assert SCORES_FILENAME == "query_scores.npy"
        assert np.array_equal(
            np.load(path / SCORES_FILENAME),
            np.concatenate([matrix.ravel() for matrix, _ in blocks]),
        )
        loaded = RewriteEngine.load(path).method.similarities()
        for (mine, nodes), (theirs, their_nodes) in zip(loaded.blocks, blocks):
            assert nodes == their_nodes
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize(
        "block_sizes",
        [
            "resplit",   # the same nodes cut into blocks of other shapes
            "missing",   # no sizes at all
            "short",     # sizes do not cover the query index
            "long",      # sizes cover more than the query index
            "invalid",   # not a list of sizes
        ],
    )
    def test_block_sizes_mismatch_is_rejected(self, saved, block_sizes):
        _, path = saved
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        sizes = manifest["fit"]["block_sizes"]
        assert sizes == [4, 2]
        manifest["fit"]["block_sizes"] = {
            "resplit": [3, 3],
            "short": [4],
            "long": [4, 2, 1],
            "invalid": "4,2",
        }.get(block_sizes)
        if block_sizes == "missing":
            del manifest["fit"]["block_sizes"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_truncated_scores_file_is_rejected(self, saved):
        _, path = saved
        scores = path / SCORES_FILENAME
        data = scores.read_bytes()
        for cut in (len(data) - 1, len(data) // 3, 10):
            scores.write_bytes(data[:cut])
            with pytest.raises(SnapshotError, match="corrupt snapshot score matrix"):
                read_snapshot(path)


class TestFormatVersion1:
    """Snapshots written by the CSR-based format still load, with numpy alone.

    The fixture was written by the version-1 writer (``scipy.sparse
    .save_npz``) from a default-config engine fitted on
    ``small_weighted_graph`` with bid terms camera, flower, laptop and pc.
    """

    @pytest.fixture
    def fresh(self, small_weighted_graph):
        return RewriteEngine.from_graph(
            small_weighted_graph,
            EngineConfig(),
            bid_terms={"camera", "flower", "laptop", "pc"},
        ).fit()

    def test_fixture_is_version_1(self):
        manifest = json.loads((V1_FIXTURE / MANIFEST_FILENAME).read_text())
        assert manifest["format_version"] == 1
        assert "block_sizes" not in manifest["fit"]

    def test_loads_and_serves_byte_equal_to_a_fresh_fit(self, fresh, small_weighted_graph):
        loaded = RewriteEngine.load(V1_FIXTURE)
        assert loaded.config == fresh.config
        assert loaded.bid_terms == fresh.bid_terms
        assert loaded.method.similarities().max_difference(fresh.method.similarities()) == 0.0
        queries = sorted(small_weighted_graph.queries())
        assert json.dumps(loaded.serving_profile(queries)) == json.dumps(
            fresh.serving_profile(queries)
        )

    def test_split_into_blocks_by_component(self):
        scores = RewriteEngine.load(V1_FIXTURE).method.similarities()
        assert [nodes for _, nodes in scores.blocks] == [
            ["camera", "digital camera", "laptop", "pc"],
            ["flower", "orchids"],
        ]

    def test_resave_writes_version_2(self, small_weighted_graph, tmp_path):
        loaded = RewriteEngine.load(V1_FIXTURE)
        path = loaded.save(tmp_path / "resaved")
        manifest = json.loads((path / MANIFEST_FILENAME).read_text())
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION == 2
        assert manifest["fit"]["block_sizes"] == [4, 2]
        queries = sorted(small_weighted_graph.queries())
        assert RewriteEngine.load(path).serving_profile(queries) == loaded.serving_profile(
            queries
        )

    def test_truncated_version_1_matrix_is_rejected(self, tmp_path):
        path = tmp_path / "v1"
        shutil.copytree(V1_FIXTURE, path)
        scores = path / "query_scores.npz"  # the version-1 file name
        scores.write_bytes(scores.read_bytes()[:-100])
        with pytest.raises(SnapshotError, match="corrupt snapshot score matrix"):
            read_snapshot(path)

    def test_shape_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "v1"
        shutil.copytree(V1_FIXTURE, path)
        manifest_path = path / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["query_index"] = manifest["query_index"][:-1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="does not match"):
            read_snapshot(path)


class TestEngineSnapshotStore:
    @pytest.fixture
    def engine(self, small_weighted_graph):
        return RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()

    def test_named_save_load_list_delete(self, engine, tmp_path):
        store = EngineSnapshotStore(tmp_path / "engines")
        assert store.list_snapshots() == []
        store.save("two-week", engine)
        assert "two-week" in store
        assert store.list_snapshots() == ["two-week"]
        loaded = store.load("two-week")
        assert [r.rewrite for r in loaded.rewrite("camera").rewrites] == [
            r.rewrite for r in engine.rewrite("camera").rewrites
        ]
        store.delete("two-week")
        assert store.list_snapshots() == []
        store.delete("two-week")  # deleting again is a no-op

    def test_unknown_name_raises_key_error(self, tmp_path):
        with pytest.raises(KeyError):
            EngineSnapshotStore(tmp_path).load("nope")

    @pytest.mark.parametrize("name", ["", ".", "..", ".hidden", "a/b", "a\\b"])
    def test_invalid_names_are_rejected(self, name, tmp_path):
        store = EngineSnapshotStore(tmp_path)
        with pytest.raises(ValueError):
            store.path(name)

    @pytest.mark.parametrize("name", ["", ".hidden", "a/b"])
    def test_membership_and_delete_tolerate_invalid_names(self, name, tmp_path):
        """Probing contracts: `in` answers False, delete stays a no-op."""
        store = EngineSnapshotStore(tmp_path)
        assert name not in store
        store.delete(name)  # must not raise

    def test_crashed_staging_directories_are_not_listed(self, engine, tmp_path):
        """A save killed before its atomic swap must not surface as a snapshot."""
        import os
        import subprocess

        store = EngineSnapshotStore(tmp_path)
        store.save("real", engine)
        # Simulate the debris of a crashed save: a fully written staging dir
        # whose pid belongs to a process that has already exited.
        child = subprocess.Popen(["python", "-c", "pass"])
        child.wait()
        debris = tmp_path / f".real.staging-{child.pid}"
        debris.mkdir()
        for entry in store.path("real").iterdir():
            (debris / entry.name).write_bytes(entry.read_bytes())
        # Concurrent saves in flight (live pids -- another process, or
        # another thread of this one) must be left alone.
        in_flight = tmp_path / f".real.staging-{os.getppid()}"
        in_flight.mkdir()
        same_process = tmp_path / f".real.staging-{os.getpid()}-424242"
        same_process.mkdir()
        assert store.list_snapshots() == ["real"]
        # The next save of the same name sweeps the orphan -- no disk leak --
        # without touching any live writer's staging directory.
        store.save("real", engine)
        assert not debris.exists()
        assert in_flight.is_dir()
        assert same_process.is_dir()
        assert store.list_snapshots() == ["real"]
