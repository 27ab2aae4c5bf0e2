"""Offline -> online persistence: snapshots of fitted rewrite engines.

The paper's deployment story (Section 9.3) computes rewrites offline and
serves them online, but a fitted engine used to live only in process memory:
every restart paid the full SimRank fixpoint again.  A *snapshot* persists
everything serving needs -- the similarity score store, the
:class:`~repro.api.config.EngineConfig`, the bid terms and fit metadata --
so :func:`read_snapshot` (or :meth:`RewriteEngine.load`) revives an engine
that serves identical rewrite lists without refitting.

Snapshot layout (one directory)::

    <path>/
        manifest.json      format version, engine config, bid terms,
                           query index, fit metadata (iterations_run,
                           block_sizes, ...)
        query_scores.npy   the dense symmetric score blocks, one per
                           component, raveled in block order into one
                           array (numpy.save)

The query index is the blocks' nodes in block order, and
``fit.block_sizes`` gives each block's node count.  One plain ``.npy``
array, not an ``.npz`` archive with one entry per block: each archive
entry costs a Python-level zip read and header parse on load, which for
many small components outweighs the scores themselves.  Version-1
snapshots (one CSR matrix, its arrays stored in ``query_scores.npz``)
still load with numpy alone, split into blocks by connected components of
the stored pattern.

Both backends snapshot through the same format: ``sharded`` already serves
from an array-backed store
(:class:`~repro.core.scores_array.ArraySimilarityScores`); the dict-backed
``reference`` store is converted through
:meth:`~repro.core.scores.SimilarityScores.to_array` on save and restored
with :meth:`~repro.core.scores.SimilarityScores.from_array` on load, so the
revived method serves the exact store flavour it was fitted with.

Node identifiers must round-trip exactly through JSON (``str``, ``int``,
``float`` or ``bool``); anything else -- a tuple node, say -- raises
:class:`SnapshotError` at save time rather than coming back subtly changed.

:class:`EngineSnapshotStore` is the named-snapshot sibling of
:class:`~repro.graph.storage.ClickGraphStore`: a root directory holding one
snapshot per name, with the same save/load/list/delete surface.
"""

from __future__ import annotations

import itertools
import json
import shutil
from pathlib import Path
from typing import List, Union

import numpy as np

from repro.api.config import EngineConfig
from repro.api.staging import staged_write
from repro.core import faults
from repro.core.scores import SimilarityScores
from repro.core.scores_array import ArraySimilarityScores

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "graph_fingerprint",
    "write_snapshot",
    "read_snapshot",
    "read_manifest",
    "EngineSnapshotStore",
]

PathLike = Union[str, Path]

#: Bumped whenever the on-disk layout changes incompatibly; readers reject
#: versions they do not know instead of misreading them.
SNAPSHOT_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, SNAPSHOT_FORMAT_VERSION)  # 1: one CSR matrix

MANIFEST_FILENAME = "manifest.json"
SCORES_FILENAME = "query_scores.npy"
_V1_SCORES_FILENAME = "query_scores.npz"

#: Node-id types that round-trip *exactly* through JSON.  Shared with the
#: SQLite serving store (repro.store.sqlite), which has the same "node ids
#: must survive serialization exactly" contract.
_JSON_EXACT_NODE_TYPES = (str, int, float, bool)


class SnapshotError(RuntimeError):
    """A snapshot could not be written or read."""


def graph_fingerprint(graph) -> dict:
    """Coarse shape of a click graph, as recorded in snapshot manifests.

    One definition shared by the writer and every staleness check (e.g. the
    eval harness): comparing a manifest's ``fit.graph`` against
    ``graph_fingerprint(candidate_dataset)`` detects snapshots fitted on a
    different graph without loading the score matrix.
    """
    return {
        "queries": graph.num_queries,
        "ads": graph.num_ads,
        "edges": graph.num_edges,
        "clicks": graph.total_clicks(),
    }


def _iterations_run(engine):
    """Fit iterations, wherever the backend records them (None if unknown).

    The sharded engine exposes ``iterations_run`` directly; the
    reference methods record it on their (fit-only) result objects; a
    loaded-but-not-refitted engine carries the value its snapshot recorded.
    """
    direct = getattr(engine.method, "iterations_run", None)
    if direct is not None:
        return direct
    for attribute in ("result", "simrank_result"):
        try:
            result = getattr(engine.method, attribute)
        except (AttributeError, RuntimeError):
            continue
        iterations = getattr(result, "iterations_run", None)
        if iterations is not None:
            return iterations
    return getattr(engine, "_snapshot_iterations_run", None)


# ------------------------------------------------------------------- writing


def write_snapshot(engine, path: PathLike) -> Path:
    """Persist a fitted engine under ``path`` (created if missing).

    Returns the snapshot directory.  Raises :class:`SnapshotError` for an
    unfitted engine or node identifiers that would not survive the JSON
    round trip.

    The write is staged in a sibling directory and swapped into place only
    once complete, so an overwrite interrupted mid-save can never pair an
    old manifest with a new score matrix (which could serve silently wrong
    scores); a crash at worst leaves the name briefly absent, which
    :func:`read_snapshot` rejects loudly.
    """
    faults.fire("snapshot.write")
    if not engine.is_fitted:
        raise SnapshotError(
            "cannot snapshot an unfitted engine; call .fit(graph) first"
        )
    scores = engine.method.similarities()
    if isinstance(scores, ArraySimilarityScores):
        array, store_kind = scores, "array"
    else:
        array, store_kind = scores.to_array(), "dict"
    index = array.index
    # The fitted graph's full query set (isolated queries included) lets a
    # loaded engine's precompute() warm exactly what the fitted one would; a
    # re-saved loaded engine forwards the universe it was restored with, and
    # without either the score-store index is the best-known universe.
    graph = engine.graph
    if graph is not None:
        universe = sorted(graph.queries(), key=repr)
        fingerprint = graph_fingerprint(graph)
    elif engine._snapshot_state_fresh():
        # Re-saving a loaded engine: forward its carried snapshot state.
        universe = engine._precompute_universe
        fingerprint = engine._snapshot_graph_fingerprint
    else:
        # The method was refit/restored out of band since the load, so any
        # carried universe/fingerprint describes a different fit.
        universe = None
        fingerprint = None
    # Both lists reach the JSON manifest, and after an out-of-band restore()
    # the store index need not be a subset of the graph's queries -- check
    # every node that will be serialized.
    for node in itertools.chain(index, universe or ()):
        if not isinstance(node, _JSON_EXACT_NODE_TYPES):
            raise SnapshotError(
                f"node id {node!r} ({type(node).__name__}) does not round-trip "
                "through JSON; snapshots support str, int, float and bool node "
                "ids -- convert other identifier types before saving"
            )

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    bid_terms = engine.bid_terms
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "engine_config": engine.config.to_dict(),
        "bid_terms": sorted(bid_terms) if bid_terms is not None else None,
        "query_index": index,
        "query_universe": universe,
        "fit": {
            "method": engine.config.method,
            "store": store_kind,
            "iterations_run": _iterations_run(engine),
            "num_queries": len(index),
            "stored_pairs": len(array),
            "block_sizes": [len(nodes) for _, nodes in array.blocks],
            # Coarse shape of the fitted graph: callers can compare it
            # against a candidate dataset to detect stale snapshots cheaply.
            "graph": fingerprint,
        },
    }

    def _maybe_corrupt(staging: Path) -> None:
        if faults.should_corrupt("snapshot.write"):
            # Injected torn write: publish a snapshot whose score blocks were
            # cut off mid-write.  The manifest stays valid -- the worst
            # case, because only the (expensive) block load can notice.
            scores_file = staging / SCORES_FILENAME
            data = scores_file.read_bytes()
            scores_file.write_bytes(data[: max(1, len(data) // 2)])

    # Staged write, rename-only publish, crashed-writer debris sweep and
    # displaced-version restore: repro.api.staging.staged_write, shared with
    # the SQLite serving-store export.
    with staged_write(
        path, directory=True, error=SnapshotError, on_complete=_maybe_corrupt
    ) as staging:
        _write_blocks(staging / SCORES_FILENAME, array)
        (staging / MANIFEST_FILENAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _write_blocks(path: Path, array: ArraySimilarityScores) -> None:
    """Every score block, raveled in block order into one ``.npy`` array."""
    raveled = [matrix.ravel() for matrix, _ in array.blocks]
    np.save(path, np.concatenate(raveled) if raveled else np.zeros(0))


# ------------------------------------------------------------------- reading


def read_manifest(path: PathLike) -> dict:
    """The snapshot's manifest, validated for format version.

    Cheap (one small JSON file, no score matrix): use it to inspect a
    snapshot's config/bid terms/fit metadata before deciding to pay for a
    full :func:`read_snapshot`.  Raises :class:`SnapshotError` when the path
    holds no snapshot, a corrupt manifest, or a foreign format version.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise SnapshotError(
            f"no engine snapshot at {path} (missing {MANIFEST_FILENAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotError(
            f"corrupt snapshot manifest at {manifest_path}: {error}"
        ) from error
    if not isinstance(manifest, dict):
        raise SnapshotError(
            f"corrupt snapshot manifest at {manifest_path}: expected a JSON "
            f"object, got {type(manifest).__name__}"
        )
    version = manifest.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise SnapshotError(
            f"snapshot at {path} has format version {version!r}; this build "
            f"reads versions {', '.join(map(str, _READABLE_VERSIONS))}"
        )
    return manifest


def read_snapshot(path: PathLike, engine_cls=None):
    """Revive a servable :class:`~repro.api.engine.RewriteEngine` from ``path``.

    The engine is built from the persisted config and bid terms, and its
    similarity method adopts the persisted score store via
    :meth:`~repro.core.similarity_base.QuerySimilarityMethod.restore` -- no
    fixpoint runs.  Raises :class:`SnapshotError` when the path holds no
    snapshot or one written under a different format version.
    ``engine_cls`` lets :class:`RewriteEngine` subclasses revive as
    themselves (``SubEngine.load`` passes it automatically).
    """
    from repro.api.engine import RewriteEngine

    faults.fire("snapshot.read")
    engine_cls = engine_cls or RewriteEngine
    path = Path(path)
    manifest = read_manifest(path)
    manifest_path = path / MANIFEST_FILENAME

    version = manifest["format_version"]
    scores_path = path / (_V1_SCORES_FILENAME if version == 1 else SCORES_FILENAME)
    if not scores_path.is_file():
        raise SnapshotError(f"snapshot at {path} is missing {scores_path.name}")
    try:
        config = EngineConfig.from_dict(manifest["engine_config"])
        index = manifest["query_index"]
    except KeyError as error:
        raise SnapshotError(
            f"snapshot manifest at {manifest_path} is missing key {error}"
        ) from error
    except (TypeError, ValueError) as error:
        raise SnapshotError(
            f"snapshot manifest at {manifest_path} holds an invalid engine "
            f"config: {error}"
        ) from error
    fit_metadata = manifest.get("fit", {})
    try:
        # An open handle, closed here: np.load on a path leaves the file
        # open when the archive is corrupt and the error propagates.
        with open(scores_path, "rb") as handle:
            if version == 1:
                with np.load(handle) as archive:
                    array = _blocks_from_csr_archive(archive, index)
            else:
                raveled = np.load(handle)
                array = _blocks_from_raveled(raveled, index, fit_metadata.get("block_sizes"))
    except Exception as error:
        raise SnapshotError(
            f"corrupt snapshot score matrix at {scores_path}: {error}"
        ) from error
    scores = (
        SimilarityScores.from_array(array)
        if fit_metadata.get("store") == "dict"
        else array
    )

    bid_terms = manifest.get("bid_terms")
    if bid_terms is not None and not isinstance(bid_terms, list):
        raise SnapshotError(
            f"snapshot manifest at {manifest_path} holds invalid bid_terms: "
            f"expected a list or null, got {type(bid_terms).__name__}"
        )
    engine = engine_cls(
        config=config,
        bid_terms=bid_terms,
    )
    engine.method.restore(scores)
    engine._precompute_universe = manifest.get("query_universe")
    engine._snapshot_graph_fingerprint = fit_metadata.get("graph")
    engine._snapshot_state_generation = getattr(
        engine.method, "_fit_generation", None
    )
    iterations_run = fit_metadata.get("iterations_run")
    # Kept on the engine (cleared by a refit) so a re-save preserves the
    # metadata for every backend; the sharded method also exposes it
    # directly through its own iterations_run attribute.
    engine._snapshot_iterations_run = iterations_run
    if iterations_run is not None and hasattr(engine.method, "iterations_run"):
        engine.method.iterations_run = iterations_run
    return engine


def _blocks_from_raveled(raveled, index: list, block_sizes) -> ArraySimilarityScores:
    """Version 2: the raveled blocks, cut and reshaped per ``fit.block_sizes``."""
    if not isinstance(block_sizes, list) or sum(block_sizes) != len(index):
        raise ValueError(f"block_sizes {block_sizes!r} do not partition {len(index)} queries")
    if raveled.shape != (sum(size * size for size in block_sizes),):
        raise ValueError(f"{raveled.shape} scores stored for blocks of {block_sizes}")
    blocks, node, score = [], 0, 0
    for size in block_sizes:
        # Views into the one loaded array: no score is copied.
        matrix = raveled[score:score + size * size].reshape(size, size)
        blocks.append((matrix, index[node:node + size]))
        node, score = node + size, score + size * size
    return ArraySimilarityScores(blocks)


def _blocks_from_csr_archive(archive, index: list) -> ArraySimilarityScores:
    """Version 1: one symmetric CSR matrix, split into blocks.

    Nodes are grouped by connected components of the stored pattern, which
    is exactly the grouping that keeps every cross-block pair at zero.
    """
    shape, indptr, indices, data = (
        archive[key] for key in ("shape", "indptr", "indices", "data")
    )
    n = len(index)
    if shape.tolist() != [n, n]:
        raise ValueError(f"matrix shape {shape.tolist()} does not match {n} nodes")
    rows = np.repeat(np.arange(n), np.diff(indptr))
    # Min-label propagation with pointer jumping: every node ends up
    # labelled with the first row of its component.
    label = np.arange(n)
    while True:
        lowest = label.copy()
        np.minimum.at(lowest, rows, label[indices])
        lowest = lowest[lowest]
        if np.array_equal(lowest, label):
            break
        label = lowest
    order = np.argsort(label, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(label[order])) + 1) if n else []
    position = np.empty(n, dtype=np.int64)
    blocks = []
    for group in groups:
        position[group] = np.arange(group.size)
        block = np.zeros((group.size, group.size))
        for row, node in enumerate(group.tolist()):
            start, end = indptr[node], indptr[node + 1]
            block[row, position[indices[start:end]]] = data[start:end]
        blocks.append((block, [index[node] for node in group.tolist()]))
    return ArraySimilarityScores(blocks)


# -------------------------------------------------------------- named store


class EngineSnapshotStore:
    """Named on-disk engine snapshots under one root directory.

    The fitted-engine sibling of :class:`~repro.graph.storage.ClickGraphStore`::

        store = EngineSnapshotStore("engines/")
        store.save("two-week-weighted", engine)       # offline
        engine = store.load("two-week-weighted")      # online, no refit
    """

    def __init__(self, root: PathLike) -> None:
        self._root = Path(root)

    @property
    def root(self) -> Path:
        return self._root

    def path(self, name: str) -> Path:
        """The snapshot directory a name maps to (whether or not it exists)."""
        if not name or name.startswith(".") or "/" in name or "\\" in name:
            raise ValueError(
                f"invalid snapshot name {name!r}: must be a non-empty name "
                "without path separators, not starting with '.' (dotted names "
                "are reserved for in-progress staging directories)"
            )
        return self._root / name

    def save(self, name: str, engine) -> Path:
        """Persist a fitted engine under ``name`` (overwriting any previous)."""
        return write_snapshot(engine, self.path(name))

    def load(self, name: str):
        """Revive the named engine.  Raises ``KeyError`` if unknown."""
        if name not in self:
            raise KeyError(f"no stored engine snapshot named {name!r}")
        return read_snapshot(self.path(name))

    def manifest(self, name: str) -> dict:
        """The named snapshot's manifest (no score-matrix load).

        Raises ``KeyError`` if unknown.
        """
        if name not in self:
            raise KeyError(f"no stored engine snapshot named {name!r}")
        return read_manifest(self.path(name))

    def materialize(self, name: str, path: PathLike) -> Path:
        """Export the named snapshot as a SQLite serving store at ``path``.

        The offline hand-off in one call: revive the snapshotted engine,
        rank and filter its serving lists into a single-file store
        (:meth:`RewriteEngine.export_store <repro.api.engine.RewriteEngine.export_store>`),
        and return the store path -- ready to ship to serving nodes that
        never hold the score matrix.  Raises ``KeyError`` if unknown.
        """
        return self.load(name).export_store(path)

    def delete(self, name: str) -> None:
        """Remove a stored snapshot (no-op when absent or unstorable)."""
        try:
            target = self.path(name)
        except ValueError:
            return  # an invalid name can never hold a snapshot
        if target.is_dir():
            shutil.rmtree(target)

    def list_snapshots(self) -> List[str]:
        """Names of all stored snapshots.

        Dotted directories are skipped: they are the staging areas of
        in-progress (or crashed) saves, never completed snapshots.
        """
        if not self._root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self._root.iterdir()
            if entry.is_dir()
            and not entry.name.startswith(".")
            and (entry / MANIFEST_FILENAME).is_file()
        )

    def __contains__(self, name: str) -> bool:
        try:
            target = self.path(name)
        except ValueError:
            return False  # an invalid name can never hold a snapshot
        return (target / MANIFEST_FILENAME).is_file()

    def __repr__(self) -> str:
        return f"EngineSnapshotStore(root={str(self._root)!r}, snapshots={self.list_snapshots()})"
