"""SQL-backed rewrite serving: materialized per-query top-k rewrite tables.

The motivation (ROADMAP: "SQL-backed rewrite serving for stores bigger than
RAM"): a fitted Simrank++ engine serves *static* per-query top-k rewrite
lists, yet the snapshot path rehydrates every dense score block into
resident memory just to answer point lookups.  This module materializes
those lists instead.  At export time (:func:`export_serving_store`, wired
as ``RewriteEngine.export_store``) the engine's own
:class:`~repro.core.rewriter.QueryRewriter` computes every query's filtered
list in memory -- the same top-k and Section 9.3 filter pipeline (bid-term
filtering, stemmed deduplication, the max-rewrites cap) live serving runs,
so the two cannot drift -- and the surviving rows land, in key order, in a
``rewrites`` table clustered on ``(query, rank)``.

Serving (:class:`SqliteServingStore`) is then an indexed point lookup per
query: resident memory is O(connection + page cache + engine LRU cache),
not O(nnz), which is what lets a serving node answer from a store bigger
than its RAM.  The export is crash-safe via the shared staged-write
rename-publish discipline (:func:`repro.api.staging.staged_write`): a
killed export can never leave a half-written database discoverable.

On-disk layout (one SQLite file)::

    meta(key, value)             format/store version, engine config JSON,
                                 fit facts (method, counts)
    queries(query, position)     the precompute universe, in export order
    rewrites(query, rank,        the materialized serving lists, clustered
             rewrite, score)     on (query, rank) for point lookups

Node identifiers are JSON-encoded (the snapshot layer's exact-round-trip
types: str, int, float, bool); anything else raises :class:`StoreError` at
export time rather than coming back subtly changed.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.api.snapshot import _JSON_EXACT_NODE_TYPES
from repro.api.staging import staged_write
from repro.core.rewriter import QueryRewriter, Rewrite, RewriteList
from repro.store.base import Node, ServingStore, StoreError

__all__ = ["STORE_FORMAT_VERSION", "SqliteServingStore", "export_serving_store"]

PathLike = Union[str, Path]

#: Bumped whenever the database layout changes incompatibly; readers reject
#: stores written under a different version instead of misreading them.
STORE_FORMAT_VERSION = 1

_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL) WITHOUT ROWID;
CREATE TABLE queries (
    query TEXT PRIMARY KEY,
    position INTEGER NOT NULL
) WITHOUT ROWID;
CREATE TABLE rewrites (
    query TEXT NOT NULL,
    rank INTEGER NOT NULL,
    rewrite TEXT NOT NULL,
    score REAL NOT NULL,
    PRIMARY KEY (query, rank)
) WITHOUT ROWID;
"""


def _encode_node(node: Node) -> str:
    """A node id as its canonical JSON text (the database key)."""
    if not isinstance(node, _JSON_EXACT_NODE_TYPES):
        raise StoreError(
            f"node id {node!r} ({type(node).__name__}) does not round-trip "
            "through JSON; serving stores support str, int, float and bool "
            "node ids -- convert other identifier types before exporting"
        )
    return json.dumps(node)


def _decode_node(text: str) -> Node:
    return json.loads(text)


# ------------------------------------------------------------------ exporting


def export_serving_store(engine, path: PathLike) -> Path:
    """Materialize a fitted engine's serving lists into a SQLite store.

    Returns the store path.  Raises :class:`StoreError` for an unfitted
    engine or node identifiers that would not survive the JSON round trip.
    The write is staged and rename-published (the snapshot discipline, via
    :func:`repro.api.staging.staged_write`), so a crashed export can never
    leave a half-written database discoverable under ``path``.
    """
    if not engine.method.is_fitted:
        raise StoreError(
            "cannot export an unfitted engine to a serving store; call "
            ".fit(graph) or load a snapshot first"
        )
    rewriter: QueryRewriter = engine._rewriter
    universe = engine._serving_universe()
    universe_keys = [(_encode_node(query), position)
                     for position, query in enumerate(universe)]
    # Every query the store must answer: the precompute universe plus any
    # score-index query outside it (an out-of-band restore can leave the
    # score index larger than the recorded universe).
    materialize = dict.fromkeys([*universe, *engine._score_store_queries()])
    # The live filter pipeline's own lists, in clustered-key order so the
    # rewrites B-tree is written front to back.
    rows = sorted(
        (_encode_node(query), accepted.rank,
         _encode_node(accepted.rewrite), accepted.score)
        for query in materialize
        for accepted in rewriter.compute_rewrites(query).rewrites
    )

    path = Path(path)
    with staged_write(path, directory=False, error=StoreError) as staging:
        connection = sqlite3.connect(str(staging))
        try:
            # The staging file is discarded wholesale on any failure (the
            # rename-publish discipline is the durability story), so
            # journaling and fsync buy nothing here but slow the export.
            connection.execute("PRAGMA journal_mode=OFF")
            connection.execute("PRAGMA synchronous=OFF")
            connection.executescript(_SCHEMA)
            connection.executemany("INSERT INTO rewrites VALUES (?, ?, ?, ?)", rows)
            connection.executemany(
                "INSERT INTO queries VALUES (?, ?)", universe_keys
            )
            meta = {
                "format_version": str(STORE_FORMAT_VERSION),
                "store_version": "1",
                "engine_config": json.dumps(engine.config.to_dict()),
                "method": engine.config.method,
                "num_queries": str(len(universe_keys)),
                "num_rewrites": str(len(rows)),
            }
            connection.executemany(
                "INSERT INTO meta VALUES (?, ?)", sorted(meta.items())
            )
            connection.commit()
            # Compacts the pages the three B-trees left partly filled.
            connection.execute("VACUUM")
        finally:
            connection.close()
    return path


# ------------------------------------------------------------------- serving


class SqliteServingStore(ServingStore):
    """Indexed point lookups against an exported SQLite serving store.

    Opens the store read-only-by-convention (``PRAGMA query_only``) and
    answers each :meth:`rewrites` call with one clustered-index scan of the
    query's rows.  Thread-safe: the serving tier's executor threads share
    one connection, serialized by an internal lock -- lookups are
    microsecond-scale point reads, so the lock is not a throughput concern,
    and the engine's LRU cache absorbs repeats anyway.
    """

    kind = "sqlite"

    def __init__(self, path: PathLike) -> None:
        path = Path(path)
        if not path.is_file():
            raise StoreError(f"no serving store at {path} (not a file)")
        try:
            connection = sqlite3.connect(str(path), check_same_thread=False)
            rows = connection.execute("SELECT key, value FROM meta").fetchall()
        except sqlite3.Error as error:
            raise StoreError(
                f"{path} is not a readable serving store: {error}"
            ) from error
        meta = dict(rows)
        version_text = meta.get("format_version")
        if version_text != str(STORE_FORMAT_VERSION):
            connection.close()
            raise StoreError(
                f"serving store at {path} has format version {version_text!r}; "
                f"this build reads version {STORE_FORMAT_VERSION}"
            )
        connection.execute("PRAGMA query_only=ON")
        self._path = path
        self._meta = meta
        self._version = int(meta.get("store_version", "1"))
        #: Serializes connection use and guards the lookup counters; one
        #: store instance is shared by every serving thread.
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._connection = connection
        #: guarded-by: _lock
        self._lookups = 0
        #: guarded-by: _lock
        self._empty_lookups = 0
        #: guarded-by: _lock
        self._closed = False

    @property
    def path(self) -> Path:
        return self._path

    # ------------------------------------------------------------- protocol

    def rewrites(self, query: Node, k: Optional[int] = None) -> RewriteList:
        try:
            key = _encode_node(query)
        except StoreError:
            # Identifier types the store cannot hold are simply unknown
            # queries: serve the same empty list the in-memory path would.
            key = None
        with self._lock:
            if self._closed:
                raise StoreError(f"serving store at {self._path} is closed")
            self._lookups += 1
            if key is None:
                rows = []
            else:
                rows = self._connection.execute(
                    "SELECT rewrite, score, rank FROM rewrites "
                    "WHERE query = ? ORDER BY rank",
                    (key,),
                ).fetchall()
            if not rows:
                self._empty_lookups += 1
        if k is not None:
            rows = rows[:k]
        return RewriteList(
            query=query,
            rewrites=[
                Rewrite(
                    query=query,
                    rewrite=_decode_node(text),
                    score=score,
                    rank=rank,
                )
                for text, score, rank in rows
            ],
        )

    def contains(self, query: Node) -> bool:
        try:
            key = _encode_node(query)
        except StoreError:
            return False
        with self._lock:
            if self._closed:
                raise StoreError(f"serving store at {self._path} is closed")
            row = self._connection.execute(
                "SELECT 1 FROM queries WHERE query = ?", (key,)
            ).fetchone()
        return row is not None

    def queries(self) -> List[Node]:
        with self._lock:
            if self._closed:
                raise StoreError(f"serving store at {self._path} is closed")
            rows = self._connection.execute(
                "SELECT query FROM queries ORDER BY position"
            ).fetchall()
        return [_decode_node(text) for (text,) in rows]

    @property
    def version(self) -> int:
        return self._version

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._connection.close()
                self._closed = True

    # ----------------------------------------------------------- accounting

    @property
    def lookups(self) -> int:
        with self._lock:
            return self._lookups

    @property
    def empty_lookups(self) -> int:
        """Lookups that found no materialized rewrites (unknown/empty queries)."""
        with self._lock:
            return self._empty_lookups

    def engine_config(self) -> Optional[Dict[str, object]]:
        payload = self._meta.get("engine_config")
        if payload is None:
            return None
        try:
            config = json.loads(payload)
        except json.JSONDecodeError as error:
            raise StoreError(
                f"serving store at {self._path} holds a corrupt engine "
                f"config: {error}"
            ) from error
        return config if isinstance(config, dict) else None

    def describe(self) -> Dict[str, object]:
        facts = super().describe()
        facts["path"] = str(self._path)
        facts["empty_lookups"] = self.empty_lookups
        return facts

    def __repr__(self) -> str:
        return (
            f"SqliteServingStore(path={str(self._path)!r}, "
            f"version={self.version}, lookups={self.lookups})"
        )
