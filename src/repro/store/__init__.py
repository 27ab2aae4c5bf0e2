"""Interchangeable serving backends behind one ``ServingStore`` protocol.

Simrank++ is an offline fit that serves per-query top-k rewrite lists
online (paper Section 9.3) -- exactly the shape of a materialized ranking
table.  This package makes the *serving source* pluggable: the engine's
read path (``rewrite`` / ``rewrite_batch`` / ``expansions``) no longer
assumes the full score matrix is resident, only that *something* can
produce the filtered rewrite list of a query.

Two implementations of :class:`~repro.store.base.ServingStore`:

:class:`~repro.store.memory.InMemoryServingStore`
    Wraps today's fitted-scores + rewriter path: each lookup runs the
    similarity top-k and the Section 9.3 filter pipeline over the resident
    score store.  Resident memory is O(nnz).

:class:`~repro.store.sqlite.SqliteServingStore`
    A single-file SQLite database materialized at export time
    (:meth:`RewriteEngine.export_store`) from the engine's own filtered
    rewrite lists and served back with indexed point lookups, so resident
    memory is O(serving cache), not O(nnz) -- click graphs bigger than
    serving RAM become servable.

``RewriteEngine.from_store(path)`` revives a serving-only engine from an
exported store; it serves through the usual LRU cache but cannot ``fit`` /
``refresh`` / ``save`` (those raise
:class:`~repro.store.base.ServingOnlyEngineError` -- refit the original
engine and re-export instead).  ``repro.api.sources.resolve_engine_source``
is the one front door over snapshot, store and fresh-fit construction.
"""

from repro.store.base import ServingOnlyEngineError, ServingStore, StoreError
from repro.store.memory import InMemoryServingStore
from repro.store.sqlite import (
    STORE_FORMAT_VERSION,
    SqliteServingStore,
    export_serving_store,
)

__all__ = [
    "STORE_FORMAT_VERSION",
    "InMemoryServingStore",
    "ServingOnlyEngineError",
    "ServingStore",
    "SqliteServingStore",
    "StoreError",
    "export_serving_store",
]
