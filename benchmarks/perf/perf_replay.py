"""In-process replays: response verification and per-layer timing.

After the server has stopped, the benchmark replays what it sent against
engines it builds itself, calling each layer's public functions:

* :func:`verify_reads` checks every ``/rewrite`` response against ground
  truth from the fitted engine.  Under ``/refresh`` traffic it walks the
  engine versions in order -- ``engine.copy()`` then
  ``candidate.refresh(delta)`` per published version, as the server's
  ``EngineHolder`` does -- and drops each version once its responses are
  checked (reads on one connection arrive in version order).
* :func:`timed_replay` re-runs the open phase's exact query sequence
  through ``RewriteEngine.rewrite`` on an engine built from the same
  source the server served, with or without spans.
* :func:`probe_misses` times the layers under a cache miss one call at a
  time: the SQLite lookup, the similarity top-k and the Section 9.3 filter.

Spans are ``(name, start, end, parent, request_id)`` tuples kept in memory
(:class:`Tracer`) and written out by ``perf_bench.py`` at the end of the run.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import RewriteEngine
from repro.core.rewriter import QueryRewriter, RewriteList
from repro.graph.components import reachable_queries
from repro.graph.delta import ClickGraphDelta
from repro.store.sqlite import SqliteServingStore

Span = Tuple[str, float, float, Optional[int], Optional[int]]


class Tracer:
    """An in-memory span list; ``perf_counter`` seconds."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def record(
        self, name: str, start: float, end: float,
        request_id: Optional[int] = None, parent: Optional[int] = None,
    ) -> int:
        """Append a span; returns its index (usable as a child's ``parent``)."""
        self.spans.append((name, start, end, parent, request_id))
        return len(self.spans) - 1

    def durations(self, name: str) -> List[float]:
        return [end - start for span, start, end, _, _ in self.spans if span == name]


def rewrites_payload(result: RewriteList) -> List[Dict[str, object]]:
    """The ``rewrites`` field of the ``/rewrite`` response for ``result``."""
    return [
        {"rewrite": rewrite.rewrite, "rank": rewrite.rank, "score": rewrite.score}
        for rewrite in result.rewrites
    ]


def advance(engine: RewriteEngine, delta: ClickGraphDelta, tracer: Tracer) -> RewriteEngine:
    """The next published version: copy, then refresh the copy."""
    started = time.perf_counter()
    candidate = engine.copy()
    copied = time.perf_counter()
    candidate.refresh(delta)
    refreshed = time.perf_counter()
    parent = tracer.record("api.advance", started, refreshed)
    tracer.record("api.copy", started, copied, parent=parent)
    tracer.record("api.refresh", copied, refreshed, parent=parent)
    return candidate


def verify_reads(
    reads: Iterable[Tuple[str, int, bytes]],
    engine: RewriteEngine,
    delta_of_version: Dict[int, ClickGraphDelta],
    tracer: Tracer,
) -> Tuple[int, List[int]]:
    """Check ``(query, status, body)`` reads, in send order, against ground truth.

    ``engine`` is version 1; ``delta_of_version[v]`` turns version ``v - 1``
    into ``v``.  A response is correct when it names the version being
    served and its rewrites equal that version's freshly computed ones --
    or, since ``refresh`` keeps the cached lists of queries no changed edge
    reaches, equal an earlier correct response for the query that no delta
    applied since has reached.  Any earlier one, not just the last: a
    refresh copies the cache when it starts, so the next version can hold
    a list older than what the current one served meanwhile.  Returns the
    number of failed reads and the ``invalidated_entries`` of each refresh
    applied.
    """
    failed = 0
    version = 1
    invalidated = []
    #: query -> {encoded rewrites: latest version a response carried them}.
    accepted: Dict[str, Dict[str, int]] = {}
    #: version -> queries whose cached lists that version's refresh dropped.
    affected: Dict[int, Set[str]] = {}
    for query, status, body in reads:
        try:
            payload = json.loads(body) if status == 200 else None
        except ValueError:
            payload = None
        served = payload.get("version") if isinstance(payload, dict) else None
        while isinstance(served, int) and served > version and version + 1 in delta_of_version:
            version += 1
            delta = delta_of_version[version]
            touched = delta.touched_queries()
            affected[version] = touched | reachable_queries(
                engine.graph, touched, delta.touched_ads()
            )
            engine = advance(engine, delta, tracer)
            invalidated.append(engine.last_refresh.invalidated_entries)
            # Ground truth for this version is computed afresh, not served
            # from entries the refresh kept.
            engine.clear_cache()
        if served != version or payload.get("query") != query:
            failed += 1
            continue
        rewrites = payload.get("rewrites")
        key = json.dumps(rewrites)
        seen = accepted.setdefault(query, {})
        survived = key in seen and not any(
            query in affected[later] for later in range(seen[key] + 1, version + 1)
        )
        if survived or rewrites == rewrites_payload(engine.rewrite(query)):
            seen[key] = version
        else:
            failed += 1
    return failed, invalidated


def timed_replay(
    engine: RewriteEngine, queries: Sequence[str], tracer: Optional[Tracer]
) -> Tuple[float, List[Tuple[int, str]]]:
    """Replay ``queries`` through ``engine.rewrite``.

    Returns the wall time and the ``(request_id, query)`` of each miss.

    With a tracer, each call is one ``api.rewrite.hit`` / ``api.rewrite.miss``
    span (classified by the engine's own miss counter); without one, the
    loop does nothing else, which makes the difference the tracing cost.
    """
    clock = time.perf_counter
    started = clock()
    if tracer is None:
        for query in queries:
            engine.rewrite(query)
        return clock() - started, []
    missed = []
    misses = engine.cache_info().misses
    for request_id, query in enumerate(queries):
        begin = clock()
        engine.rewrite(query)
        end = clock()
        now = engine.cache_info().misses
        if now > misses:
            missed.append((request_id, query))
            tracer.record("api.rewrite.miss", begin, end, request_id)
        else:
            tracer.record("api.rewrite.hit", begin, end, request_id)
        misses = now
    return clock() - started, missed


def probe_misses(
    misses: Sequence[Tuple[int, str]],
    fitted: RewriteEngine,
    bid_terms: Iterable[str],
    store_path: str,
    tracer: Tracer,
) -> None:
    """Time the layers a cache miss runs, one public call per span.

    ``store.lookup`` is ``SqliteServingStore.rewrites``; ``core.top_rewrites``
    the similarity top-k over the candidate pool; ``core.compute_rewrites``
    a bench-built ``QueryRewriter`` over the same method, i.e. the top-k
    plus the bid-term/stemming filter.  Each span carries the id of the
    replayed request that missed.
    """
    config = fitted.config
    method = fitted.method
    rewriter = QueryRewriter(
        method,
        bid_terms=set(bid_terms),
        max_rewrites=config.max_rewrites,
        candidate_pool=config.candidate_pool,
        min_score=config.min_score,
        deduplicate=config.deduplicate,
    )
    clock = time.perf_counter
    store = SqliteServingStore(store_path)
    try:
        for request_id, query in misses:
            begin = clock()
            store.rewrites(query)
            tracer.record("store.lookup", begin, clock(), request_id)
            begin = clock()
            method.top_rewrites(query, k=config.candidate_pool, minimum=config.min_score)
            tracer.record("core.top_rewrites", begin, clock(), request_id)
            begin = clock()
            rewriter.compute_rewrites(query)
            tracer.record("core.compute_rewrites", begin, clock(), request_id)
    finally:
        store.close()


def time_calls(name: str, call: Callable[[], object], repeats: int, tracer: Tracer) -> None:
    """Run ``call`` ``repeats`` times, one span each; a result with a
    ``close()`` (an opened store) is closed outside the span."""
    for _ in range(repeats):
        begin = time.perf_counter()
        result = call()
        tracer.record(name, begin, time.perf_counter())
        close = getattr(result, "close", None)
        if close is not None:
            close()
