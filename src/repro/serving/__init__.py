"""The online serving tier: asyncio rewrite server with zero-downtime refresh.

This package composes the offline/online split built up by the previous
layers -- snapshots (:mod:`repro.api.snapshot`), incremental deltas and
warm refits (:mod:`repro.graph.delta`, ``RewriteEngine.refresh``) -- into
an actual network service:

* :class:`~repro.serving.holder.EngineHolder` -- copy-on-write engine
  publication: readers serve from an immutable ``(engine, version)`` pair
  while ``refresh(delta)`` / ``reload(path)`` build a full replacement off
  to the side and publish it atomically.
* :class:`~repro.serving.server.RewriteServer` /
  :class:`~repro.serving.server.ServerConfig` -- stdlib-asyncio HTTP server
  with bounded in-flight admission, a bounded serving pool and graceful
  draining.
* :mod:`~repro.serving.loadgen` -- Zipf-skewed hot/cold load generator and
  latency reporting (:class:`~repro.serving.loadgen.ZipfSchedule`,
  :func:`~repro.serving.loadgen.run_load`).

Start one from the command line with ``simrankpp-experiments serve`` or
programmatically::

    holder = EngineHolder(engine)
    async with RewriteServer(holder, ServerConfig(port=8641)) as server:
        ...

Resilience guide
----------------

The serving tier is built to keep answering -- correctly, from the last
published engine -- while the analytical side misbehaves.  The moving
parts (:mod:`repro.serving.resilience`):

* **Deadlines.**  ``ServerConfig(request_timeout_s=...)`` bounds every
  ``/rewrite``/``/rewrite_batch`` request; past the budget the client gets
  HTTP 504.  Serving only ever *reads* the published engine, so a cut
  request never leaves state inconsistent.
* **Retried publishes.**  Transient ``/refresh``/``/reload`` failures (a
  crashed fit worker, an injected outage) are retried with exponential
  backoff and seeded jitter (``refresh_retries`` / ``refresh_backoff_s``);
  client errors (400) and corrupt snapshots or store files
  (:class:`~repro.api.snapshot.SnapshotError` /
  :class:`~repro.store.StoreError` -> 500) are never retried, and the
  old engine stays published either way.
* **Circuit breaker.**  After ``breaker_threshold`` consecutive transient
  publish failures the breaker opens: further publish requests are shed
  with 503 while rewrite traffic continues against the stale engine.
  After ``breaker_reset_s`` a single half-open probe decides between
  closing and re-opening.
* **Health states.**  ``/healthz`` reports ``healthy`` (serving, last
  publish succeeded), ``degraded`` (serving -- possibly stale -- but the
  publish path is struggling) or ``draining`` (shutting down), plus the
  served engine's staleness age; ``/stats`` adds the full publish ledger
  (:attr:`EngineHolder.last_error`, failure counts, breaker state).  One
  successful refresh returns a degraded server to healthy.
* **Crash-safe startup.**  ``serve --snapshot DIR`` falls back to the
  newest loadable sibling snapshot when ``DIR`` is corrupt
  (:func:`repro.api.sources.resolve_engine_source`, which the deprecated
  :func:`~repro.serving.resilience.load_engine_with_fallback` now wraps).

Engine sources
--------------

Every way the serving tier obtains an engine goes through
:func:`repro.api.sources.resolve_engine_source`:

====================  ====================================================
``snapshot=DIR``      revive a fitted engine from a snapshot directory,
                      with crash-safe sibling fallback (``serve
                      --snapshot``); hot-swap later via ``POST /reload``
``store=FILE``        serving-only engine over a materialized SQLite
                      serving store (``serve --store``): indexed point
                      lookups, O(cache) resident memory, no ``/refresh``
                      or ``/reload`` -- re-export and restart instead
``graph=ClickGraph``  fit fresh at startup (the ``serve --size`` synthetic
                      demo path)
====================  ====================================================

``/stats`` reports the store kind and lookup counters under
``engine.store`` when serving store-backed (``null`` otherwise).

All of it is exercised by deterministic fault injection
(:mod:`repro.core.faults`): named fault points in snapshot IO, shard-fit
workers, delta apply, engine refresh and request handling that are no-ops
until a ``FaultPlan`` is activated.  ``run_load(fault_schedule=...)``
replays scripted fault windows under live traffic -- the chaos gate
(``benchmarks/bench_chaos_serving.py``) asserts zero incorrect responses
and >= 99.9% availability under exactly that.
"""

from repro.serving.holder import EngineHolder
from repro.serving.loadgen import (
    LoadReport,
    RecordedResponse,
    ZipfSchedule,
    http_request,
    request_once,
    run_load,
)
from repro.serving.metrics import LatencyWindow, percentile, summarize_latencies
from repro.serving.resilience import (
    DEGRADED,
    DRAINING,
    HEALTHY,
    CircuitBreaker,
    RetryPolicy,
    classify_health,
    load_engine_with_fallback,
)
from repro.serving.server import (
    RewriteServer,
    ServerConfig,
    delta_from_payload,
    delta_to_payload,
)

__all__ = [
    "EngineHolder",
    "RewriteServer",
    "ServerConfig",
    "CircuitBreaker",
    "RetryPolicy",
    "classify_health",
    "load_engine_with_fallback",
    "HEALTHY",
    "DEGRADED",
    "DRAINING",
    "ZipfSchedule",
    "LoadReport",
    "RecordedResponse",
    "LatencyWindow",
    "percentile",
    "summarize_latencies",
    "http_request",
    "request_once",
    "run_load",
    "delta_from_payload",
    "delta_to_payload",
]
