"""Asyncio HTTP server for online query rewriting with zero-downtime refresh.

The paper's deployment (Section 9.3) computes rewrites offline and serves
them per search request; this module is the online half as an actual
network service, stdlib-only (``asyncio`` streams plus a deliberately
minimal HTTP/1.1 implementation -- request line, headers, Content-Length
bodies, keep-alive).

Request flow::

    client -> POST /rewrite -> admit (at most queue_size in flight, else 503)
           -> holder.current(): one (engine, version) pair
           -> serve-pool thread: engine.rewrite_batch (deadline, else 504)
           -> JSON response (with the engine version)

Each request goes straight to the serve pool, whose ``max_workers`` is the
concurrency bound; ``engine.rewrite_batch`` deduplicates within a request
and the engine's LRU absorbs repeats across requests.  Each response is
computed against **one** :class:`~repro.serving.holder.EngineHolder`
snapshot -- an ``(engine, version)`` pair read atomically -- so refreshes
running concurrently can never produce a torn response that mixes two
engine versions.

Endpoints (all request/response bodies are JSON):

``POST /rewrite``
    ``{"query": "camera"}`` -> the filtered ranked rewrites + engine version.
``POST /rewrite_batch``
    ``{"queries": [...]}`` -> aligned results, all from one engine version.
``POST /refresh``
    A click-graph delta (see :func:`delta_from_payload`); applies it via
    the holder's copy-on-write refresh in a background executor -- traffic
    keeps being served by the old engine until the atomic swap.
``POST /reload``
    ``{"path": "engines/today"}`` -> hot-load a snapshot directory and swap.
``GET /healthz``
    Health state (``healthy`` / ``degraded`` / ``draining``), current
    engine version + staleness age, circuit-breaker state.
``GET /stats``
    Serving counters, dispatch counters, latency percentiles, cache info,
    and the resilience ledger (publish failures, retries, breaker).

Malformed framing (request line, ``Content-Length``, any
``Transfer-Encoding``) is answered with 400 and ``Connection: close``; so
is a request line longer than the stream's line limit (64 KiB by default),
while an over-long header line gets 431.

Shutdown is graceful: :meth:`RewriteServer.stop` stops accepting, lets the
in-flight requests finish (bounded by ``ServerConfig.drain_timeout_s``),
then closes the connections -- idle keep-alive ones included -- and the
executors.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.api.engine import RewriteEngine
from repro.api.snapshot import SnapshotError
from repro.store import StoreError
from repro.core import faults
from repro.core.parallel import available_cpu_count
from repro.core.rewriter import RewriteList
from repro.graph.click_graph import EdgeStats
from repro.graph.delta import ClickGraphDelta
from repro.serving.holder import EngineHolder
from repro.serving.metrics import LatencyWindow
from repro.serving.resilience import CircuitBreaker, RetryPolicy, classify_health

__all__ = [
    "ServerConfig",
    "RewriteServer",
    "delta_from_payload",
    "delta_to_payload",
]

Node = Hashable


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the serving process.

    Attributes
    ----------
    host / port:
        Listen address; port ``0`` binds an ephemeral port (read the real
        one from :attr:`RewriteServer.address` -- the tests and benchmarks
        run this way so parallel runs never collide).
    max_concurrency:
        Size of the serving thread pool, and so the number of requests
        computed at once; admitted requests beyond it wait in the pool's
        work queue.  ``None`` (the default) sizes the pool to the CPUs
        actually *available* to this process (cgroup/affinity-aware, never
        below 2), so containers pinned to a CPU subset are not
        oversubscribed.
    queue_size:
        Bound on admitted in-flight ``/rewrite`` and ``/rewrite_batch``
        requests (computing or waiting for a pool thread); requests beyond
        it are rejected with HTTP 503 instead of growing an unbounded
        backlog.
    drain_timeout_s:
        How long :meth:`RewriteServer.stop` waits for in-flight requests to
        finish before force-closing.
    max_request_bytes:
        Request bodies larger than this are rejected with HTTP 413.
    latency_window:
        How many recent rewrite requests the server-side latency
        percentiles in ``/stats`` are computed over.
    request_timeout_s:
        Per-request deadline for ``/rewrite`` and ``/rewrite_batch``.
        A request not answered within the budget gets HTTP 504, and its
        work is cancelled if no pool thread has started it yet.  The engine
        is only ever *read* by serving, so a timed-out request can never
        leave state inconsistent.  ``None`` (the default) disables deadlines.
    refresh_retries / refresh_backoff_s / refresh_backoff_max_s:
        Transient ``/refresh`` and ``/reload`` failures are retried this
        many times with exponential backoff (seeded jitter, see
        :class:`~repro.serving.resilience.RetryPolicy`) before the request
        fails.  Client errors (bad delta: 400) and corrupt snapshots or
        store files (:class:`SnapshotError` / :class:`StoreError`: 500)
        are never retried.
    breaker_threshold / breaker_reset_s:
        Circuit breaker over the publish path: after ``breaker_threshold``
        consecutive transient failures, further ``/refresh``/``/reload``
        requests are shed with 503 (the stale engine keeps serving) until
        ``breaker_reset_s`` elapses and a half-open probe succeeds.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_concurrency: Optional[int] = None
    queue_size: int = 1024
    drain_timeout_s: float = 10.0
    max_request_bytes: int = 1 << 20
    latency_window: int = 4096
    request_timeout_s: Optional[float] = None
    refresh_retries: int = 2
    refresh_backoff_s: float = 0.05
    refresh_backoff_max_s: float = 1.0
    breaker_threshold: int = 3
    breaker_reset_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.drain_timeout_s < 0:
            raise ValueError(f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}")
        if self.latency_window < 1:
            raise ValueError(f"latency_window must be >= 1, got {self.latency_window}")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0 or None, got {self.request_timeout_s}"
            )
        if self.refresh_retries < 0:
            raise ValueError(
                f"refresh_retries must be >= 0, got {self.refresh_retries}"
            )
        if self.refresh_backoff_s < 0 or self.refresh_backoff_max_s < 0:
            raise ValueError(
                "refresh_backoff_s and refresh_backoff_max_s must be >= 0, got "
                f"{self.refresh_backoff_s} / {self.refresh_backoff_max_s}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset_s <= 0:
            raise ValueError(
                f"breaker_reset_s must be > 0, got {self.breaker_reset_s}"
            )

    def resolved_concurrency(self) -> int:
        """The effective pool size: explicit, else sized from available CPUs."""
        if self.max_concurrency is not None:
            return self.max_concurrency
        return max(2, available_cpu_count())


# --------------------------------------------------------------- wire format


def _stats_from_payload(edge: Dict[str, Any]) -> EdgeStats:
    kwargs: Dict[str, Any] = {
        "impressions": int(edge["impressions"]),
        "clicks": int(edge["clicks"]),
    }
    if "expected_click_rate" in edge:
        kwargs["expected_click_rate"] = float(edge["expected_click_rate"])
    return EdgeStats(**kwargs)


def delta_from_payload(payload: Dict[str, Any]) -> ClickGraphDelta:
    """Decode the ``/refresh`` JSON body into a :class:`ClickGraphDelta`.

    Shape (all three groups optional)::

        {"added":   [{"query": q, "ad": a, "impressions": i, "clicks": c,
                      "expected_click_rate": r?}, ...],
         "updated": [... same shape, new statistics ...],
         "removed": [{"query": q, "ad": a}, ...]}
    """
    added = tuple(
        (edge["query"], edge["ad"], _stats_from_payload(edge))
        for edge in payload.get("added", ())
    )
    updated = tuple(
        (edge["query"], edge["ad"], _stats_from_payload(edge))
        for edge in payload.get("updated", ())
    )
    removed = tuple((edge["query"], edge["ad"]) for edge in payload.get("removed", ()))
    return ClickGraphDelta(added=added, updated=updated, removed=removed)


def delta_to_payload(delta: ClickGraphDelta) -> Dict[str, Any]:
    """Encode a delta as the ``/refresh`` JSON body (client-side helper)."""

    def edge_payload(query: Node, ad: Node, stats: EdgeStats) -> Dict[str, Any]:
        return {
            "query": query,
            "ad": ad,
            "impressions": stats.impressions,
            "clicks": stats.clicks,
            "expected_click_rate": stats.expected_click_rate,
        }

    return {
        "added": [edge_payload(*entry) for entry in delta.added],
        "updated": [edge_payload(*entry) for entry in delta.updated],
        "removed": [{"query": query, "ad": ad} for query, ad in delta.removed],
    }


def _rewrites_payload(result: RewriteList) -> List[Dict[str, Any]]:
    return [
        {"rewrite": rewrite.rewrite, "rank": rewrite.rank, "score": rewrite.score}
        for rewrite in result.rewrites
    ]


# ------------------------------------------------------------ HTTP plumbing


class _HttpError(Exception):
    """A request that maps directly to an HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    """One line; past the stream's limit, ``readline`` raises a bare
    ``ValueError`` that would escape the handler without any response."""
    try:
        return await reader.readline()
    except ValueError:
        raise _HttpError(status, f"{what} exceeds the server's line limit") from None


@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> Dict[str, Any]:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload


@dataclass
class _Counters:
    requests: int = 0
    responses: Dict[int, int] = field(default_factory=dict)
    endpoints: Dict[str, int] = field(default_factory=dict)
    rewrites_served: int = 0
    dispatches: int = 0
    rejected_queue_full: int = 0
    in_flight_high_water: int = 0
    refreshes: int = 0
    reloads: int = 0
    timeouts: int = 0
    publish_retries: int = 0
    rejected_breaker_open: int = 0


class RewriteServer:
    """The asyncio serving process around an :class:`EngineHolder`.

    Usage::

        holder = EngineHolder(engine)
        server = RewriteServer(holder, ServerConfig(port=0))
        await server.start()
        host, port = server.address
        ...
        await server.stop()        # graceful: drains in-flight requests

    or as an async context manager::

        async with RewriteServer(holder) as server:
            ...

    The server never blocks traffic on a refit: ``/refresh`` and
    ``/reload`` run in a single-worker admin executor and publish through
    the holder's copy-on-write swap, while rewrite requests keep
    executing against the previously published engine.
    """

    def __init__(
        self, holder: EngineHolder, config: Optional[ServerConfig] = None
    ) -> None:
        self._holder = holder
        self._config = config or ServerConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._serve_executor: Optional[ThreadPoolExecutor] = None
        self._admin_executor: Optional[ThreadPoolExecutor] = None
        self._connections: Dict["asyncio.Task[Any]", asyncio.StreamWriter] = {}
        self._in_flight = 0
        self._draining = False
        self._counters = _Counters()
        self._latency = LatencyWindow(self._config.latency_window)
        self._started_at: Optional[float] = None
        self._breaker = CircuitBreaker(
            threshold=self._config.breaker_threshold,
            reset_s=self._config.breaker_reset_s,
        )
        self._retry = RetryPolicy(
            retries=self._config.refresh_retries,
            backoff_s=self._config.refresh_backoff_s,
            max_backoff_s=self._config.refresh_backoff_max_s,
        )

    # -------------------------------------------------------------- lifecycle

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def holder(self) -> EngineHolder:
        return self._holder

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` -- the real port even when configured 0."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def start(self) -> "RewriteServer":
        """Start the serving and admin executors and bind the listen socket."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._serve_executor = ThreadPoolExecutor(
            max_workers=self._config.resolved_concurrency(),
            thread_name_prefix="repro-serve",
        )
        # Refresh/reload get their own single worker: a long refit must not
        # occupy a serving slot, and a saturated serving pool must not
        # delay the swap that would relieve it.
        self._admin_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-admin"
        )
        self._draining = False
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._config.host, port=self._config.port
        )
        self._started_at = self._loop.time()
        return self

    async def stop(self, drain_timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, drain, then tear down.

        New requests are rejected with 503 the moment draining starts;
        in-flight requests are given ``drain_timeout_s`` (default: the
        config's) to finish.  Then every connection still open is aborted:
        an idle keep-alive one reads EOF, and a request the drain window
        did not cover loses its response once its compute returns.
        """
        if self._server is None:
            return
        timeout = (
            self._config.drain_timeout_s if drain_timeout_s is None else drain_timeout_s
        )
        self._draining = True
        self._server.close()
        assert self._loop is not None
        deadline = self._loop.time() + timeout
        while self._in_flight and self._loop.time() < deadline:
            await asyncio.sleep(0.005)
        # Abort rather than cancel: each handler then ends on its own normal
        # path (EOF or a failed write), and none dies with a CancelledError
        # that asyncio would report as an unhandled error.
        for writer in self._connections.values():
            writer.transport.abort()
        await asyncio.gather(*self._connections, return_exceptions=True)
        # Only now: from Python 3.12 this also waits for every connection.
        await self._server.wait_closed()
        if self._serve_executor is not None:
            self._serve_executor.shutdown(wait=True)
        if self._admin_executor is not None:
            self._admin_executor.shutdown(wait=True)
        self._server = None

    async def __aenter__(self) -> "RewriteServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------ rewrite path

    async def _serve(self, queries: Sequence[Node]) -> Tuple[int, List[List[Dict[str, Any]]]]:
        """Answer one request's queries in the serve pool: (version, rows)."""
        assert self._loop is not None
        if self._draining:
            raise _HttpError(503, "server is draining")
        if self._in_flight >= self._config.queue_size:
            self._counters.rejected_queue_full += 1
            raise _HttpError(503, "request queue is full")
        self._in_flight += 1
        self._counters.in_flight_high_water = max(
            self._counters.in_flight_high_water, self._in_flight
        )
        # One atomic holder read per request: the whole response comes from
        # this engine version, torn responses impossible.
        engine, version = self._holder.current()
        timeout = self._config.request_timeout_s
        try:
            # On timeout wait_for cancels the executor future, which drops
            # the work if no pool thread has started it.  Serving only ever
            # *reads* the published engine -- a deadline can cut a response
            # short but never leave engine state inconsistent.
            rows = await asyncio.wait_for(
                self._loop.run_in_executor(
                    self._serve_executor, self._compute, engine, queries
                ),
                timeout,
            )
        except asyncio.TimeoutError:
            self._counters.timeouts += 1
            raise _HttpError(504, f"request deadline of {timeout}s exceeded") from None
        except Exception as exc:  # noqa: BLE001 -- forwarded to the client
            raise _HttpError(500, f"rewrite failed: {exc}") from exc
        finally:
            self._in_flight -= 1
        self._counters.dispatches += 1
        self._counters.rewrites_served += len(set(queries))
        return version, rows

    @staticmethod
    def _compute(
        engine: RewriteEngine, queries: Sequence[Node]
    ) -> List[List[Dict[str, Any]]]:
        """Executor-thread body: serve one request's queries off one engine."""
        faults.fire("serving.compute")
        return [_rewrites_payload(result) for result in engine.rewrite_batch(queries)]

    # ------------------------------------------------------------- connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    self._count_status(exc.status)
                    await self._write_response(
                        writer, exc.status, {"error": exc.message}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                status, payload = await self._respond(request)
                keep_alive = request.keep_alive and not self._draining
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            # Deregister last, so stop() can still abort a close stuck on a
            # peer that stopped reading.
            if task is not None:
                self._connections.pop(task, None)

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        line = await _read_line(reader, 400, "request line")
        if not line:
            return None
        try:
            method, path, _ = line.decode("latin-1").split()
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            header = await _read_line(reader, 431, "header line")
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _HttpError(400, "Transfer-Encoding is not supported; send Content-Length")
        length_header = headers.get("content-length", "0")
        if not (length_header.isascii() and length_header.isdigit()):
            raise _HttpError(400, f"malformed Content-Length {length_header!r}")
        length = int(length_header)
        if length > self._config.max_request_bytes:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return _Request(method=method, path=path, headers=headers, body=body)

    def _count_status(self, status: int) -> None:
        self._counters.responses[status] = self._counters.responses.get(status, 0) + 1

    async def _respond(self, request: _Request) -> Tuple[int, Dict[str, Any]]:
        self._counters.requests += 1
        self._counters.endpoints[request.path] = (
            self._counters.endpoints.get(request.path, 0) + 1
        )
        assert self._loop is not None
        started = self._loop.time()
        try:
            payload = await self._route(request)
            status = 200
        except _HttpError as exc:
            status, payload = exc.status, {"error": exc.message}
        except Exception as exc:  # noqa: BLE001 -- the server must not die
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if request.path in ("/rewrite", "/rewrite_batch") and status == 200:
            self._latency.record((self._loop.time() - started) * 1000.0)
        self._count_status(status)
        return status, payload

    async def _route(self, request: _Request) -> Dict[str, Any]:
        faults.fire("serving.request")
        handlers = {
            ("POST", "/rewrite"): self._handle_rewrite,
            ("POST", "/rewrite_batch"): self._handle_rewrite_batch,
            ("POST", "/refresh"): self._handle_refresh,
            ("POST", "/reload"): self._handle_reload,
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/stats"): self._handle_stats,
        }
        handler = handlers.get((request.method, request.path))
        if handler is None:
            known_paths = {path for _, path in handlers}
            if request.path in known_paths:
                raise _HttpError(405, f"method {request.method} not allowed")
            raise _HttpError(404, f"unknown endpoint {request.path}")
        return await handler(request)

    # -------------------------------------------------------------- endpoints

    async def _handle_rewrite(self, request: _Request) -> Dict[str, Any]:
        payload = request.json()
        query = payload.get("query")
        if not isinstance(query, str) or not query:
            raise _HttpError(400, "body must carry a non-empty string 'query'")
        version, rows = await self._serve((query,))
        return {"version": version, "query": query, "rewrites": rows[0]}

    async def _handle_rewrite_batch(self, request: _Request) -> Dict[str, Any]:
        payload = request.json()
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _HttpError(400, "body must carry a non-empty list 'queries'")
        if not all(isinstance(query, str) and query for query in queries):
            raise _HttpError(400, "every entry of 'queries' must be a non-empty string")
        version, rows = await self._serve(queries)
        return {
            "version": version,
            "results": [
                {"query": query, "rewrites": row} for query, row in zip(queries, rows)
            ],
        }

    async def _publish_with_resilience(
        self, kind: str, attempt: Callable[[], int]
    ) -> int:
        """Run a publish attempt in the admin executor, behind retry + breaker.

        ``attempt`` is a zero-argument callable (``holder.refresh``/
        ``holder.reload`` closure) whose failure taxonomy decides the
        response:

        - ``KeyError``/``ValueError``: the client's input does not match
          the served state -- 400, never retried, breaker untouched.
        - :class:`SnapshotError` / :class:`StoreError`: the pointed-at
          snapshot directory or serving-store file is corrupt or
          mid-write -- 500 with the old engine still published, never
          retried (the bytes will not get better on their own).
        - anything else is transient: each failed attempt is recorded
          against the breaker and retried after a backoff, aborting early
          if the breaker opens mid-request.

        When the breaker refuses the request outright, the client gets a
        503 that names the stale-but-serving engine version -- shed, not
        failed: traffic is unaffected.
        """
        assert self._loop is not None
        if not self._breaker.allow():
            self._counters.rejected_breaker_open += 1
            raise _HttpError(
                503,
                f"{kind} rejected: publish circuit breaker is "
                f"{self._breaker.state}; still serving engine version "
                f"{self._holder.version}",
            )
        delays = self._retry.delays()
        while True:
            try:
                version = await self._loop.run_in_executor(
                    self._admin_executor, attempt
                )
            except (KeyError, ValueError) as exc:
                # A delta that does not match the served graph state (edge
                # already present / absent) is a client error, not a crash.
                self._breaker.release()
                raise _HttpError(400, f"delta rejected: {exc}") from exc
            except SnapshotError as exc:
                self._breaker.release()
                raise _HttpError(500, f"snapshot rejected: {exc}") from exc
            except StoreError as exc:
                self._breaker.release()
                raise _HttpError(500, f"store rejected: {exc}") from exc
            except Exception as exc:  # noqa: BLE001 -- transient publish failure
                self._breaker.record_failure()
                delay = next(delays, None)
                if delay is None or not self._breaker.allow():
                    raise _HttpError(
                        500, f"{kind} failed: {type(exc).__name__}: {exc}"
                    ) from exc
                self._counters.publish_retries += 1
                await asyncio.sleep(delay)
            else:
                self._breaker.record_success()
                return version

    async def _handle_refresh(self, request: _Request) -> Dict[str, Any]:
        try:
            delta = delta_from_payload(request.json())
        except _HttpError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"invalid delta payload: {exc}") from exc
        assert self._loop is not None
        started = self._loop.time()
        version = await self._publish_with_resilience(
            "refresh", lambda: self._holder.refresh(delta)
        )
        self._counters.refreshes += 1
        info = self._holder.engine.last_refresh
        return {
            "version": version,
            "seconds": self._loop.time() - started,
            "refresh": dataclasses.asdict(info) if info is not None else None,
        }

    async def _handle_reload(self, request: _Request) -> Dict[str, Any]:
        payload = request.json()
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise _HttpError(400, "body must carry a non-empty string 'path'")
        precompute = bool(payload.get("precompute", False))
        assert self._loop is not None
        started = self._loop.time()

        def _reload() -> int:
            return self._holder.reload(path, precompute=precompute)

        version = await self._publish_with_resilience("reload", _reload)
        self._counters.reloads += 1
        return {
            "version": version,
            "seconds": self._loop.time() - started,
            "path": path,
        }

    @property
    def health(self) -> str:
        """``healthy`` / ``degraded`` / ``draining`` (see :func:`classify_health`).

        Degraded means the stale engine is still answering but the refresh
        path is struggling (open/half-open breaker, or the last publish
        attempt failed); one successful refresh returns to healthy.
        """
        return classify_health(
            draining=self._draining,
            breaker_closed=self._breaker.closed,
            consecutive_failures=self._holder.consecutive_failures,
        )

    async def _handle_healthz(self, request: _Request) -> Dict[str, Any]:
        engine, version = self._holder.current()
        return {
            "status": self.health,
            "version": version,
            "fitted": engine.is_fitted,
            "staleness_s": self._holder.staleness_seconds,
            "breaker": self._breaker.state,
        }

    async def _handle_stats(self, request: _Request) -> Dict[str, Any]:
        assert self._loop is not None
        engine, version = self._holder.current()
        counters = self._counters
        return {
            "uptime_s": (
                self._loop.time() - self._started_at if self._started_at else 0.0
            ),
            "engine": {
                "version": version,
                "swaps": self._holder.swaps,
                "fitted": engine.is_fitted,
                "cache": dataclasses.asdict(engine.cache_info()),
                "last_swap_seconds": self._holder.last_swap_seconds,
                # Store-backed engines (serve --store) report their serving
                # source and lookup counters; None for direct serving.
                "store": (
                    store.describe()
                    if (store := getattr(engine, "serving_store", None)) is not None
                    else None
                ),
            },
            "requests": {
                "total": counters.requests,
                "by_endpoint": dict(counters.endpoints),
                "by_status": {
                    str(status): count
                    for status, count in sorted(counters.responses.items())
                },
                "rejected_queue_full": counters.rejected_queue_full,
                "timeouts": counters.timeouts,
            },
            # One executor dispatch per request, so batches == batched_requests,
            # max_batch is 1 once any request has run, and queue_high_water is
            # the peak of admitted in-flight requests.
            "batching": {
                "batches": counters.dispatches,
                "batched_requests": counters.dispatches,
                "max_batch": min(counters.dispatches, 1),
                "unique_rewrites_served": counters.rewrites_served,
                "queue_high_water": counters.in_flight_high_water,
            },
            "refreshes": counters.refreshes,
            "reloads": counters.reloads,
            "latency_ms": self._latency.summary(),
            "draining": self._draining,
            "health": {
                "state": self.health,
                "staleness_s": self._holder.staleness_seconds,
                "breaker": self._breaker.describe(),
                "publish": {
                    "failures": self._holder.publish_failures,
                    "consecutive_failures": self._holder.consecutive_failures,
                    "last_error": self._holder.last_error,
                    "last_failure_at": self._holder.last_failure_at,
                    "retries": counters.publish_retries,
                    "rejected_breaker_open": counters.rejected_breaker_open,
                },
            },
        }

    # ----------------------------------------------------------------- output

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
