"""Zipf-skewed load generator for the rewrite server.

Production query traffic is heavily skewed: a few hot queries dominate and
a long cold tail trickles.  Following the cold-start traffic-replay design
of the Adjacent experiment (SNIPPETS.md §3), :class:`ZipfSchedule` assigns
each query a power-law popularity (``weight(rank) = rank ** -alpha``,
alpha ~ 1.2) and samples a replayable request schedule from it, so a load
run exercises exactly the hot/cold mix the serving cache is built for.

:func:`run_load` replays a schedule against a running
:class:`~repro.serving.server.RewriteServer` over ``concurrency``
keep-alive connections, records per-request latency and the engine version
that answered, and returns a :class:`LoadReport` with p50/p95/p99
percentiles.  With ``record_responses=True`` every response body is kept
so a consistency checker can verify each one against the exact engine
version that served it -- the zero-downtime gate of
``benchmarks/bench_serving_load.py``.

Everything here is stdlib-only (``asyncio`` + ``json`` + ``random``); the
same minimal HTTP client (:func:`http_request` / :func:`request_once`) is
reused by the tests and the serve demo.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import faults
from repro.serving.metrics import summarize_latencies

__all__ = [
    "ZipfSchedule",
    "LoadReport",
    "RecordedResponse",
    "http_request",
    "request_once",
    "run_load",
]


# ---------------------------------------------------------------- scheduling


class ZipfSchedule:
    """A replayable, Zipf-skewed query schedule over a fixed query universe.

    ``queries`` are ranked in the given order: the first entry is the
    hottest.  Rank ``r`` (1-based) gets sampling weight ``r ** -alpha``;
    with the default ``alpha=1.2`` (the Adjacent experiment's choice) the
    head of the distribution dominates while every cold-tail query still
    appears eventually -- the mix that makes bounded serving caches earn
    their keep.
    """

    def __init__(
        self, queries: Sequence[str], alpha: float = 1.2, seed: int = 0
    ) -> None:
        if not queries:
            raise ValueError("ZipfSchedule needs at least one query")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.queries = list(queries)
        self.alpha = alpha
        self.seed = seed
        self._weights = [
            (rank + 1) ** -alpha for rank in range(len(self.queries))
        ]

    def hot_set(self, fraction: float = 0.1) -> List[str]:
        """The hottest ``fraction`` of the query universe (at least one)."""
        count = max(1, int(len(self.queries) * fraction))
        return self.queries[:count]

    def sample(self, num_requests: int) -> List[str]:
        """A deterministic (seeded) request schedule of ``num_requests`` queries."""
        if num_requests < 0:
            raise ValueError(f"num_requests must be >= 0, got {num_requests}")
        rng = random.Random(self.seed)
        return rng.choices(self.queries, weights=self._weights, k=num_requests)


# -------------------------------------------------------------- HTTP client


async def http_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
) -> Tuple[int, Dict[str, Any]]:
    """One HTTP/1.1 request over an open keep-alive connection.

    Returns ``(status, decoded JSON body)``.  The connection stays usable
    for the next request unless the server answered ``Connection: close``.
    """
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    content_length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            content_length = int(value.strip())
    raw = await reader.readexactly(content_length) if content_length else b""
    return status, json.loads(raw) if raw else {}


async def request_once(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
) -> Tuple[int, Dict[str, Any]]:
    """Open a connection, run one request, close -- for admin/control calls."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await http_request(reader, writer, method, path, payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:  # noqa: BLE001 -- closing a dead socket is fine
            pass


# ------------------------------------------------------------------ the run


@dataclass(frozen=True)
class RecordedResponse:
    """One load-run response, attributable to a single engine version."""

    query: str
    version: int
    rewrites: Tuple[Tuple[str, int, float], ...]  # (rewrite, rank, score)


@dataclass
class LoadReport:
    """What a :func:`run_load` replay measured.

    Every request lands in exactly one outcome bucket:

    - ``succeeded``: HTTP 200.
    - ``shed``: HTTP 503 -- the server *chose* not to serve (queue full,
      draining, breaker open).  Deliberate load management, not a failure.
    - ``timed_out``: HTTP 504 -- the request exceeded its configured
      deadline budget.  Also deliberate: the server cut it, not lost it.
    - ``failed``: everything else -- 5xx/4xx errors, connection drops,
      malformed bodies.  The chaos gate's availability target counts only
      these against the server.
    """

    requests: int = 0
    succeeded: int = 0
    failed: int = 0
    shed: int = 0
    timed_out: int = 0
    duration_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: engine version -> how many responses it served.
    versions: Dict[int, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    responses: List[RecordedResponse] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.succeeded / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def availability(self) -> float:
        """Fraction of *non-deliberate* outcomes that succeeded.

        Sheds (503) and deadline timeouts (504) are the server managing
        load on purpose, so they are excluded from the denominator; only
        genuine failures count against availability.  1.0 when nothing
        remains in the denominator.
        """
        denominator = self.succeeded + self.failed
        return self.succeeded / denominator if denominator else 1.0

    def latency_summary(self) -> Dict[str, float]:
        return summarize_latencies(self.latencies_ms)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (individual responses are not included)."""
        return {
            "requests": self.requests,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "availability": self.availability,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": self.latency_summary(),
            "versions": {str(version): count for version, count in sorted(self.versions.items())},
            "errors": self.errors[:10],
        }


async def run_load(
    host: str,
    port: int,
    schedule: Sequence[str],
    concurrency: int = 8,
    record_responses: bool = False,
    fault_schedule: Optional[faults.FaultSchedule] = None,
) -> LoadReport:
    """Replay ``schedule`` against a rewrite server and measure latency.

    ``concurrency`` workers each hold one keep-alive connection and pull
    the next query from the shared schedule, so the offered load mirrors
    ``concurrency`` independent clients.  Every outcome is classified (see
    :class:`LoadReport`): 503s are sheds, 504s are deadline timeouts,
    anything else non-200 (or a dropped connection) is a failure, after
    which the worker reconnects and keeps going -- the zero-downtime gate
    asserts ``failed == 0``, the chaos gate asserts ``availability``.

    ``fault_schedule`` replays a scripted
    :class:`~repro.core.faults.FaultSchedule` while the load is in flight:
    each event (de)activates a process-wide fault plan at its ``at_s``
    offset from the start of the run.  Whatever plan was active before the
    run is restored afterwards, so fault windows never leak out of the
    replay.  This only injects into a server running in *this* process.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    report = LoadReport(requests=len(schedule))
    queue: "asyncio.Queue[str]" = asyncio.Queue()
    for query in schedule:
        queue.put_nowait(query)

    async def replay_faults(events: Sequence[faults.FaultEvent]) -> None:
        run_started = time.perf_counter()
        for event in events:
            delay = event.at_s - (time.perf_counter() - run_started)
            if delay > 0:
                await asyncio.sleep(delay)
            faults.activate(event.plan)

    async def worker() -> None:
        reader: Optional[asyncio.StreamReader] = None
        writer: Optional[asyncio.StreamWriter] = None

        async def close() -> None:
            nonlocal reader, writer
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception:  # noqa: BLE001
                    pass
            reader = writer = None

        try:
            while True:
                try:
                    query = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                started = time.perf_counter()
                try:
                    if reader is None or writer is None:
                        reader, writer = await asyncio.open_connection(host, port)
                    status, payload = await http_request(
                        reader, writer, "POST", "/rewrite", {"query": query}
                    )
                except Exception as exc:  # noqa: BLE001 -- recorded, not fatal
                    report.failed += 1
                    report.errors.append(f"{query!r}: {type(exc).__name__}: {exc}")
                    await close()
                    continue
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                if status == 503:
                    report.shed += 1
                    continue
                if status == 504:
                    report.timed_out += 1
                    continue
                if status != 200:
                    report.failed += 1
                    report.errors.append(
                        f"{query!r}: HTTP {status}: {payload.get('error', '?')}"
                    )
                    continue
                report.succeeded += 1
                report.latencies_ms.append(elapsed_ms)
                version = int(payload["version"])
                report.versions[version] = report.versions.get(version, 0) + 1
                if record_responses:
                    report.responses.append(
                        RecordedResponse(
                            query=query,
                            version=version,
                            rewrites=tuple(
                                (row["rewrite"], row["rank"], row["score"])
                                for row in payload["rewrites"]
                            ),
                        )
                    )
        finally:
            await close()

    started = time.perf_counter()
    replay_task: Optional["asyncio.Task[None]"] = None
    previous_plan = faults.active_plan()
    if fault_schedule is not None and fault_schedule.events:
        replay_task = asyncio.get_running_loop().create_task(
            replay_faults(fault_schedule.events)
        )
    try:
        await asyncio.gather(*(worker() for _ in range(concurrency)))
    finally:
        if replay_task is not None:
            replay_task.cancel()
            try:
                await replay_task
            except asyncio.CancelledError:
                pass
            faults.activate(previous_plan)
    report.duration_s = time.perf_counter() - started
    return report
