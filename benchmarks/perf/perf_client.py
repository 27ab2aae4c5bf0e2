"""Stdlib-asyncio HTTP/1.1 client and load generator of the perf benchmark.

Deliberately independent of ``repro.serving.loadgen`` and
``repro.serving.metrics``: a change to the serving code cannot change how
it is measured.

* Open loop: request ``i`` is due at ``start + i / rate`` whatever happened
  before it, and its latency is timed from that due time, so a stall also
  charges the requests queued behind it.  How late the generator itself
  woke up (only counted when a connection was idle and waiting for the due
  time) is reported separately: it shows the numbers measure the server.
* Closed loop: each connection sends its next request as soon as the
  previous response arrives; throughput is completed responses per second.

Response bodies are kept as bytes and checked after the phase, which keeps
JSON parsing off the timed path.  Nothing here opens files or starts
processes: ``perf_bench.py`` reads ``/proc`` between phases.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

#: A ``/rewrite`` that takes longer than this counts as failed.
CLIENT_TIMEOUT_S = 5.0
#: A ``/refresh`` refits the engine, so it gets longer.
REFRESH_TIMEOUT_S = 120.0


class Connection:
    """One keep-alive HTTP/1.1 connection; one request in flight at a time."""

    def __init__(self, host: str, port: int, timeout_s: float = CLIENT_TIMEOUT_S) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None

    async def _exchange(self, request: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        self._writer.write(request)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await self._reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b""
        return status, body

    async def request(self, request: bytes) -> Tuple[int, bytes]:
        """Send pre-encoded request bytes; ``(0, b"")`` on any transport failure."""
        try:
            return await asyncio.wait_for(self._exchange(request), self.timeout_s)
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError,
                IndexError, asyncio.IncompleteReadError):
            # The connection is in an unknown state: start a fresh one.
            await self.close()
            return 0, b""


def encode(method: str, path: str, payload: Optional[dict] = None) -> bytes:
    """A complete HTTP/1.1 request as bytes."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def rewrite_request(query: str) -> bytes:
    return encode("POST", "/rewrite", {"query": query})


@dataclass
class Sample:
    """One ``/rewrite`` exchange."""

    index: int
    status: int
    body: bytes
    latency_s: float
    #: Open loop only: how late the generator woke for an idle connection.
    late_s: Optional[float] = None


@dataclass
class PhaseResult:
    samples: List[Sample] = field(default_factory=list)
    #: Closed loop only: how long the reading connections ran.
    elapsed_s: float = 0.0
    #: ``(round_trip_s, status, body)`` of each ``/refresh`` sent in the phase.
    refreshes: List[Tuple[float, int, bytes]] = field(default_factory=list)


async def _refresher(
    host: str, port: int, payloads: Iterator[bytes], end: float, stop: asyncio.Event,
    out: List[Tuple[float, int, bytes]],
) -> None:
    """POST /refresh back to back, the next as soon as the previous returns.

    Reads then always run beside a refit.  The phase ends (``stop``) when
    the refresh in flight at ``end`` returns, so it covers whole refresh
    cycles: each cycle starts with a short stall (the engine copy), and a
    phase cut mid-cycle would count a varying number of them.
    """
    loop = asyncio.get_running_loop()
    connection = Connection(host, port, REFRESH_TIMEOUT_S)
    try:
        while loop.time() < end:
            payload = next(payloads, None)
            if payload is None:
                await asyncio.sleep(max(0.0, end - loop.time()))
                break
            sent = loop.time()
            status, body = await connection.request(payload)
            out.append((loop.time() - sent, status, body))
    finally:
        stop.set()
        await connection.close()


async def open_loop(
    host: str, port: int, requests: Sequence[bytes], rate: float, seconds: float,
    connections: int, refreshes: Optional[Iterator[bytes]] = None,
) -> PhaseResult:
    """Send ``requests[i]`` at ``start + i / rate`` for ``seconds``.

    With ``refreshes``, one more connection sends them back to back and the
    phase runs on to the end of the refresh in flight at ``seconds``;
    ``requests`` must cover that too.
    """
    loop = asyncio.get_running_loop()
    pool = [Connection(host, port) for _ in range(connections)]
    for connection in pool:
        await connection.connect()
    samples: List[Optional[Sample]] = [None] * len(requests)
    result = PhaseResult()
    start = loop.time() + 0.05
    end = start + seconds
    stop = asyncio.Event()
    indices = iter(range(len(requests)))

    async def worker(connection: Connection) -> None:
        for index in indices:
            due = start + index / rate
            late = None
            if loop.time() < due:
                await asyncio.sleep(due - loop.time())
                late = loop.time() - due
            if stop.is_set() or (refreshes is None and due >= end):
                return
            status, body = await connection.request(requests[index])
            samples[index] = Sample(index, status, body, loop.time() - due, late)

    tasks = [worker(connection) for connection in pool]
    if refreshes is not None:
        tasks.append(_refresher(host, port, refreshes, end, stop, result.refreshes))
    try:
        await asyncio.gather(*tasks)
    finally:
        for connection in pool:
            await connection.close()
    result.samples = [sample for sample in samples if sample is not None]
    return result


async def closed_loop(
    host: str, port: int, requests: Sequence[bytes], seconds: float, connections: int,
    refreshes: Optional[Iterator[bytes]] = None,
) -> PhaseResult:
    """Back-to-back requests on each connection for ``seconds``.

    ``requests`` are taken in order (cycling) across all connections.  With
    ``refreshes``, the phase ends as :func:`open_loop`'s does.
    """
    loop = asyncio.get_running_loop()
    pool = [Connection(host, port) for _ in range(connections)]
    for connection in pool:
        await connection.connect()
    result = PhaseResult()
    counter = iter(range(1 << 62))
    start = loop.time()
    end = start + seconds
    stop = asyncio.Event()
    if refreshes is None:
        loop.call_at(end, stop.set)

    async def worker(connection: Connection) -> None:
        while not stop.is_set():
            index = next(counter)
            sent = loop.time()
            status, body = await connection.request(requests[index % len(requests)])
            result.samples.append(Sample(index, status, body, loop.time() - sent))
        result.elapsed_s = max(result.elapsed_s, loop.time() - start)

    tasks = [worker(connection) for connection in pool]
    if refreshes is not None:
        tasks.append(_refresher(host, port, refreshes, end, stop, result.refreshes))
    try:
        await asyncio.gather(*tasks)
    finally:
        for connection in pool:
            await connection.close()
    return result


async def get_json(host: str, port: int, path: str) -> dict:
    """One GET on a fresh connection, decoded (for /stats)."""
    connection = Connection(host, port)
    try:
        status, body = await connection.request(encode("GET", path))
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
    return json.loads(body)


async def healthz_latencies(host: str, port: int, calls: int) -> List[float]:
    """``calls`` sequential ``GET /healthz`` round trips on one connection."""
    loop = asyncio.get_running_loop()
    connection = Connection(host, port)
    request = encode("GET", "/healthz")
    latencies = []
    try:
        for _ in range(calls):
            sent = loop.time()
            status, _ = await connection.request(request)
            if status == 200:
                latencies.append(loop.time() - sent)
    finally:
        await connection.close()
    return latencies


async def wait_healthy(host: str, port: int, timeout_s: float) -> None:
    """Poll ``/healthz`` until it answers 200."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    request = encode("GET", "/healthz")
    while True:
        connection = Connection(host, port)
        try:
            status, _ = await connection.request(request)
        finally:
            await connection.close()
        if status == 200:
            return
        if loop.time() > deadline:
            raise RuntimeError(f"server on port {port} not healthy after {timeout_s}s")
        await asyncio.sleep(0.005)
