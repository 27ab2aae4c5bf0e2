"""RewriteServer: endpoints, admission, framing, shutdown, refresh-under-traffic.

The concurrency test here is the serving tier's acceptance contract: N
async clients hammer ``/rewrite`` while refresh and hot-reload cycles swap
the engine underneath them, and every single response must (a) succeed and
(b) exactly match the ground-truth ``rewrite()`` output of the one engine
version that served it -- pre- or post-swap, never a mixture.
"""

import asyncio
import json

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core import faults
from repro.core.config import SimrankConfig
from repro.graph.delta import DeltaBuilder
from repro.serving import (
    EngineHolder,
    RewriteServer,
    ServerConfig,
    ZipfSchedule,
    delta_to_payload,
    http_request,
    request_once,
    run_load,
)


def run_strict(scenario):
    """Run ``scenario()`` and fail if asyncio reports any unhandled error.

    A connection handler that dies with an exception (or is cancelled) is
    reported through the loop's exception handler, not raised to the test.
    """
    reported = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context)
        )
        return await scenario()

    result = asyncio.run(main())
    assert not reported, [
        (context.get("message"), repr(context.get("exception"))) for context in reported
    ]
    return result


async def wait_in_flight(host, port):
    """Poll /stats until a rewrite request has been admitted."""
    for _ in range(200):
        _, stats = await request_once(host, port, "GET", "/stats")
        if stats["batching"]["queue_high_water"] >= 1:
            return
        await asyncio.sleep(0.01)
    raise AssertionError("no rewrite request was ever in flight")


async def raw_exchange(host, port, data):
    """Send raw bytes and read until the server closes: (status, headers, body, rest)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(data)
        await writer.drain()
        reply = await asyncio.wait_for(reader.read(), timeout=5)
    finally:
        writer.close()
    head, _, rest = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith("HTTP/1.1 "), reply
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines[1:])
    }
    length = int(headers["content-length"])
    return int(lines[0].split()[1]), headers, json.loads(rest[:length]), rest[length:]


def build_engine(graph, cache_size=None, tolerance=1e-8):
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=30, tolerance=tolerance),
        cache_size=cache_size,
        bid_filtering=False,
    )
    return RewriteEngine.from_graph(graph, config).fit()


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def engine(small_weighted_graph):
    return build_engine(small_weighted_graph)


class TestEndpoints:
    def test_healthz_reports_version_and_fitted(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(*server.address, "GET", "/healthz")

        status, payload = run(scenario())
        assert status == 200
        assert payload["status"] == "healthy"
        assert payload["version"] == 1
        assert payload["fitted"] is True
        assert payload["breaker"] == "closed"
        assert payload["staleness_s"] >= 0.0

    def test_rewrite_matches_engine_ground_truth(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(
                    *server.address, "POST", "/rewrite", {"query": "camera"}
                )

        status, payload = run(scenario())
        assert status == 200
        assert payload["version"] == 1
        expected = [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in engine.rewrite("camera").rewrites
        ]
        assert payload["rewrites"] == expected

    def test_rewrite_batch_is_aligned_and_single_version(self, engine):
        queries = ["camera", "pc", "camera", "flower"]

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(
                    *server.address, "POST", "/rewrite_batch", {"queries": queries}
                )

        status, payload = run(scenario())
        assert status == 200
        assert [row["query"] for row in payload["results"]] == queries
        # Duplicates in one batch serve byte-identical rewrites.
        assert payload["results"][0]["rewrites"] == payload["results"][2]["rewrites"]

    def test_refresh_swaps_version_and_serves_new_state(self, engine):
        delta = (
            DeltaBuilder(engine.graph)
            .set_edge("tablet", "bestbuy.com", impressions=150, clicks=15)
            .build()
        )

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                address = server.address
                before = await request_once(
                    address[0], address[1], "POST", "/rewrite", {"query": "tablet"}
                )
                refreshed = await request_once(
                    address[0], address[1], "POST", "/refresh", delta_to_payload(delta)
                )
                after = await request_once(
                    address[0], address[1], "POST", "/rewrite", {"query": "tablet"}
                )
                return before, refreshed, after

        (status_b, before), (status_r, refreshed), (status_a, after) = run(scenario())
        assert (status_b, status_r, status_a) == (200, 200, 200)
        assert before["version"] == 1 and before["rewrites"] == []
        assert refreshed["version"] == 2
        assert refreshed["refresh"]["refit"] is True
        assert after["version"] == 2 and after["rewrites"]  # tablet now covered

    def test_reload_hot_swaps_a_snapshot(self, engine, small_weighted_graph, tmp_path):
        # Offline: a *different* fit (no flower cluster) snapshotted to disk.
        trimmed = small_weighted_graph.copy()
        trimmed.remove_edge("flower", "teleflora.com")
        trimmed.remove_edge("flower", "orchids.com")
        offline = build_engine(trimmed)
        offline.save(tmp_path / "snap")

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                address = server.address
                reloaded = await request_once(
                    address[0],
                    address[1],
                    "POST",
                    "/reload",
                    {"path": str(tmp_path / "snap"), "precompute": True},
                )
                after = await request_once(
                    address[0], address[1], "POST", "/rewrite", {"query": "orchids"}
                )
                return reloaded, after

        (status_r, reloaded), (status_a, after) = run(scenario())
        assert status_r == 200 and reloaded["version"] == 2
        assert status_a == 200 and after["version"] == 2
        expected = [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in offline.rewrite("orchids").rewrites
        ]
        assert after["rewrites"] == expected

    def test_stats_reports_batching_and_cache(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                address = server.address
                for _ in range(3):
                    await request_once(
                        address[0], address[1], "POST", "/rewrite", {"query": "camera"}
                    )
                return await request_once(address[0], address[1], "GET", "/stats")

        status, stats = run(scenario())
        assert status == 200
        assert stats["requests"]["total"] == 4  # 3 rewrites + the /stats call itself
        assert stats["requests"]["by_endpoint"]["/rewrite"] == 3
        # One executor dispatch per request; the requests ran one at a time.
        assert stats["batching"] == {
            "batches": 3,
            "batched_requests": 3,
            "max_batch": 1,
            "unique_rewrites_served": 3,
            "queue_high_water": 1,
        }
        assert stats["engine"]["version"] == 1
        assert stats["engine"]["cache"]["size"] >= 1
        assert stats["latency_ms"]["count"] == 3


class TestErrors:
    def test_unknown_endpoint_404(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(*server.address, "GET", "/nope")

        status, payload = run(scenario())
        assert status == 404 and "unknown endpoint" in payload["error"]

    def test_wrong_method_405(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(*server.address, "GET", "/rewrite")

        status, payload = run(scenario())
        assert status == 405

    def test_missing_query_400(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(*server.address, "POST", "/rewrite", {})

        status, payload = run(scenario())
        assert status == 400 and "query" in payload["error"]

    def test_invalid_json_400(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                body = b"{not json"
                writer.write(
                    b"POST /rewrite HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                line = await reader.readline()
                writer.close()
                return int(line.split()[1])

        assert run(scenario()) == 400

    def test_stale_delta_refresh_400_and_keeps_serving(self, engine):
        delta = DeltaBuilder(engine.graph).remove_edge("camera", "hp.com").build()

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                address = server.address
                first = await request_once(
                    address[0], address[1], "POST", "/refresh", delta_to_payload(delta)
                )
                second = await request_once(
                    address[0], address[1], "POST", "/refresh", delta_to_payload(delta)
                )
                health = await request_once(address[0], address[1], "GET", "/healthz")
                return first, second, health

        (s1, first), (s2, second), (s3, health) = run(scenario())
        assert s1 == 200 and first["version"] == 2
        assert s2 == 400  # the same removal again no longer matches the graph
        assert s3 == 200 and health["version"] == 2  # nothing was published


class TestFraming:
    MALFORMED = {
        "non-numeric length": (
            b"POST /rewrite HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            "Content-Length",
        ),
        "negative length": (
            b"POST /rewrite HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            "Content-Length",
        ),
        # Headers only: the server answers before reading any chunk.
        "chunked body": (
            b"POST /rewrite HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "Transfer-Encoding",
        ),
    }

    def test_malformed_framing_gets_400_close_and_is_counted(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                host, port = server.address
                replies = {
                    name: await raw_exchange(host, port, data)
                    for name, (data, _) in self.MALFORMED.items()
                }
                _, stats = await request_once(host, port, "GET", "/stats")
                return replies, stats

        replies, stats = run_strict(scenario)
        for name, (_, mentions) in self.MALFORMED.items():
            status, headers, payload, rest = replies[name]
            assert status == 400, name
            assert headers["connection"] == "close", name
            assert mentions in payload["error"], name
            assert rest == b"", f"{name}: exactly one response, then close"
        assert stats["requests"]["by_status"]["400"] == len(self.MALFORMED)

    # Both past asyncio's default 64 KiB StreamReader line limit.
    OVERSIZED = {
        "request line": (
            b"POST /" + b"x" * 70_000 + b" HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
            400,
            "request line",
        ),
        "header line": (
            b"GET /healthz HTTP/1.1\r\nX-Padding: " + b"x" * 70_000 + b"\r\n\r\n",
            431,
            "header line",
        ),
    }

    def test_oversized_lines_get_a_counted_4xx_and_close(self, engine):
        """Regression: an over-long line raised ValueError out of the
        connection handler (reported to the loop, no response at all)."""

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                host, port = server.address
                replies = {
                    name: await raw_exchange(host, port, data)
                    for name, (data, _, _) in self.OVERSIZED.items()
                }
                # The server still serves normally afterwards.
                health = await request_once(host, port, "GET", "/healthz")
                _, stats = await request_once(host, port, "GET", "/stats")
                return replies, health, stats

        replies, (health_status, _), stats = run_strict(scenario)
        for name, (_, expected_status, mentions) in self.OVERSIZED.items():
            status, headers, payload, rest = replies[name]
            assert status == expected_status, name
            assert headers["connection"] == "close", name
            assert mentions in payload["error"], name
            assert rest == b"", f"{name}: exactly one response, then close"
        assert health_status == 200
        assert stats["requests"]["by_status"]["400"] == 1
        assert stats["requests"]["by_status"]["431"] == 1


class TestAdmission:
    def test_request_past_queue_size_is_shed_with_503(self, engine):
        config = ServerConfig(queue_size=1, max_concurrency=1)

        async def scenario():
            async with RewriteServer(EngineHolder(engine), config) as server:
                host, port = server.address
                with faults.FaultPlan(
                    [faults.FaultSpec("serving.compute", latency_s=0.5, times=1)]
                ):
                    slow = asyncio.create_task(
                        request_once(host, port, "POST", "/rewrite", {"query": "camera"})
                    )
                    await wait_in_flight(host, port)
                    shed = await request_once(
                        host, port, "POST", "/rewrite", {"query": "pc"}
                    )
                    first = await slow
                _, stats = await request_once(host, port, "GET", "/stats")
                return first, shed, stats

        (first_status, first), (shed_status, shed), stats = run_strict(scenario)
        assert first_status == 200 and first["query"] == "camera"
        assert shed_status == 503 and "queue is full" in shed["error"]
        assert stats["requests"]["rejected_queue_full"] == 1
        assert stats["batching"]["queue_high_water"] == 1


class TestShutdown:
    def test_stop_drains_a_slow_in_flight_request(self, engine):
        async def scenario():
            server = RewriteServer(EngineHolder(engine))
            await server.start()
            host, port = server.address
            with faults.FaultPlan(
                [faults.FaultSpec("serving.compute", latency_s=0.3, times=1)]
            ):
                slow = asyncio.create_task(
                    request_once(host, port, "POST", "/rewrite", {"query": "camera"})
                )
                await wait_in_flight(host, port)
                await server.stop()
            return await slow

        status, payload = run_strict(scenario)
        assert status == 200
        assert payload["rewrites"] == [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in engine.rewrite("camera").rewrites
        ]

    def test_stop_past_drain_window_aborts_the_request_cleanly(self, engine):
        async def scenario():
            server = RewriteServer(EngineHolder(engine))
            await server.start()
            host, port = server.address
            with faults.FaultPlan(
                [faults.FaultSpec("serving.compute", latency_s=0.3, times=1)]
            ):
                slow = asyncio.create_task(
                    request_once(host, port, "POST", "/rewrite", {"query": "camera"})
                )
                await wait_in_flight(host, port)
                await server.stop(drain_timeout_s=0)
            with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
                await slow

        run_strict(scenario)

    def test_stop_closes_idle_keep_alive_connection_cleanly(self, engine):
        async def scenario():
            server = RewriteServer(EngineHolder(engine))
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            status, _ = await http_request(reader, writer, "GET", "/healthz")
            # The connection stays open and idle while the server stops.
            await server.stop()
            leftover = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return status, leftover

        status, leftover = run_strict(scenario)
        assert status == 200
        assert leftover == b"", "the server closes the idle connection"

    def test_stop_drains_and_refuses_new_connections(self, engine):
        async def scenario():
            server = RewriteServer(EngineHolder(engine))
            await server.start()
            host, port = server.address
            inflight = [
                asyncio.create_task(
                    request_once(host, port, "POST", "/rewrite", {"query": "camera"})
                )
                for _ in range(8)
            ]
            results = await asyncio.gather(*inflight)
            await server.stop()
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            return results

        results = run(scenario())
        assert all(status == 200 for status, _ in results)

    def test_stop_is_idempotent(self, engine):
        async def scenario():
            server = RewriteServer(EngineHolder(engine))
            await server.start()
            await server.stop()
            await server.stop()  # second stop is a no-op

        run(scenario())


class TestConcurrentServingWithRefreshCycles:
    """The satellite test: no errors, no torn reads, under swap churn."""

    def test_zipf_load_with_refresh_and_reload_cycles(
        self, small_weighted_graph, tmp_path
    ):
        engine = build_engine(small_weighted_graph)
        # A hot-reload candidate: an independently fitted snapshot.
        build_engine(small_weighted_graph.copy()).save(tmp_path / "snap")
        holder = EngineHolder(engine)
        # Record every published engine so responses can be verified
        # against the exact version that served them.
        engines_by_version = {holder.version: holder.engine}
        holder.add_swap_listener(
            lambda version, published: engines_by_version.setdefault(version, published)
        )
        queries = sorted(str(q) for q in small_weighted_graph.queries())
        schedule = ZipfSchedule(queries, alpha=1.2, seed=7).sample(300)

        async def refresh_cycles(server, rounds):
            # Incremental refreshes first (each needs the live click graph),
            # then a hot-reload, which swaps in the graphless snapshot engine.
            host, port = server.address
            for i in range(rounds):
                delta = (
                    DeltaBuilder(holder.engine.graph)
                    .set_edge(
                        f"hot-query-{i}", "bestbuy.com", impressions=100, clicks=10
                    )
                    .build()
                )
                status, _ = await request_once(
                    host, port, "POST", "/refresh", delta_to_payload(delta)
                )
                assert status == 200
                await asyncio.sleep(0.005)
            status, _ = await request_once(
                host, port, "POST", "/reload", {"path": str(tmp_path / "snap")}
            )
            assert status == 200

        async def scenario():
            config = ServerConfig(max_concurrency=4)
            async with RewriteServer(holder, config) as server:
                refresher = asyncio.create_task(refresh_cycles(server, rounds=4))
                report = await run_load(
                    *server.address,
                    schedule,
                    concurrency=8,
                    record_responses=True,
                )
                await refresher
                return report

        report = run(scenario())
        assert report.failed == 0, report.errors[:3]
        assert report.succeeded == len(schedule)
        assert len(report.versions) >= 2  # swaps actually happened mid-load
        # Every response must equal the ground truth of the engine version
        # that served it -- the no-torn-reads guarantee.
        for response in report.responses:
            served_by = engines_by_version[response.version]
            expected = tuple(
                (r.rewrite, r.rank, r.score)
                for r in served_by.rewrite(response.query).rewrites
            )
            assert response.rewrites == expected, (
                f"torn read: {response.query!r} at version {response.version}"
            )
