"""Serving resilience: deadlines, retried refresh, breaker, corrupt reload.

Every scenario here injects a real fault through :mod:`repro.core.faults`
and asserts the server's externally visible contract: traffic keeps being
served correctly from the published engine, failures surface as clean HTTP
errors, and health transitions follow healthy -> degraded -> healthy with
recovery within one successful refresh.
"""

import asyncio

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
    delta_to_payload,
    request_once,
)
from repro.synth.scenarios import multi_component_graph


def build_engine(graph, **config_kwargs):
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=20, tolerance=1e-8),
        bid_filtering=False,
        **config_kwargs,
    )
    return RewriteEngine.from_graph(graph, config).fit()


def run(coro):
    return asyncio.run(coro)


def bump_edge(builder, graph, query, ad):
    stats = graph.edge(query, ad)
    if stats is None:
        builder.set_edge(query, ad, impressions=30, clicks=3)
    else:
        builder.set_edge(
            query, ad, impressions=stats.impressions + 10, clicks=stats.clicks + 1
        )


def simple_delta(graph):
    builder = DeltaBuilder(graph)
    query = str(next(iter(graph.queries())))
    ad = str(next(iter(graph.ads_of(query))))
    bump_edge(builder, graph, query, ad)
    return builder.build()


@pytest.fixture
def engine(small_weighted_graph):
    return build_engine(small_weighted_graph)


class TestServerConfigValidation:
    def test_rejects_bad_resilience_knobs(self):
        with pytest.raises(ValueError, match="request_timeout_s"):
            ServerConfig(request_timeout_s=0)
        with pytest.raises(ValueError, match="request_timeout_s"):
            ServerConfig(request_timeout_s=-1.5)
        with pytest.raises(ValueError, match="refresh_retries"):
            ServerConfig(refresh_retries=-1)
        with pytest.raises(ValueError, match="refresh_backoff"):
            ServerConfig(refresh_backoff_s=-0.1)
        with pytest.raises(ValueError, match="refresh_backoff"):
            ServerConfig(refresh_backoff_max_s=-1)
        with pytest.raises(ValueError, match="breaker_threshold"):
            ServerConfig(breaker_threshold=0)
        with pytest.raises(ValueError, match="breaker_reset_s"):
            ServerConfig(breaker_reset_s=0)

    def test_accepts_defaults_and_none_timeout(self):
        config = ServerConfig()
        assert config.request_timeout_s is None
        assert ServerConfig(request_timeout_s=2.5).request_timeout_s == 2.5


class TestRequestDeadline:
    def test_slow_compute_times_out_with_504(self, engine):
        config = ServerConfig(request_timeout_s=0.15)
        query = str(next(iter(engine.graph.queries())))

        async def scenario():
            async with RewriteServer(EngineHolder(engine), config) as server:
                host, port = server.address
                with faults.FaultPlan(
                    [faults.FaultSpec("serving.compute", latency_s=1.0, times=1)]
                ):
                    slow = await request_once(
                        host, port, "POST", "/rewrite", {"query": query}
                    )
                fast = await request_once(
                    host, port, "POST", "/rewrite", {"query": query}
                )
                stats = await request_once(host, port, "GET", "/stats")
                return slow, fast, stats

        (slow_status, slow), (fast_status, _), (_, stats) = run(scenario())
        assert slow_status == 504
        assert "deadline" in slow["error"]
        assert fast_status == 200, "the deadline must not wedge later requests"
        assert stats["requests"]["timeouts"] == 1


class TestRefreshRetry:
    def test_transient_refresh_failure_is_retried_to_success(self, engine):
        config = ServerConfig(refresh_retries=2, refresh_backoff_s=0.01)
        holder = EngineHolder(engine)

        async def scenario():
            async with RewriteServer(holder, config) as server:
                host, port = server.address
                with faults.FaultPlan(
                    [faults.FaultSpec("engine.refresh", error="blip", times=1)]
                ) as plan:
                    status, payload = await request_once(
                        host,
                        port,
                        "POST",
                        "/refresh",
                        delta_to_payload(simple_delta(holder.engine.graph)),
                    )
                _, stats = await request_once(host, port, "GET", "/stats")
                _, health = await request_once(host, port, "GET", "/healthz")
                return status, payload, plan, stats, health

        status, payload, plan, stats, health = run(scenario())
        assert status == 200, payload
        assert payload["version"] == 2
        assert plan.fire_count("engine.refresh") == 1
        assert stats["health"]["publish"]["retries"] == 1
        assert stats["health"]["publish"]["failures"] == 1
        assert stats["health"]["publish"]["consecutive_failures"] == 0
        assert "blip" in stats["health"]["publish"]["last_error"]
        assert health["status"] == "healthy"

    def test_exhausted_retries_surface_500_and_publish_nothing(self, engine):
        config = ServerConfig(refresh_retries=1, refresh_backoff_s=0.01)
        holder = EngineHolder(engine)

        async def scenario():
            async with RewriteServer(holder, config) as server:
                host, port = server.address
                with faults.FaultPlan(
                    [faults.FaultSpec("engine.refresh", error="down", times=None)]
                ):
                    status, payload = await request_once(
                        host,
                        port,
                        "POST",
                        "/refresh",
                        delta_to_payload(simple_delta(holder.engine.graph)),
                    )
                    _, health = await request_once(host, port, "GET", "/healthz")
                return status, payload, health

        status, payload, health = run(scenario())
        assert status == 500
        assert "refresh failed" in payload["error"]
        assert holder.version == 1, "a failed refresh publishes nothing"
        assert health["status"] == "degraded"


class TestCircuitBreaker:
    def test_breaker_sheds_then_recovers_via_half_open_probe(self, engine):
        config = ServerConfig(
            refresh_retries=0,
            breaker_threshold=2,
            breaker_reset_s=0.2,
        )
        holder = EngineHolder(engine)
        query = str(next(iter(engine.graph.queries())))

        async def scenario():
            async with RewriteServer(holder, config) as server:
                host, port = server.address
                timeline = {}
                with faults.FaultPlan(
                    [faults.FaultSpec("engine.refresh", error="outage", times=None)]
                ):
                    delta_payload = delta_to_payload(
                        simple_delta(holder.engine.graph)
                    )
                    timeline["first"] = await request_once(
                        host, port, "POST", "/refresh", delta_payload
                    )
                    timeline["second"] = await request_once(
                        host, port, "POST", "/refresh", delta_payload
                    )
                    timeline["shed"] = await request_once(
                        host, port, "POST", "/refresh", delta_payload
                    )
                    timeline["health_open"] = await request_once(
                        host, port, "GET", "/healthz"
                    )
                    timeline["traffic"] = await request_once(
                        host, port, "POST", "/rewrite", {"query": query}
                    )
                # Faults cleared: wait out the reset window, then probe.
                await asyncio.sleep(config.breaker_reset_s + 0.1)
                timeline["probe"] = await request_once(
                    host,
                    port,
                    "POST",
                    "/refresh",
                    delta_to_payload(simple_delta(holder.engine.graph)),
                )
                timeline["health_after"] = await request_once(
                    host, port, "GET", "/healthz"
                )
                timeline["stats"] = await request_once(host, port, "GET", "/stats")
                return timeline

        timeline = run(scenario())
        assert timeline["first"][0] == 500
        assert timeline["second"][0] == 500
        shed_status, shed = timeline["shed"]
        assert shed_status == 503
        assert "breaker" in shed["error"]
        assert "version 1" in shed["error"], "the shed names the stale engine"
        assert timeline["health_open"][1]["status"] == "degraded"
        assert timeline["traffic"][0] == 200, "traffic survives an open breaker"
        probe_status, probe = timeline["probe"]
        assert probe_status == 200, f"half-open probe should publish: {probe}"
        assert timeline["health_after"][1]["status"] == "healthy"
        stats = timeline["stats"][1]
        assert stats["health"]["breaker"]["state"] == "closed"
        assert stats["health"]["publish"]["rejected_breaker_open"] == 1


class TestCorruptReload:
    def test_reload_of_torn_snapshot_is_clean_error_old_engine_serves(
        self, engine, tmp_path
    ):
        """Regression: a fault-injected partial snapshot write must not
        take down serving or dislodge the published engine."""
        holder = EngineHolder(engine)
        torn = tmp_path / "torn"
        with faults.FaultPlan(
            [faults.FaultSpec("snapshot.write", corrupt=True, times=1)]
        ):
            engine.save(torn)
        query = str(next(iter(engine.graph.queries())))
        expected = [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in engine.rewrite(query).rewrites
        ]

        async def scenario():
            async with RewriteServer(holder, ServerConfig()) as server:
                host, port = server.address
                reload_result = await request_once(
                    host, port, "POST", "/reload", {"path": str(torn)}
                )
                serve_result = await request_once(
                    host, port, "POST", "/rewrite", {"query": query}
                )
                stats_result = await request_once(host, port, "GET", "/stats")
                return reload_result, serve_result, stats_result

        (reload_status, reload), (serve_status, serve), (_, stats) = run(scenario())
        assert reload_status == 500
        assert "snapshot" in reload["error"]
        assert holder.version == 1, "the corrupt reload must publish nothing"
        assert serve_status == 200
        assert serve["rewrites"] == expected, "old engine must serve unchanged"
        assert stats["health"]["publish"]["failures"] == 1, (
            "a corrupt snapshot is permanent for its input: never retried"
        )
        assert "SnapshotError" in stats["health"]["publish"]["last_error"]


class TestWorkerCrashDuringRefresh:
    @pytest.mark.timeout(120)
    def test_process_pool_worker_crash_is_retried_to_success(self):
        """A crash=True fault kills a real fit worker mid-/refresh; the
        parent sees BrokenProcessPool, restores the previous shard state
        (PR 7) and the server's retry publishes on the second attempt."""
        graph = multi_component_graph(
            num_components=2,
            queries_per_component=6,
            ads_per_component=4,
            extra_edges=4,
            seed=3,
        )
        engine = build_engine(
            graph, backend="sharded", n_jobs=2, executor="process"
        )
        holder = EngineHolder(engine)
        config = ServerConfig(refresh_retries=1, refresh_backoff_s=0.01)

        def two_component_delta():
            builder = DeltaBuilder(holder.engine.graph)
            bump_edge(builder, holder.engine.graph, "c0_q0", "c0_a0")
            bump_edge(builder, holder.engine.graph, "c1_q0", "c1_a0")
            return builder.build()

        async def scenario():
            async with RewriteServer(holder, config) as server:
                host, port = server.address
                with faults.FaultPlan(
                    [faults.FaultSpec("shard.fit.worker", crash=True, times=1)]
                ) as plan:
                    status, payload = await request_once(
                        host,
                        port,
                        "POST",
                        "/refresh",
                        delta_to_payload(two_component_delta()),
                    )
                _, health = await request_once(host, port, "GET", "/healthz")
                return status, payload, plan, health

        status, payload, plan, health = run(scenario())
        assert status == 200, f"refresh should survive the worker crash: {payload}"
        assert payload["version"] == 2
        assert plan.fire_count("shard.fit.worker") == 1, plan.describe()
        assert holder.publish_failures == 1, "the crash was recorded, then retried"
        assert health["status"] == "healthy"
