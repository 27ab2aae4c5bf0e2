"""Chaos serving gate: scripted faults vs. the resilience layer, measured.

The resilience claim (ISSUE 8): under a deterministic fault schedule --
transient refresh outages, a crashed process-pool fit worker, slow shard
fits, a corrupt snapshot reload, compute latency past the request deadline
-- the serving tier

* returns **zero incorrect responses**: every 200 is byte-equal to the
  ground truth of the exact engine version that served it;
* keeps **availability >= 99.9%** excluding deliberate sheds (503) and
  deadline timeouts (504), which are the server managing load on purpose;
* recovers to ``healthy`` within **one successful refresh** after the
  faults clear;
* pays **zero overhead** for the fault points when no plan is active.

Phases (each asserts its own invariants; all feed the artifact):

1. ``overhead``       -- time an inactive fault point; must be no-op cheap.
2. ``transient``      -- ``/refresh`` hit by 2 injected outages succeeds
                         via backoff retries; the holder ledger shows both.
3. ``breaker``        -- a persistent outage trips the circuit breaker:
                         publishes are shed with 503, traffic keeps being
                         served, health reads degraded; after the reset
                         window one half-open probe recovers to healthy.
4. ``worker_crash``   -- a ``crash=True`` fault kills a real process-pool
                         fit worker mid-``/refresh`` (BrokenProcessPool);
                         the retry succeeds because the fault was consumed.
5. ``corrupt_reload`` -- ``/reload`` pointing at a fault-torn snapshot is
                         a clean 500, old engine still published; the next
                         good refresh restores healthy.
6. ``chaos_load``     -- Zipf load with a mid-run fault window (slow
                         compute -> deliberate 504s, refresh outages, slow
                         shard fits) while refreshes cycle; zero failures,
                         full availability, responses byte-verified.

Writes ``BENCH_chaos_serving.json`` next to this file.  Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_chaos_serving.py
    PYTHONPATH=src python benchmarks/bench_chaos_serving.py
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from pathlib import Path

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
    request_once,
    run_load,
)
from repro.synth.scenarios import multi_component_graph

AVAILABILITY_TARGET = 0.999
#: Inactive fault points must stay in no-op territory: one global load and
#: a None test.  2 microseconds per call is ~20x reality on a slow CI box,
#: but any accidental locking/allocation/formatting blows well past it.
MAX_INACTIVE_OVERHEAD_US = 2.0
OVERHEAD_CALLS = 200_000

REQUESTS_CHAOS = 1200
CONCURRENCY = 8
ZIPF_ALPHA = 1.2
MIN_REFRESH_ROUNDS = 3
MAX_REFRESH_ROUNDS = 40

#: Tolerance-converged: the early exit bounds each /refresh refit's work.
SIMILARITY = SimrankConfig(iterations=60, tolerance=1e-8, zero_evidence_floor=0.1)

GRAPH_PARAMS = dict(
    num_components=6,
    queries_per_component=30,
    ads_per_component=20,
    extra_edges=60,
    seed=23,
)

#: Deadline chosen far above normal latency (ms-scale) and far below the
#: injected 2.5 s compute stall, so 504s in the chaos window are exactly
#: the deliberate ones.
SERVER = ServerConfig(
    max_concurrency=4,
    request_timeout_s=1.5,
    refresh_retries=2,
    refresh_backoff_s=0.02,
    refresh_backoff_max_s=0.1,
    breaker_threshold=3,
    breaker_reset_s=0.25,
)

ARTIFACT_PATH = Path(__file__).resolve().parent / "BENCH_chaos_serving.json"


def build_engine() -> RewriteEngine:
    graph = multi_component_graph(**GRAPH_PARAMS)
    config = EngineConfig(
        method="weighted_simrank",
        backend="sharded",
        similarity=SIMILARITY,
        cache_size=128,
        # A real process pool, so crash faults kill a real worker and the
        # serving path exercises PR 7's cancel-and-restore shard logic.
        n_jobs=2,
        executor="process",
    )
    bid_terms = {str(query) for query in graph.queries()}
    return RewriteEngine.from_graph(graph, config, bid_terms=bid_terms).fit()


def build_delta(graph, round_index: int):
    """A delta dirtying *two* components, so the refit takes the pool path."""
    builder = DeltaBuilder(graph)
    for component in (0, 1):
        query, ad = f"c{component}_q0", f"c{component}_a0"
        stats = graph.edge(query, ad)
        if stats is None:
            builder.set_edge(query, ad, impressions=30, clicks=3)
        else:
            builder.set_edge(
                query,
                ad,
                impressions=stats.impressions + 10,
                clicks=stats.clicks + 1,
            )
    builder.set_edge(f"hot-{round_index}", "c0_a0", impressions=50, clicks=5)
    return builder.build()


def measure_inactive_overhead() -> float:
    """Mean microseconds per inactive fire() call (no plan active)."""
    assert faults.active_plan() is None
    started = time.perf_counter()
    for _ in range(OVERHEAD_CALLS):
        faults.fire("bench.overhead.probe")
    elapsed = time.perf_counter() - started
    return elapsed / OVERHEAD_CALLS * 1e6


def verify_responses(responses, engines_by_version) -> int:
    """Every response must be byte-equal to its serving version's truth."""
    expected_cache = {}
    for response in responses:
        key = (response.version, response.query)
        expected = expected_cache.get(key)
        if expected is None:
            engine = engines_by_version[response.version]
            expected = tuple(
                (r.rewrite, r.rank, r.score)
                for r in engine.rewrite(response.query).rewrites
            )
            expected_cache[key] = expected
        assert response.rewrites == expected, (
            f"incorrect response: {response.query!r} served at version "
            f"{response.version} does not match that version's rewrite()"
        )
    return len(responses)


async def phase_transient_refresh(server, holder, round_counter) -> dict:
    """Two injected refresh outages, absorbed entirely by backoff retries."""
    host, port = server.address
    failures_before = holder.publish_failures
    plan = faults.FaultPlan(
        [faults.FaultSpec("engine.refresh", error="transient outage", times=2)]
    )
    with plan:
        delta = build_delta(holder.engine.graph, next(round_counter))
        status, payload = await request_once(
            host, port, "POST", "/refresh", delta_to_payload(delta)
        )
    assert status == 200, f"retried refresh should succeed: {payload}"
    assert plan.fire_count("engine.refresh") == 2
    injected = holder.publish_failures - failures_before
    assert injected == 2, f"holder ledger recorded {injected} failures, not 2"
    assert holder.consecutive_failures == 0
    _, health = await request_once(host, port, "GET", "/healthz")
    assert health["status"] == "healthy", health
    return {"status": status, "injected_failures": injected, "plan": plan.describe()}


async def phase_breaker(server, holder, round_counter) -> dict:
    """A persistent outage trips the breaker; traffic survives; probe recovers."""
    host, port = server.address
    plan = faults.FaultPlan(
        [faults.FaultSpec("engine.refresh", error="persistent outage", times=None)]
    )
    query = str(next(iter(holder.engine.graph.queries())))
    with plan:
        delta = build_delta(holder.engine.graph, next(round_counter))
        first_status, first = await request_once(
            host, port, "POST", "/refresh", delta_to_payload(delta)
        )
        second_status, second = await request_once(
            host, port, "POST", "/refresh", delta_to_payload(delta)
        )
        _, degraded = await request_once(host, port, "GET", "/healthz")
        serve_status, _ = await request_once(
            host, port, "POST", "/rewrite", {"query": query}
        )
    assert first_status == 500, f"exhausted retries should fail: {first}"
    assert second_status == 503, f"open breaker should shed, got: {second}"
    assert "breaker" in second.get("error", ""), second
    assert degraded["status"] == "degraded", degraded
    assert serve_status == 200, "rewrite traffic must survive an open breaker"

    # Faults cleared: one half-open probe after the reset window recovers.
    await asyncio.sleep(SERVER.breaker_reset_s + 0.1)
    delta = build_delta(holder.engine.graph, next(round_counter))
    probe_status, probe = await request_once(
        host, port, "POST", "/refresh", delta_to_payload(delta)
    )
    assert probe_status == 200, f"half-open probe should publish: {probe}"
    _, recovered = await request_once(host, port, "GET", "/healthz")
    assert recovered["status"] == "healthy", recovered
    return {
        "tripped": first_status,
        "shed": second_status,
        "degraded_health": degraded["status"],
        "recovered_health": recovered["status"],
        "plan": plan.describe(),
    }


async def phase_worker_crash(server, holder, round_counter) -> dict:
    """A crash fault kills a real fit worker; the retried refresh publishes."""
    host, port = server.address
    version_before = holder.version
    plan = faults.FaultPlan(
        [faults.FaultSpec("shard.fit.worker", crash=True, times=1)]
    )
    with plan:
        delta = build_delta(holder.engine.graph, next(round_counter))
        status, payload = await request_once(
            host, port, "POST", "/refresh", delta_to_payload(delta)
        )
    assert status == 200, f"refresh should survive a worker crash: {payload}"
    assert plan.fire_count("shard.fit.worker") == 1, plan.describe()
    assert holder.version == version_before + 1
    _, health = await request_once(host, port, "GET", "/healthz")
    assert health["status"] == "healthy", health
    return {"status": status, "plan": plan.describe()}


async def phase_corrupt_reload(server, holder, round_counter, tmp_root) -> dict:
    """A fault-torn snapshot is a clean 500; the old engine keeps serving."""
    host, port = server.address
    bad_dir = Path(tmp_root) / "torn-snapshot"
    with faults.FaultPlan(
        [faults.FaultSpec("snapshot.write", corrupt=True, times=1)]
    ) as write_plan:
        holder.engine.save(bad_dir)
    assert write_plan.fire_count("snapshot.write") == 1

    version_before = holder.version
    query = str(next(iter(holder.engine.graph.queries())))
    status, payload = await request_once(
        host, port, "POST", "/reload", {"path": str(bad_dir)}
    )
    assert status == 500, f"corrupt snapshot must be a clean 500: {payload}"
    assert "snapshot" in payload["error"], payload
    assert holder.version == version_before, "nothing may be published"
    serve_status, _ = await request_once(
        host, port, "POST", "/rewrite", {"query": query}
    )
    assert serve_status == 200, "old engine must keep serving after a bad reload"
    _, degraded = await request_once(host, port, "GET", "/healthz")
    assert degraded["status"] == "degraded", degraded

    # One good refresh is the recovery condition.
    delta = build_delta(holder.engine.graph, next(round_counter))
    refresh_status, _ = await request_once(
        host, port, "POST", "/refresh", delta_to_payload(delta)
    )
    assert refresh_status == 200
    _, recovered = await request_once(host, port, "GET", "/healthz")
    assert recovered["status"] == "healthy", recovered
    return {
        "reload_status": status,
        "error": payload["error"],
        "degraded_health": degraded["status"],
        "recovered_health": recovered["status"],
    }


async def phase_chaos_load(server, holder, round_counter) -> dict:
    """Zipf load through a mid-run fault window, refreshes cycling throughout."""
    host, port = server.address
    queries = sorted(str(q) for q in holder.engine.graph.queries())
    schedule = ZipfSchedule(queries, alpha=ZIPF_ALPHA, seed=11)
    window_plan = faults.FaultPlan(
        [
            # Stalls two requests' compute past the 1.5 s deadline: they
            # become deliberate 504s, nothing else does.
            faults.FaultSpec("serving.compute", latency_s=2.5, times=2),
            # Two refresh outages mid-load, absorbed by retries.
            faults.FaultSpec("engine.refresh", error="mid-run outage", times=2),
            # Slow shard fits: refreshes take longer, traffic unaffected.
            faults.FaultSpec("shard.fit", latency_s=0.25, times=2),
        ]
    )
    fault_schedule = faults.FaultSchedule(
        (
            faults.FaultEvent(0.3, window_plan),
            faults.FaultEvent(2.5, None),
        )
    )

    load_task = asyncio.create_task(
        run_load(
            host,
            port,
            schedule.sample(REQUESTS_CHAOS),
            concurrency=CONCURRENCY,
            record_responses=True,
            fault_schedule=fault_schedule,
        )
    )
    rounds = 0
    refresh_statuses = []
    while (not load_task.done() or rounds < MIN_REFRESH_ROUNDS) and (
        rounds < MAX_REFRESH_ROUNDS
    ):
        delta = build_delta(holder.engine.graph, next(round_counter))
        status, payload = await request_once(
            host, port, "POST", "/refresh", delta_to_payload(delta)
        )
        assert status == 200, f"refresh under chaos load failed: {payload}"
        refresh_statuses.append(status)
        rounds += 1
        await asyncio.sleep(0.01)
    report = await load_task
    _, health = await request_once(host, port, "GET", "/healthz")
    return {
        "load": report.to_dict(),
        "refresh_rounds": rounds,
        "versions_observed": len(report.versions),
        "final_health": health["status"],
        "window_plan": window_plan.describe(),
        "responses": report.responses,
    }


async def run_phases() -> dict:
    engine = build_engine()
    holder = EngineHolder(engine)
    engines_by_version = {holder.version: holder.engine}
    holder.add_swap_listener(
        lambda version, published: engines_by_version.setdefault(version, published)
    )
    round_counter = iter(range(10_000))

    with tempfile.TemporaryDirectory(prefix="chaos-snapshots-") as tmp_root:
        async with RewriteServer(holder, SERVER) as server:
            transient = await phase_transient_refresh(server, holder, round_counter)
            breaker = await phase_breaker(server, holder, round_counter)
            crash = await phase_worker_crash(server, holder, round_counter)
            corrupt = await phase_corrupt_reload(
                server, holder, round_counter, tmp_root
            )
            chaos = await phase_chaos_load(server, holder, round_counter)

    responses = chaos.pop("responses")
    verified = verify_responses(responses, engines_by_version)
    return {
        "engine": {
            "queries": engine.graph.num_queries,
            "ads": engine.graph.num_ads,
            "edges": engine.graph.num_edges,
        },
        "transient_refresh": transient,
        "breaker": breaker,
        "worker_crash": crash,
        "corrupt_reload": corrupt,
        "chaos_load": chaos,
        "responses_verified": verified,
    }


def run_measurements() -> dict:
    overhead_us = measure_inactive_overhead()
    results = asyncio.run(run_phases())
    results["inactive_overhead_us"] = overhead_us
    return results


def write_artifact(results: dict) -> None:
    payload = {
        "benchmark": "bench_chaos_serving",
        "config": {
            "graph": GRAPH_PARAMS,
            "requests_chaos": REQUESTS_CHAOS,
            "concurrency": CONCURRENCY,
            "zipf_alpha": ZIPF_ALPHA,
            "availability_target": AVAILABILITY_TARGET,
            "max_inactive_overhead_us": MAX_INACTIVE_OVERHEAD_US,
            "server": {
                "request_timeout_s": SERVER.request_timeout_s,
                "refresh_retries": SERVER.refresh_retries,
                "refresh_backoff_s": SERVER.refresh_backoff_s,
                "breaker_threshold": SERVER.breaker_threshold,
                "breaker_reset_s": SERVER.breaker_reset_s,
            },
        },
        "results": results,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_chaos_serving_gate():
    """The acceptance gate -- and the producer of BENCH_chaos_serving.json."""
    results = run_measurements()
    write_artifact(results)
    load = results["chaos_load"]["load"]
    print(
        f"\ninactive fault point: {results['inactive_overhead_us']:.3f} us/call; "
        f"chaos load: {load['succeeded']} ok / {load['timed_out']} timed out / "
        f"{load['shed']} shed / {load['failed']} failed "
        f"(availability {load['availability']:.4f}) across "
        f"{results['chaos_load']['versions_observed']} engine versions and "
        f"{results['chaos_load']['refresh_rounds']} refresh rounds; "
        f"{results['responses_verified']} responses verified; "
        f"final health {results['chaos_load']['final_health']}; "
        f"artifact: {ARTIFACT_PATH.name}"
    )
    # Fault points are free when inactive.
    assert results["inactive_overhead_us"] <= MAX_INACTIVE_OVERHEAD_US
    # Zero incorrect responses: every 200 was byte-verified.
    assert results["responses_verified"] == load["succeeded"]
    # Availability excluding deliberate sheds/timeouts.
    assert load["failed"] == 0, load["errors"]
    assert load["availability"] >= AVAILABILITY_TARGET
    # The deadline actually cut the stalled batches.
    assert load["timed_out"] > 0, "the slow-compute window never tripped a 504"
    # Swaps genuinely overlapped the chaos traffic.
    assert results["chaos_load"]["refresh_rounds"] >= MIN_REFRESH_ROUNDS
    assert results["chaos_load"]["versions_observed"] >= 2
    # Recovered to healthy once the faults cleared.
    assert results["chaos_load"]["final_health"] == "healthy"


def main() -> None:
    results = run_measurements()
    write_artifact(results)
    load = results["chaos_load"]["load"]
    print(
        f"inactive overhead {results['inactive_overhead_us']:.3f} us/call\n"
        f"transient refresh: {results['transient_refresh']['status']} after "
        f"{results['transient_refresh']['injected_failures']} injected failures\n"
        f"breaker: tripped {results['breaker']['tripped']}, shed "
        f"{results['breaker']['shed']}, recovered "
        f"{results['breaker']['recovered_health']}\n"
        f"worker crash: refresh {results['worker_crash']['status']}\n"
        f"corrupt reload: {results['corrupt_reload']['reload_status']} "
        f"({results['corrupt_reload']['recovered_health']} after next refresh)\n"
        f"chaos load: {load['succeeded']}/{load['requests']} ok, "
        f"{load['timed_out']} timed out, {load['shed']} shed, "
        f"{load['failed']} failed, availability {load['availability']:.4f}\n"
        f"wrote {ARTIFACT_PATH}"
    )


if __name__ == "__main__":
    main()
