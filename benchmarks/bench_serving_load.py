"""Zero-downtime serving gate: Zipf load vs. refresh-under-traffic, measured.

The serving tier's claim (ISSUE: ``repro.serving``): an asyncio
:class:`~repro.serving.server.RewriteServer` in front of an
:class:`~repro.serving.holder.EngineHolder` keeps serving while the engine
behind it is refreshed, with

* **zero failed requests** -- no request observes downtime, a connection
  reset, or a 5xx while copy-on-write refreshes publish new engine
  versions underneath the traffic;
* **bounded tail latency** -- the refresh-phase p99 stays within
  ``DEGRADATION_FACTOR`` (3x) of the no-refresh baseline p99 (with a small
  absolute floor so sub-millisecond baselines don't make the ratio flaky);
* **no torn reads** -- every response names the engine version that served
  it, and its rewrite list is byte-equal to that exact version's
  ``rewrite()`` ground truth, recomputed after the run.

Both phases replay the same Zipf-skewed schedule (alpha 1.2 -- hot head,
long cold tail) over ``CONCURRENCY`` keep-alive connections against an
in-process server.  During the refresh phase an admin task cycles
``POST /refresh`` continuously for the whole duration of the load (at
least ``MIN_REFRESH_ROUNDS`` rounds), so swaps and traffic genuinely
overlap -- the per-response version histogram in the artifact shows the
traffic straddling multiple published versions.

Writes ``BENCH_serving_load.json`` next to this file.  Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_serving_load.py
    PYTHONPATH=src python benchmarks/bench_serving_load.py
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
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

DEGRADATION_FACTOR = 3.0
#: Ratio floor: below this baseline p99 the 3x bound is measured against
#: this absolute value instead.  On a fast machine the no-refresh baseline
#: is a few milliseconds while a warm refit's GIL burst is a fixed ~10+ ms
#: that no amount of serving speed shrinks -- the floor keeps the gate
#: about the zero-downtime claim, not about the GIL.
MIN_BASELINE_P99_MS = 8.0
MIN_REFRESH_ROUNDS = 3
MAX_REFRESH_ROUNDS = 50
#: Pause between refresh rounds: the claim is periodic-refresh-under-
#: traffic, not a saturation loop of back-to-back refits.
REFRESH_PAUSE_S = 0.01
REQUESTS_PER_PHASE = 1200
CONCURRENCY = 8
ZIPF_ALPHA = 1.2

#: Tolerance-converged so /refresh warm-starts instead of refitting cold.
SIMILARITY = SimrankConfig(iterations=60, tolerance=1e-8, zero_evidence_floor=0.1)

#: ~300 nodes over 6 components: big enough that a refresh takes real work
#: (so swaps overlap traffic), small enough that one warm refit's GIL
#: burst stays well inside the latency bound.
GRAPH_PARAMS = dict(
    num_components=6,
    queries_per_component=30,
    ads_per_component=20,
    extra_edges=60,
    seed=23,
)

#: Bounded below the 180-query universe, so the Zipf cold tail actually
#: exercises eviction + recompute under concurrent serving.
CACHE_SIZE = 128

SERVER = ServerConfig(max_concurrency=4)

ARTIFACT_PATH = Path(__file__).resolve().parent / "BENCH_serving_load.json"


def build_engine() -> RewriteEngine:
    graph = multi_component_graph(**GRAPH_PARAMS)
    config = EngineConfig(
        method="weighted_simrank",
        backend="sharded",
        similarity=SIMILARITY,
        cache_size=CACHE_SIZE,
    )
    bid_terms = {str(query) for query in graph.queries()}
    return RewriteEngine.from_graph(graph, config, bid_terms=bid_terms).fit()


def build_round_delta(graph, round_index: int):
    """A small component-0 delta, fresh against the holder's current graph."""
    builder = DeltaBuilder(graph)
    for i in range(3):
        query, ad = f"c0_q{i}", f"c0_a{i}"
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


async def refresh_until(server, holder, load_task) -> int:
    """Cycle /refresh for the whole load (>= MIN_REFRESH_ROUNDS rounds)."""
    host, port = server.address
    rounds = 0
    while (not load_task.done() or rounds < MIN_REFRESH_ROUNDS) and (
        rounds < MAX_REFRESH_ROUNDS
    ):
        delta = build_round_delta(holder.engine.graph, rounds)
        status, payload = await request_once(
            host, port, "POST", "/refresh", delta_to_payload(delta)
        )
        assert status == 200, f"/refresh failed: {payload}"
        rounds += 1
        await asyncio.sleep(REFRESH_PAUSE_S)
    return rounds


def verify_responses(responses, engines_by_version) -> int:
    """Every response must equal its serving version's ground truth."""
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
            f"torn read: {response.query!r} served at version "
            f"{response.version} does not match that version's rewrite()"
        )
    return len(responses)


async def run_phases() -> dict:
    engine = build_engine()
    holder = EngineHolder(engine)
    engines_by_version = {holder.version: holder.engine}
    holder.add_swap_listener(
        lambda version, published: engines_by_version.setdefault(version, published)
    )
    queries = sorted(str(q) for q in engine.graph.queries())
    schedule = ZipfSchedule(queries, alpha=ZIPF_ALPHA, seed=5)

    async with RewriteServer(holder, SERVER) as server:
        host, port = server.address
        baseline = await run_load(
            host,
            port,
            schedule.sample(REQUESTS_PER_PHASE),
            concurrency=CONCURRENCY,
            record_responses=True,
        )
        load_task = asyncio.create_task(
            run_load(
                host,
                port,
                ZipfSchedule(queries, alpha=ZIPF_ALPHA, seed=6).sample(
                    REQUESTS_PER_PHASE
                ),
                concurrency=CONCURRENCY,
                record_responses=True,
            )
        )
        rounds = await refresh_until(server, holder, load_task)
        under_refresh = await load_task

    verified = verify_responses(
        baseline.responses + under_refresh.responses, engines_by_version
    )
    return {
        "engine": {
            "queries": engine.graph.num_queries,
            "ads": engine.graph.num_ads,
            "edges": engine.graph.num_edges,
            "cache_size": CACHE_SIZE,
        },
        "baseline": baseline.to_dict(),
        "under_refresh": under_refresh.to_dict(),
        "refresh_rounds": rounds,
        "versions_observed_under_refresh": len(under_refresh.versions),
        "responses_verified": verified,
    }


def run_measurements() -> dict:
    return asyncio.run(run_phases())


def write_artifact(results: dict) -> None:
    payload = {
        "benchmark": "bench_serving_load",
        "config": {
            "method": "weighted_simrank",
            "backend": "sharded",
            "iterations": SIMILARITY.iterations,
            "tolerance": SIMILARITY.tolerance,
            "graph": GRAPH_PARAMS,
            "requests_per_phase": REQUESTS_PER_PHASE,
            "concurrency": CONCURRENCY,
            "zipf_alpha": ZIPF_ALPHA,
            "degradation_factor": DEGRADATION_FACTOR,
            "min_baseline_p99_ms": MIN_BASELINE_P99_MS,
            "server": {
                "max_concurrency": SERVER.max_concurrency,
            },
        },
        "results": results,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_refresh_under_load_is_zero_downtime():
    """The acceptance gate -- and the producer of BENCH_serving_load.json."""
    results = run_measurements()
    write_artifact(results)
    baseline = results["baseline"]
    refreshed = results["under_refresh"]
    base_p99 = baseline["latency_ms"]["p99"]
    refresh_p99 = refreshed["latency_ms"]["p99"]
    bound = DEGRADATION_FACTOR * max(base_p99, MIN_BASELINE_P99_MS)
    print(
        f"\nbaseline p50 {baseline['latency_ms']['p50']:.2f} ms / p99 "
        f"{base_p99:.2f} ms at {baseline['throughput_rps']:.0f} rps; under "
        f"{results['refresh_rounds']} refresh rounds p50 "
        f"{refreshed['latency_ms']['p50']:.2f} ms / p99 {refresh_p99:.2f} ms "
        f"across {results['versions_observed_under_refresh']} engine "
        f"versions; {results['responses_verified']} responses verified; "
        f"artifact: {ARTIFACT_PATH.name}"
    )
    # Zero downtime: not one request failed in either phase.
    assert baseline["failed"] == 0, baseline["errors"]
    assert refreshed["failed"] == 0, refreshed["errors"]
    assert baseline["succeeded"] == REQUESTS_PER_PHASE
    assert refreshed["succeeded"] == REQUESTS_PER_PHASE
    # Swaps genuinely overlapped the traffic.
    assert results["refresh_rounds"] >= MIN_REFRESH_ROUNDS
    assert results["versions_observed_under_refresh"] >= 2, (
        "every response was served by one engine version -- the refresh "
        "cycles never overlapped the load"
    )
    # Consistency: verify_responses() already raised on any torn read.
    assert results["responses_verified"] == 2 * REQUESTS_PER_PHASE
    # Tail latency under refresh stays within the degradation bound.
    assert refresh_p99 <= bound, (
        f"p99 under refresh {refresh_p99:.2f} ms exceeds "
        f"{DEGRADATION_FACTOR}x the baseline bound ({bound:.2f} ms)"
    )


def main() -> None:
    results = run_measurements()
    write_artifact(results)
    for phase in ("baseline", "under_refresh"):
        row = results[phase]
        latency = row["latency_ms"]
        print(
            f"{phase:>13}: {row['succeeded']}/{row['requests']} ok, "
            f"{row['throughput_rps']:7.0f} rps, p50 {latency['p50']:6.2f} ms, "
            f"p95 {latency['p95']:6.2f} ms, p99 {latency['p99']:6.2f} ms, "
            f"versions {row['versions']}"
        )
    print(
        f"{results['refresh_rounds']} refresh rounds, "
        f"{results['responses_verified']} responses verified against their "
        f"serving version's ground truth; wrote {ARTIFACT_PATH}"
    )


if __name__ == "__main__":
    main()
