"""The offline-fit / online-serve split, end to end (ISSUE: ``repro.serving``).

The paper computes SimRank scores offline and serves rewrites online; this
walkthrough runs that whole loop in one process:

1. **fit** a weighted-SimRank engine on a synthetic Yahoo!-like workload
   (the offline batch job);
2. **save** it as a snapshot directory (what the batch job ships);
3. **serve** it over HTTP behind an :class:`~repro.serving.EngineHolder`,
   querying ``/rewrite`` and ``/stats`` like a front-end would;
4. **refresh** it zero-downtime with a click-graph delta (``POST
   /refresh``) -- traffic keeps flowing while a copy is refit and swapped;
5. **hot-reload** the snapshot from step 2 (``POST /reload``) -- the
   rollback path when a refreshed engine misbehaves.

Everything is stdlib-only.  Run with::

    python examples/serve_demo.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro import EngineConfig, RewriteEngine, SimrankConfig, yahoo_like_workload
from repro.graph.delta import DeltaBuilder
from repro.serving import (
    EngineHolder,
    RewriteServer,
    ServerConfig,
    delta_to_payload,
    request_once,
)


def fit_offline() -> RewriteEngine:
    """Step 1: the offline batch fit (/refresh later refits only what changed)."""
    workload = yahoo_like_workload("tiny", seed=29)
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=10, tolerance=1e-8),
        cache_size=256,
    )
    return RewriteEngine.from_graph(
        workload.click_graph, config, bid_terms=workload.bid_terms
    ).fit()


def show(label, status, payload) -> None:
    print(f"  {label}: HTTP {status} {payload}")


async def demo(snapshot_dir: Path) -> None:
    engine = fit_offline()
    print(f"1. fitted: {engine.graph.num_queries} queries, {engine.graph.num_ads} ads")

    engine.save(snapshot_dir)
    print(f"2. snapshot saved to {snapshot_dir}")

    query = sorted(str(q) for q in engine.graph.queries())[0]
    holder = EngineHolder(engine)
    async with RewriteServer(holder, ServerConfig(port=0)) as server:
        host, port = server.address
        print(f"3. serving on http://{host}:{port}")
        status, payload = await request_once(
            host, port, "POST", "/rewrite", {"query": query}
        )
        show(f"rewrite {query!r}", status, payload)
        status, payload = await request_once(host, port, "GET", "/healthz")
        show("healthz", status, payload)

        # 4. Zero-downtime refresh: a delta strengthening one live edge.
        sample_query, sample_ad, stats = next(iter(engine.graph.edges()))
        delta = (
            DeltaBuilder(engine.graph)
            .set_edge(
                sample_query,
                sample_ad,
                impressions=stats.impressions + 100,
                clicks=stats.clicks + 20,
            )
            .build()
        )
        status, payload = await request_once(
            host, port, "POST", "/refresh", delta_to_payload(delta)
        )
        print(f"4. refresh: HTTP {status}, now version {payload['version']} "
              f"(refit={payload['refresh']['refit']}, "
              f"{payload['seconds'] * 1000:.0f} ms behind the scenes, "
              "zero requests dropped)")

        # 5. Hot-reload the pristine snapshot -- the rollback path.
        status, payload = await request_once(
            host, port, "POST", "/reload", {"path": str(snapshot_dir)}
        )
        print(f"5. reload: HTTP {status}, rolled back to the snapshot "
              f"as version {payload['version']}")

        status, payload = await request_once(host, port, "GET", "/stats")
        requests_served = payload["requests"]["total"]
        print(f"   served {requests_served} requests across "
              f"{payload['engine']['swaps']} engine swaps; final stats: "
              f"latency p99 {payload['latency_ms']['p99']:.2f} ms")
    print("server drained and stopped")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        asyncio.run(demo(Path(tmp) / "snapshot"))


if __name__ == "__main__":
    main()
