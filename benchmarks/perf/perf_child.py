"""The program as the perf benchmark runs it, one child process at a time.

Two modes, each started by ``perf_bench.py`` as its own interpreter so that the
benchmark's load generator and bookkeeping never share a process (or a
GIL) with what is being measured:

``offline``
    Read the edges JSONL, fit, export the SQLite serving store and save a
    snapshot -- the offline pipeline.  Prints one JSON line with the stage
    timings and this process's peak RSS.
``serve``
    Start a rewrite server over one engine source (``--store`` /
    ``--snapshot`` / ``--graph``) through ``resolve_engine_source``,
    ``EngineHolder`` and ``RewriteServer`` with the ``ServerConfig``
    defaults, print ``{"port": N}`` once listening, and serve until SIGTERM.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/perf/perf_child.py offline \\
        --graph G.jsonl --bids B.json --out DIR
    PYTHONPATH=src python benchmarks/perf/perf_child.py serve --store S.sqlite
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import EngineConfig, RewriteEngine, SimrankConfig
from repro.api.sources import resolve_engine_source
from repro.graph.io import read_edges_jsonl
from repro.serving.holder import EngineHolder
from repro.serving.server import RewriteServer, ServerConfig

#: The engine every workload fits.  The backend stays at the method default
#: so the benchmark measures what a user gets; the evidence floor matches
#: the eval harness; ``tolerance > 0`` lets ``/refresh`` warm-start.
ENGINE_CONFIG = EngineConfig(
    method="weighted_simrank",
    similarity=SimrankConfig(iterations=7, tolerance=1e-8, zero_evidence_floor=0.1),
    cache_size=256,
)


def peak_rss_mib(pid: str = "self") -> float:
    """``VmHWM`` of a process in MiB (Linux ``ru_maxrss`` survives exec)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def read_bids(path: str) -> List[str]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def offline(graph_path: str, bids_path: str, out: Path) -> Dict[str, object]:
    """Graph -> fit -> store + snapshot, with (start, end) ``perf_counter`` stamps."""
    stages: Dict[str, List[float]] = {}

    def stage(name: str, started: float) -> float:
        ended = time.perf_counter()
        stages[name] = [started, ended]
        return ended

    started = time.perf_counter()
    graph = read_edges_jsonl(graph_path)
    bids = read_bids(bids_path)
    loaded = stage("graph.read", started)
    engine = RewriteEngine.from_graph(graph, ENGINE_CONFIG, bid_terms=bids).fit()
    fitted = stage("api.fit", loaded)
    engine.export_store(out / "rewrites.sqlite")
    exported = stage("api.export_store", fitted)
    engine.save(out / "snapshot")
    saved = stage("api.save", exported)
    return {
        "stages": stages,
        "offline_s": saved - loaded,
        "peak_rss_mib": peak_rss_mib(),
    }


async def serve(engine: RewriteEngine) -> None:
    server = RewriteServer(EngineHolder(engine), ServerConfig(port=0))
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    print(json.dumps({"port": server.address[1]}), flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["offline", "serve"])
    parser.add_argument("--graph", help="edges JSONL to fit on")
    parser.add_argument("--bids", help="JSON list of bid terms (with --graph)")
    parser.add_argument("--store", help="serve this SQLite serving store")
    parser.add_argument("--snapshot", help="serve this snapshot directory")
    parser.add_argument("--out", help="offline: directory for the store and snapshot")
    args = parser.parse_args(argv)
    if args.mode == "offline":
        print(json.dumps(offline(args.graph, args.bids, Path(args.out))), flush=True)
        return 0
    if args.store:
        resolved = resolve_engine_source(store=args.store)
    elif args.snapshot:
        resolved = resolve_engine_source(snapshot=args.snapshot, fallback_siblings=False)
    else:
        resolved = resolve_engine_source(
            graph=read_edges_jsonl(args.graph),
            config=ENGINE_CONFIG,
            bid_terms=read_bids(args.bids),
        )
    asyncio.run(serve(resolved.engine))
    return 0


if __name__ == "__main__":
    sys.exit(main())
