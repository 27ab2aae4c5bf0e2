"""The ``simrankpp-experiments serve`` subcommand: stand up a rewrite server.

Three ways to get a servable engine (all resolved through
:func:`repro.api.sources.resolve_engine_source`):

==================  ========================================================
``--snapshot DIR``  revive a fitted engine from an :mod:`~repro.api.snapshot`
                    directory (the production path: fit offline, snapshot,
                    serve online; hot-swap later via ``POST /reload``)
``--store FILE``    serve materialized rewrite lists from a SQLite serving
                    store (``RewriteEngine.export_store``): indexed point
                    lookups, resident memory O(cache) instead of O(score
                    matrix); ``/refresh`` and ``/reload`` are unavailable --
                    re-export and restart to pick up a new fit
``(neither)``       fit on a synthetic Yahoo!-like workload
                    (``--size/--seed/--method/--backend/--iterations/
                    --tolerance``), the self-contained demo path
==================  ========================================================

Examples::

    simrankpp-experiments serve --size small --port 8641
    simrankpp-experiments serve --snapshot engines/two-week-weighted --precompute
    simrankpp-experiments serve --store engines/two-week-weighted.sqlite
    simrankpp-experiments serve --size tiny --serve-seconds 5   # smoke run

The process serves until SIGINT/SIGTERM (or ``--serve-seconds``), then
drains in-flight requests and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import json
import signal
import sys
from typing import Optional, Sequence

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.sources import resolve_engine_source
from repro.core.config import PAPER_CONFIG
from repro.serving.holder import EngineHolder
from repro.serving.server import RewriteServer, ServerConfig

__all__ = ["build_serve_parser", "build_engine", "serve_main"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simrankpp-experiments serve",
        description=(
            "Serve query rewrites over HTTP (JSON endpoints /rewrite, "
            "/rewrite_batch, /refresh, /reload, /healthz, /stats) with "
            "zero-downtime engine refresh."
        ),
    )
    source = parser.add_argument_group("engine source")
    source.add_argument(
        "--snapshot",
        metavar="DIR",
        default=None,
        help="serve an engine revived from this snapshot directory "
        "(otherwise a synthetic workload is fitted at startup)",
    )
    source.add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help="serve materialized rewrite lists from this SQLite serving "
        "store (RewriteEngine.export_store); mutually exclusive with "
        "--snapshot, and /refresh and /reload are unavailable -- "
        "re-export and restart to pick up a new fit",
    )
    source.add_argument(
        "--size",
        default="small",
        choices=["tiny", "small", "medium"],
        help="synthetic workload size when fitting at startup",
    )
    source.add_argument("--seed", type=int, default=29, help="workload random seed")
    source.add_argument(
        "--method", default="weighted_simrank", help="registered similarity method"
    )
    source.add_argument(
        "--backend",
        default=None,
        help="method backend (default: the method's own, sharded for the "
        "SimRank methods)",
    )
    source.add_argument(
        "--iterations", type=int, default=PAPER_CONFIG.iterations, help="SimRank iterations"
    )
    source.add_argument(
        "--tolerance",
        type=float,
        default=1e-8,
        help="early-exit tolerance on the largest per-pair score change "
        "between iterations (0 = always run the full iteration count)",
    )
    source.add_argument(
        "--precompute",
        action="store_true",
        help="warm the serving cache over the full query universe before "
        "accepting traffic",
    )
    net = parser.add_argument_group("server")
    net.add_argument("--host", default="127.0.0.1", help="listen address")
    net.add_argument(
        "--port", type=int, default=8641, help="listen port (0 = ephemeral)"
    )
    net.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help=(
            "serving thread-pool size: requests computed at once "
            "(default: sized to the CPUs available to this process)"
        ),
    )
    net.add_argument(
        "--queue-size",
        type=int,
        default=1024,
        help="bound on in-flight /rewrite requests; beyond it requests get HTTP 503",
    )
    net.add_argument(
        "--serve-seconds",
        type=float,
        default=None,
        help="serve for this long and exit (default: until SIGINT/SIGTERM)",
    )
    net.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline for /rewrite endpoints; exceeded "
        "requests get HTTP 504 (default: no deadline)",
    )
    return parser


def build_engine(args: argparse.Namespace) -> RewriteEngine:
    """The engine the server publishes first: store, snapshot or fresh fit.

    All three sources go through
    :func:`repro.api.sources.resolve_engine_source`.  A corrupt
    ``--snapshot`` (torn write, missing files) does not abort startup: the
    newest loadable sibling snapshot is served instead, with a warning on
    stderr -- crash-safe startup over refusing to serve.
    """
    if getattr(args, "store", None) and args.snapshot:
        raise ValueError("--store and --snapshot are mutually exclusive")

    def warn(message: str) -> None:
        print(f"warning: {message}", file=sys.stderr)

    if getattr(args, "store", None):
        resolved = resolve_engine_source(store=args.store)
    elif args.snapshot:
        resolved = resolve_engine_source(snapshot=args.snapshot, warn=warn)
        if resolved.degraded:
            print(
                f"warning: started degraded -- serving {resolved.origin} instead "
                f"of requested snapshot {args.snapshot}",
                file=sys.stderr,
            )
    else:
        from repro.synth.yahoo_like import yahoo_like_workload

        workload = yahoo_like_workload(args.size, seed=args.seed)
        config = EngineConfig(
            method=args.method,
            backend=args.backend,
            similarity=dataclasses.replace(
                PAPER_CONFIG, iterations=args.iterations, tolerance=args.tolerance
            ),
        )
        resolved = resolve_engine_source(
            graph=workload.click_graph, config=config, bid_terms=workload.bid_terms
        )
    engine = resolved.engine
    if args.precompute:
        engine.precompute()
    return engine


async def _serve(
    engine: RewriteEngine,
    config: ServerConfig,
    serve_seconds: Optional[float],
) -> None:
    holder = EngineHolder(engine)
    server = RewriteServer(holder, config)
    await server.start()
    host, port = server.address
    print(
        f"serving rewrites on http://{host}:{port} "
        f"(engine version {holder.version}, "
        f"{'fitted' if engine.is_fitted else 'unfitted'}); "
        "endpoints: /rewrite /rewrite_batch /refresh /reload /healthz /stats",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        # Signal handlers are a nicety, not a requirement (unavailable on
        # some platforms/loops); KeyboardInterrupt still unwinds cleanly.
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(signum, stop.set)
    try:
        if serve_seconds is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=serve_seconds)
        else:
            await stop.wait()
    finally:
        await server.stop()
        engine_now, version = holder.current()
        print(
            "shut down after draining; final engine version "
            f"{version}, cache {json.dumps(dataclasses.asdict(engine_now.cache_info()))}",
            flush=True,
        )


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``serve`` subcommand; returns a process exit code."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    try:
        engine = build_engine(args)
    except Exception as exc:  # noqa: BLE001 -- surfaced as a CLI error
        parser.error(f"could not build a servable engine: {exc}")
        return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.concurrency,
        queue_size=args.queue_size,
        request_timeout_s=args.request_timeout,
    )
    try:
        asyncio.run(_serve(engine, config, args.serve_seconds))
    except KeyboardInterrupt:
        pass
    return 0
