"""Command-line interface: ``simrankpp-experiments``.

Examples::

    simrankpp-experiments --experiment table3
    simrankpp-experiments --experiment figure8 --size tiny
    simrankpp-experiments --experiment all --size small --seed 42
    simrankpp-experiments --experiment figure8 --backend reference
    simrankpp-experiments --experiment figure8 --n-jobs -1
    simrankpp-experiments --experiment figure8 --save-engine engines/
    simrankpp-experiments --experiment figure8 --load-engine engines/
    simrankpp-experiments --list-methods

The ``serve`` subcommand starts the online serving tier
(:mod:`repro.serving`) around a fitted or snapshot-revived engine::

    simrankpp-experiments serve --size small --port 8641
    simrankpp-experiments serve --snapshot engines/two-week-weighted --precompute
    simrankpp-experiments serve --help
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from repro.api.registry import (
    RETIRED_BACKENDS,
    SIMRANK_BACKENDS,
    available_backends,
    available_methods,
    method_spec,
)
from repro.core.config import PAPER_CONFIG
from repro.experiments.paper import PaperExperiments

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simrankpp-experiments",
        description="Regenerate the tables and figures of the Simrank++ paper (VLDB 2008).",
        epilog=(
            "Run 'simrankpp-experiments serve --help' for the online "
            "rewrite-serving subcommand (asyncio HTTP server with "
            "zero-downtime engine refresh)."
        ),
    )
    parser.add_argument(
        "--experiment",
        default="all",
        help="which experiment to run: table1..table6, figure8..figure12, or 'all'",
    )
    parser.add_argument(
        "--size",
        default="small",
        choices=["tiny", "small", "medium"],
        help="synthetic workload size used for Table 5 and Figures 8-12",
    )
    parser.add_argument(
        "--backend",
        default=SIMRANK_BACKENDS[0],
        choices=SIMRANK_BACKENDS + tuple(RETIRED_BACKENDS),
        help=(
            "similarity-method backend used by the harness experiments "
            "(sharded = per-connected-component dense fits, the default; "
            "reference = the paper's node-pair equations, slow; matrix, "
            "sparse and auto are deprecated aliases of sharded)"
        ),
    )
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help=(
            "sharded backend: workers for parallel per-component fits "
            "(-1 = one per available CPU, affinity-aware)"
        ),
    )
    parser.add_argument(
        "--executor",
        default="auto",
        choices=["thread", "process", "auto"],
        help=(
            "pool flavour for parallel fits: thread (GIL-bound), process "
            "(true multi-core), or auto (processes only when the work "
            "amortises the fork/pickle overhead)"
        ),
    )
    parser.add_argument(
        "--save-engine",
        metavar="DIR",
        default=None,
        help=(
            "write every fitted engine as a named snapshot under DIR "
            "(<method>-<backend>); the offline half of the paper's "
            "offline-compute / online-serve split"
        ),
    )
    parser.add_argument(
        "--load-engine",
        metavar="DIR",
        default=None,
        help=(
            "serve from engine snapshots under DIR instead of refitting "
            "(methods without a snapshot are fitted as usual); snapshots are "
            "keyed by method and backend, so reuse the same workload flags"
        ),
    )
    parser.add_argument(
        "--list-methods",
        action="store_true",
        help="list the registered similarity methods and exit",
    )
    parser.add_argument(
        "--iterations", type=int, default=PAPER_CONFIG.iterations, help="SimRank iterations"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help=(
            "early-exit threshold on the largest per-pair score change "
            "between iterations (0 = always run the full iteration count); "
            "every fit starts from the identity"
        ),
    )
    parser.add_argument(
        "--decay", type=float, default=PAPER_CONFIG.c1, help="SimRank decay factors C1 = C2"
    )
    parser.add_argument(
        "--desirability-cases", type=int, default=50, help="cases for the Figure 12 experiment"
    )
    parser.add_argument("--seed", type=int, default=29, help="random seed")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        # The serving tier is a separate argument universe (network knobs,
        # engine source) -- dispatch before the experiments parser sees it.
        from repro.serving.app import serve_main

        return serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_methods:
        for name in available_methods():
            spec = method_spec(name)
            backends = "/".join(available_backends(name))
            print(f"{name:20s} [{backends}]  {spec.description}")
        return 0
    config = dataclasses.replace(
        PAPER_CONFIG,
        c1=args.decay,
        c2=args.decay,
        iterations=args.iterations,
        tolerance=args.tolerance,
    )
    experiments = PaperExperiments(
        workload_size=args.size,
        config=config,
        desirability_cases=args.desirability_cases,
        seed=args.seed,
        backend=args.backend,
        n_jobs=args.n_jobs,
        executor=args.executor,
        save_engines_to=args.save_engine,
        load_engines_from=args.load_engine,
    )
    if args.experiment == "all":
        output = experiments.render_all()
    else:
        try:
            output = experiments.render(args.experiment)
        except ValueError as exc:
            parser.error(str(exc))
            return 2
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
