"""The repository's benchmark: the offline fit and the online serve, end to end
and layer by layer.

Run from the repository root::

    python3 benchmarks/perf/run.py --seed 13 [--workload NAME ...] [--seconds S]
        [--trace 0|1] [--json PATH] [--out DIR]

Output: one ``workload metric value unit`` line per metric, a ``#`` line
per workload with its sample counts, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (after the same
untraced load, a traced pass scrapes ``/stats``, probes ``/healthz`` and
replays the traffic in process); without ``--trace``, both.  The exit
code is 0 when every check passed, 1 on a correctness failure and 2 when
the benchmark could not run.  See ``README.md`` for the workloads, the
metric definitions and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perf_bench import METRICS, SCALES, WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description="Simrank++ rewrite system benchmark.")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=13, help="input seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="load phase length per workload (open + closed)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics only; 1: per-layer only; default both")
    parser.add_argument("--scale", choices=sorted(SCALES), default="standard",
                        help="input size; 'tiny' is the plumbing check")
    parser.add_argument("--json", help="also write all metrics and info to this file")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for scratch files and span traces")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = args.workload or list(WORKLOADS)
    levels = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",), 1: ("per_layer",)}
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.scale, args.seed, args.seconds, args.trace != 0, out_dir
            )
    except RuntimeError as error:
        # A child that died or hung, a server that never got healthy, or
        # inputs that drifted from inputs.json.
        print(f"error: {error}", file=sys.stderr)
        return 2

    summary = {}
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            unit, level = METRICS[metric]
            if level not in levels[args.trace]:
                continue
            print(f"{name} {metric} {value!r} {unit}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            summary[key] = {"value": value, "unit": unit}
        info = result["info"]
        print(f"# {name}: {result['attempted']} attempted, {result['failed']} failed; "
              f"{info['open_samples']} open samples ({info['open_samples_beyond_p99']} beyond "
              f"p99), {info['closed_samples']} closed samples")
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2), encoding="utf-8")
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": summary,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
