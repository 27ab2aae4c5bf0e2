"""Plumbing check of the perf benchmark (``benchmarks/perf/run.py``).

Runs every workload once on the tiny inputs with 1 s load phases and checks
what the benchmark promises, not the program's speed: every metric
``BENCHMARK.json`` names is emitted for every workload with its unit,
nothing unnamed is emitted, every response checks out, and a copy of the
benchmark without the program's sources refuses to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_every_named_metric_is_emitted_with_its_unit(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = tmp_path / "report.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--seconds", "1",
         "--out", str(tmp_path), "--json", str(report)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1

    named = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    results = json.loads(report.read_text(encoding="utf-8"))
    assert {workload["name"] for workload in spec["workloads"]} <= set(results)
    for workload, result in results.items():
        assert set(result["metrics"]) == set(named), workload
        assert all(isinstance(value, (int, float)) for value in result["metrics"].values())
        assert (tmp_path / f"{workload}.trace.json").is_file()

    printed = [line.split() for line in lines[:-1] if not line.startswith("#")]
    assert len(printed) == len(results) * len(named)
    for workload, metric, _, unit in printed:
        assert workload in results and named[metric] == unit


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks" / "perf"
    copy.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        shutil.copy(source, copy)
    completed = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "serve_hot"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
