"""Workloads, metrics and one run of the perf benchmark (driven by ``run.py``).

A run builds its inputs from the seed (``perf_inputs.py``), runs the
offline pipeline in child processes, starts the rewrite server as a
subprocess (``perf_child.py``), drives it over at most two connections
from this process (``perf_client.py``) and then checks every response
against ground truth (``perf_replay.py``).  Importing this module needs
the program's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perf_child import ENGINE_CONFIG, peak_rss_mib
from perf_client import (
    closed_loop, encode, get_json, healthz_latencies, open_loop, rewrite_request,
    wait_healthy,
)
from perf_inputs import (
    DEFAULT_SEED, build_inputs, check_frozen, query_sequence, refresh_deltas, write_inputs,
)
from perf_replay import Tracer, advance, probe_misses, time_calls, timed_replay, verify_reads
from repro import RewriteEngine
from repro.api.sources import resolve_engine_source
from repro.graph.components import connected_components
from repro.graph.io import read_edges_jsonl
from repro.store.sqlite import SqliteServingStore

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
CHILD = HERE / "perf_child.py"
HOST = "127.0.0.1"

#: name -> (unit, level).  ``BENCHMARK.json`` lists the same names and units
#: (``test_perf_smoke.py`` holds the two together).
METRICS: Dict[str, Tuple[str, str]] = {
    "latency_p50_ms": ("ms", "end_to_end"),
    "latency_p99_ms": ("ms", "end_to_end"),
    "throughput_rps": ("req/s", "end_to_end"),
    "setup_s": ("s", "end_to_end"),
    "peak_rss_mib": ("MiB", "end_to_end"),
    "offline_s": ("s", "end_to_end"),
    "graph.read_s": ("s", "per_layer"),
    "graph.components_s": ("s", "per_layer"),
    "graph.csr_s": ("s", "per_layer"),
    "core.score_pairs": ("count", "per_layer"),
    "core.top_rewrites_p50_us": ("us", "per_layer"),
    "core.top_rewrites_p99_us": ("us", "per_layer"),
    "core.filter_p50_us": ("us", "per_layer"),
    "api.fit_s": ("s", "per_layer"),
    "api.export_store_s": ("s", "per_layer"),
    "api.save_s": ("s", "per_layer"),
    "api.load_s": ("s", "per_layer"),
    "api.rewrite_hit_p50_us": ("us", "per_layer"),
    "api.rewrite_hit_p99_us": ("us", "per_layer"),
    "api.rewrite_miss_p50_us": ("us", "per_layer"),
    "api.rewrite_miss_p99_us": ("us", "per_layer"),
    "api.cache_hit_rate": ("ratio", "per_layer"),
    "api.copy_s": ("s", "per_layer"),
    "api.refresh_s": ("s", "per_layer"),
    "api.invalidated_per_refresh": ("count", "per_layer"),
    "store.open_s": ("s", "per_layer"),
    "store.lookup_p50_us": ("us", "per_layer"),
    "store.lookup_p99_us": ("us", "per_layer"),
    "store.lookups": ("count", "per_layer"),
    "store.bytes": ("bytes", "per_layer"),
    "serving.healthz_p50_ms": ("ms", "per_layer"),
    "serving.service_p50_ms": ("ms", "per_layer"),
    "serving.service_p99_ms": ("ms", "per_layer"),
    "serving.wire_p50_ms": ("ms", "per_layer"),
    "serving.dispatch_p50_ms": ("ms", "per_layer"),
    "serving.mean_batch": ("count", "per_layer"),
    "serving.max_batch": ("count", "per_layer"),
    "serving.queue_high_water": ("count", "per_layer"),
    "serving.unique_per_request": ("ratio", "per_layer"),
    "serving.cpu_us_per_request": ("us", "per_layer"),
    "serving.publish_retries": ("count", "per_layer"),
    "serving.publish_failures": ("count", "per_layer"),
    "loadgen.late_p99_ms": ("ms", "per_layer"),
    "loadgen.cpu_us_per_request": ("us", "per_layer"),
    "trace.overhead_pct": ("%", "per_layer"),
}


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one engine source.

    ``source`` is what the server serves: the exported SQLite ``store``,
    the saved ``snapshot``, or the ``graph`` fitted at startup.  The open
    phase takes ``open_share`` of the run's seconds at ``rate`` requests/s,
    the closed phase the rest.  With ``refreshing`` one more connection
    sends ``POST /refresh`` back to back during both phases.
    """

    source: str
    alpha: float
    rate: float
    connections: int
    open_share: float
    refreshing: bool = False


WORKLOADS: Dict[str, Workload] = {
    # LRU hits ~80%, misses are SQLite point lookups: the HTTP -> queue ->
    # linger -> executor path dominates.
    "serve_hot": Workload("store", alpha=1.2, rate=400, connections=2, open_share=0.6),
    # Uniform traffic: ~85% misses, each an in-memory top-k plus the
    # Section 9.3 filter.  A change to the hit path should not move it.
    "serve_scan": Workload("snapshot", alpha=0.0, rate=300, connections=2, open_share=0.6),
    # Reads beside refits: the admin thread's refit competes with serving
    # for the GIL and the CPUs.  Refreshes run back to back and phases end
    # on a refresh boundary, so every phase covers whole refit cycles; a
    # refresh every few seconds would make the numbers depend on how much
    # of a phase the refits happened to cover.  Run by name only, not
    # listed in BENCHMARK.json: its numbers follow the host's CPU speed too
    # closely to hold a regression bound (README.md, "Run-to-run spread").
    "serve_refresh": Workload(
        "graph", alpha=1.2, rate=150, connections=1, open_share=0.5, refreshing=True
    ),
}


@dataclass(frozen=True)
class Scale:
    offline_reps: int
    setup_reps: int
    warmup_requests: int
    healthz_calls: int
    layer_repeats: int


SCALES = {
    "standard": Scale(offline_reps=2, setup_reps=3, warmup_requests=300,
                      healthz_calls=2000, layer_repeats=5),
    "tiny": Scale(offline_reps=1, setup_reps=1, warmup_requests=30,
                  healthz_calls=100, layer_repeats=1),
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to: the program was wrong)."""


# ------------------------------------------------------------------- numbers


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples (a layer the run never used)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- processes


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def read_line(process: subprocess.Popen, timeout_s: float) -> str:
    """The child's next stdout line, or :class:`BenchmarkError` after ``timeout_s``."""
    ready, _, _ = select.select([process.stdout], [], [], timeout_s)
    line = process.stdout.readline() if ready else ""
    if not line:
        raise BenchmarkError(f"child {process.args[2:4]} exited or hung without output")
    return line


def run_offline(graph: Path, bids: Path, out: Path) -> dict:
    out.mkdir()
    with subprocess.Popen(
        [sys.executable, str(CHILD), "offline", "--graph", str(graph), "--bids", str(bids),
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    ) as process:
        try:
            report = json.loads(read_line(process, 150))
        finally:
            process.wait(timeout=30)
    if process.returncode != 0:
        raise BenchmarkError(f"offline child failed with code {process.returncode}")
    return report


class Server:
    """A server child: spawned, awaited healthy, stopped with SIGTERM."""

    def __init__(self, args: List[str]) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(CHILD), "serve", *args],
            stdout=subprocess.PIPE, text=True, env=child_env(),
        )
        try:
            self.port = json.loads(read_line(self.process, 120))["port"]
            asyncio.run(wait_healthy(HOST, self.port, 60))
        except BaseException:
            self.stop()
            raise
        #: Spawn -> first 200 from /healthz.
        self.setup_s = time.perf_counter() - started

    def stats(self) -> dict:
        return asyncio.run(get_json(HOST, self.port, "/stats"))

    def cpu_s(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# ----------------------------------------------------------------- one run


def refresh_request(delta) -> bytes:
    """A stats-only delta as a ``/refresh`` request.  Encoded here rather than
    with the server's ``delta_to_payload`` so that what the benchmark sends
    cannot change with the serving code."""
    return encode("POST", "/refresh", {"updated": [
        {"query": query, "ad": ad, "impressions": stats.impressions,
         "clicks": stats.clicks, "expected_click_rate": stats.expected_click_rate}
        for query, ad, stats in delta.updated
    ]})


def counter_delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def run_workload(
    name: str, scale_name: str, seed: int, seconds: float, trace: bool, out_dir: Path
) -> dict:
    """One run of one workload; returns metrics, info and the correctness tally."""
    spec, scale = WORKLOADS[name], SCALES[scale_name]
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        return _run(name, spec, scale, scale_name, seed, seconds, trace, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, spec, scale, scale_name, seed, seconds, trace, work, out_dir) -> dict:
    inputs = build_inputs(scale_name, seed)
    check_frozen(
        scale_name,
        inputs.graph if seed == DEFAULT_SEED else build_inputs(scale_name, DEFAULT_SEED).graph,
    )
    graph_path, bids_path = write_inputs(inputs, work)
    rng = random.Random(seed)
    open_s = seconds * spec.open_share
    closed_s = seconds - open_s
    warm = query_sequence(inputs.queries, spec.alpha, scale.warmup_requests, rng)
    # A refreshing open phase runs on to the end of its last refresh cycle,
    # so it gets requests for well past its nominal length.
    open_requests = spec.rate * (2 * open_s + 5 if spec.refreshing else open_s)
    opened = query_sequence(inputs.queries, spec.alpha, max(1, int(open_requests)), rng)
    closed = query_sequence(inputs.queries, spec.alpha, max(1, int(3000 * closed_s)), rng)
    # Enough deltas for refits down to ~0.5 s; the refresher stops when
    # they run out, which bounds the verification replay below.
    deltas = refresh_deltas(inputs, int(2 * seconds) + 2, rng)

    # Offline pipeline, one child per repetition; the last one's store and
    # snapshot are what the serving workloads serve.
    offline = [run_offline(graph_path, bids_path, work / f"offline{rep}")
               for rep in range(scale.offline_reps)]
    artifacts = work / f"offline{scale.offline_reps - 1}"
    store_path, snapshot_path = artifacts / "rewrites.sqlite", artifacts / "snapshot"

    # Ground truth: the fitted engine.  The published store and snapshot
    # must serve exactly its profile over the whole query universe.
    tracer = Tracer()
    graph = read_edges_jsonl(graph_path)
    truth = RewriteEngine.from_graph(graph, ENGINE_CONFIG, bid_terms=inputs.bid_terms).fit()
    universe = sorted(inputs.queries)
    expected = truth.serving_profile(universe)
    artifact_failures = 0
    for source in ({"store": str(store_path)}, {"snapshot": str(snapshot_path)}):
        served = resolve_engine_source(**source).engine
        artifact_failures += served.serving_profile(universe) != expected
        if served.serving_store is not None:
            served.serving_store.close()
    truth.clear_cache()

    source_args = {
        "store": ["--store", str(store_path)],
        "snapshot": ["--snapshot", str(snapshot_path)],
        "graph": ["--graph", str(graph_path), "--bids", str(bids_path)],
    }[spec.source]
    setups = []
    for _ in range(scale.setup_reps - 1):
        extra = Server(source_args)
        setups.append(extra.setup_s)
        extra.stop()
    server = Server(source_args)
    setups.append(server.setup_s)
    refreshes = iter([refresh_request(delta) for delta in deltas]) \
        if spec.refreshing else None
    try:
        warm_result = asyncio.run(open_loop(
            HOST, server.port, [rewrite_request(q) for q in warm], 1e9, math.inf,
            spec.connections))
        stats0, cpu0, client0 = server.stats(), server.cpu_s(), time.process_time()
        open_result = asyncio.run(open_loop(
            HOST, server.port, [rewrite_request(q) for q in opened], spec.rate, open_s,
            spec.connections, refreshes))
        stats1, cpu1, client1 = server.stats(), server.cpu_s(), time.process_time()
        closed_result = asyncio.run(closed_loop(
            HOST, server.port, [rewrite_request(q) for q in closed], closed_s,
            spec.connections, refreshes))
        stats2, cpu2, client2 = server.stats(), server.cpu_s(), time.process_time()
        server_rss = peak_rss_mib(str(server.process.pid))
        healthz = (asyncio.run(healthz_latencies(HOST, server.port, scale.healthz_calls))
                   if trace else [])
    finally:
        server.stop()

    # Correctness: every read against its version's ground truth.
    refresh_log = open_result.refreshes + closed_result.refreshes
    delta_of_version = {}
    failed_refreshes = 0
    for index, (_, status, body) in enumerate(refresh_log):
        if status == 200:
            delta_of_version[json.loads(body)["version"]] = deltas[index]
        else:
            failed_refreshes += 1
    reads = (
        [(warm[s.index], s.status, s.body) for s in warm_result.samples]
        + [(opened[s.index], s.status, s.body) for s in open_result.samples]
        + [(closed[s.index % len(closed)], s.status, s.body) for s in closed_result.samples]
    )
    failed_reads, invalidated = verify_reads(reads, truth.copy(), delta_of_version, tracer)
    attempted = len(reads) + len(refresh_log) + len(offline) + 2
    failed = failed_reads + failed_refreshes + artifact_failures

    open_ms = [s.latency_s * 1000 if s.status == 200 else math.inf
               for s in open_result.samples]
    late = [s.late_s * 1000 for s in open_result.samples if s.late_s is not None]
    ok_closed = sum(1 for s in closed_result.samples if s.status == 200)
    metrics = {
        "latency_p50_ms": percentile(open_ms, 50),
        "latency_p99_ms": percentile(open_ms, 99),
        "throughput_rps": ok_closed / closed_result.elapsed_s,
        "setup_s": median(setups),
        "peak_rss_mib": server_rss,
        "offline_s": median([run["offline_s"] for run in offline]),
    }
    info = {
        "seed": seed,
        "open_samples": len(open_ms),
        "open_samples_beyond_p99": sum(1 for v in open_ms if v > metrics["latency_p99_ms"]),
        "closed_samples": len(closed_result.samples),
        "open_late_p50_ms": percentile(late, 50),
        "refresh_round_trips_s": [round(rtt, 4) for rtt, _, _ in refresh_log],
        "offline_peak_rss_mib": median([run["peak_rss_mib"] for run in offline]),
    }
    if trace:
        layer = trace_pass(
            spec, scale, inputs, truth, graph, deltas,
            [opened[s.index] for s in open_result.samples], store_path, snapshot_path,
            offline, tracer, invalidated,
        )
        hits = counter_delta(stats2, stats0, "engine", "cache", "hits")
        misses = counter_delta(stats2, stats0, "engine", "cache", "misses")
        # The open phase's hit share, from its replay: /stats counts only the
        # currently published engine's lookups, which under /refresh misses
        # the reads of every superseded version.
        replay_hits = len(tracer.durations("api.rewrite.hit"))
        hit_share = replay_hits / (replay_hits + len(tracer.durations("api.rewrite.miss")))
        service = stats1["latency_ms"]
        api_p50_ms = (hit_share * layer["api.rewrite_hit_p50_us"]
                      + (1 - hit_share) * layer["api.rewrite_miss_p50_us"]) / 1000.0
        batches = counter_delta(stats2, stats0, "batching", "batches")
        batched = counter_delta(stats2, stats0, "batching", "batched_requests")
        store0, store2 = stats0["engine"]["store"], stats2["engine"]["store"]
        closed_n = len(closed_result.samples)
        layer.update({
            "api.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "store.lookups": store2["lookups"] - store0["lookups"] if store2 else 0,
            "serving.healthz_p50_ms": percentile(healthz, 50) * 1000,
            "serving.service_p50_ms": service["p50"],
            "serving.service_p99_ms": service["p99"],
            "serving.wire_p50_ms": metrics["latency_p50_ms"] - service["p50"],
            "serving.dispatch_p50_ms": service["p50"] - api_p50_ms,
            "serving.mean_batch": batched / batches if batches else 0.0,
            "serving.max_batch": stats2["batching"]["max_batch"],
            "serving.queue_high_water": stats2["batching"]["queue_high_water"],
            "serving.unique_per_request": (
                counter_delta(stats2, stats0, "batching", "unique_rewrites_served") / batched
                if batched else 0.0
            ),
            "serving.cpu_us_per_request": (cpu2 - cpu1) / closed_n * 1e6,
            "serving.publish_retries": stats2["health"]["publish"]["retries"],
            "serving.publish_failures": stats2["health"]["publish"]["failures"],
            "loadgen.late_p99_ms": percentile(late, 99),
            "loadgen.cpu_us_per_request": (client2 - client1) / closed_n * 1e6,
        })
        metrics.update(layer)
        info["open_cpu_us_per_request"] = {
            "server": (cpu1 - cpu0) / len(open_ms) * 1e6,
            "loadgen": (client1 - client0) / len(open_ms) * 1e6,
        }
        trace_file = out_dir / f"{name}.trace.json"
        trace_file.write_text(json.dumps({
            "workload": name, "seed": seed,
            "fields": ["name", "start", "end", "parent", "request_id"],
            "spans": tracer.spans + [
                [stage, start, end, None, rep]
                for rep, run in enumerate(offline)
                for stage, (start, end) in run["stages"].items()
            ],
        }), encoding="utf-8")
        info["trace_file"] = str(trace_file)
    return {"metrics": metrics, "info": info, "attempted": attempted, "failed": failed}


def trace_pass(spec, scale, inputs, truth, graph, deltas, sent, store_path,
               snapshot_path, offline, tracer, invalidated) -> Dict[str, float]:
    """Per-layer numbers from public calls made in this process."""
    repeats = scale.layer_repeats
    time_calls("graph.components", lambda: connected_components(graph), repeats, tracer)
    time_calls("graph.csr", graph.to_sparse_matrix, repeats, tracer)
    time_calls("api.load", lambda: RewriteEngine.load(snapshot_path), repeats, tracer)
    time_calls("store.open", lambda: SqliteServingStore(store_path), repeats, tracer)

    # The open phase's exact query sequence against an engine built from the
    # source the server served: spans off, then spans on.
    def served_engine() -> RewriteEngine:
        if spec.source == "store":
            return resolve_engine_source(store=str(store_path)).engine
        if spec.source == "snapshot":
            return resolve_engine_source(snapshot=str(snapshot_path)).engine
        fresh = truth.copy()
        fresh.clear_cache()
        return fresh

    plain = served_engine()
    untraced_s, _ = timed_replay(plain, sent, None)
    traced = served_engine()
    traced_s, missed = timed_replay(traced, sent, tracer)
    for engine in (plain, traced):
        if engine.serving_store is not None:
            engine.serving_store.close()
    probe_misses(missed, truth, inputs.bid_terms, str(store_path), tracer)

    # Refresh layers: the verification replay applied the served deltas;
    # workloads without /refresh traffic apply two here.
    if not invalidated:
        engine = truth
        for delta in deltas[:2]:
            engine = advance(engine, delta, tracer)
            invalidated.append(engine.last_refresh.invalidated_entries)

    def us(name: str, q: float) -> float:
        return percentile(tracer.durations(name), q) * 1e6

    compute = tracer.durations("core.compute_rewrites")
    top = tracer.durations("core.top_rewrites")

    def stage(name: str) -> float:
        return median([run["stages"][name][1] - run["stages"][name][0] for run in offline])

    return {
        "graph.read_s": stage("graph.read"),
        "graph.components_s": median(tracer.durations("graph.components")),
        "graph.csr_s": median(tracer.durations("graph.csr")),
        "core.score_pairs": len(truth.method.similarities()),
        "core.top_rewrites_p50_us": us("core.top_rewrites", 50),
        "core.top_rewrites_p99_us": us("core.top_rewrites", 99),
        "core.filter_p50_us": median([c - t for c, t in zip(compute, top)]) * 1e6,
        "api.fit_s": stage("api.fit"),
        "api.export_store_s": stage("api.export_store"),
        "api.save_s": stage("api.save"),
        "api.load_s": median(tracer.durations("api.load")),
        "api.rewrite_hit_p50_us": us("api.rewrite.hit", 50),
        "api.rewrite_hit_p99_us": us("api.rewrite.hit", 99),
        "api.rewrite_miss_p50_us": us("api.rewrite.miss", 50),
        "api.rewrite_miss_p99_us": us("api.rewrite.miss", 99),
        "api.copy_s": median(tracer.durations("api.copy")),
        "api.refresh_s": median(tracer.durations("api.refresh")),
        "api.invalidated_per_refresh": median(invalidated),
        "store.open_s": median(tracer.durations("store.open")),
        "store.lookup_p50_us": us("store.lookup", 50),
        "store.lookup_p99_us": us("store.lookup", 99),
        "store.bytes": store_path.stat().st_size,
        "trace.overhead_pct": (traced_s - untraced_s) / untraced_s * 100.0,
    }
