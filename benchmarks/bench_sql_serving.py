"""SQL-serving gate: latency ratio, byte-equality, resident memory, export cost.

The acceptance criteria for the SQLite serving store (:mod:`repro.store`),
all four asserted in one run:

1. **Latency.**  On the 1500-node scenario graph, p99 ``rewrites()``
   lookup latency against the SQLite store must be within **5x** of the
   in-memory store's -- stores are compared *directly* (no engine LRU
   cache in front) so every call pays the real lookup cost.
2. **Byte-equality.**  A store-backed engine's ``serving_profile`` over
   the full query universe must equal the fitted engine's exactly --
   same rewrites, same ranks, bit-identical float64 scores.
3. **Resident memory.**  On a larger graph, peak RSS of store-backed
   serving must come in measurably below full-snapshot serving (the
   whole point: O(cache) instead of O(score matrix)).  Each side runs in
   its own subprocess and reads ``VmHWM`` from ``/proc/self/status``:
   unlike ``ru_maxrss`` -- which Linux carries across fork+exec, so a
   child spawned from this (large) benchmark process would inherit the
   parent's peak -- ``VmHWM`` belongs to the fresh post-exec address
   space and measures only the child's own serving footprint.
4. **Export cost.**  On the same larger graph, ``export_store`` must take
   at most **2x** as long as the ``fit`` it materializes: the store holds
   only the filtered lists the engine already serves, so writing it must
   not dwarf computing them.

Writes ``BENCH_sql_serving.json`` next to this file.  Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_sql_serving.py
    PYTHONPATH=src python benchmarks/bench_sql_serving.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core.config import SimrankConfig
from repro.store import InMemoryServingStore, SqliteServingStore
from repro.synth.scenarios import multi_component_graph

#: SQLite p99 lookup latency must stay within this factor of in-memory.
P99_RATIO_CEILING = 5.0
#: Store-backed serving must beat snapshot serving's peak RSS by at least
#: this margin (MiB) on the RSS graph -- "measurably below", not noise.
RSS_MARGIN_MIB = 8.0
LATENCY_ROUNDS = 5
#: export_store may take at most this many times the fit's wall time.
EXPORT_RATIO_CEILING = 2.0

SIMILARITY = SimrankConfig(iterations=7, zero_evidence_floor=0.1)

#: The 1500-node scenario shared with bench_engine_snapshot.py.
LATENCY_GRAPH_PARAMS = dict(
    num_components=30,
    queries_per_component=30,
    ads_per_component=20,
    extra_edges=90,
    seed=41,
)

#: A much larger graph for the RSS comparison: ~1.3M stored score pairs,
#: so the resident CSR matrix dwarfs the subprocess baseline while the
#: SQLite store keeps it on disk.
RSS_GRAPH_PARAMS = dict(
    num_components=6,
    queries_per_component=500,
    ads_per_component=200,
    extra_edges=3000,
    seed=43,
)
#: Queries served by each RSS subprocess (point lookups, cold cache).
RSS_SERVING_QUERIES = 50

ARTIFACT_PATH = Path(__file__).resolve().parent / "BENCH_sql_serving.json"


def build_engine(graph_params):
    graph = multi_component_graph(**graph_params)
    config = EngineConfig(
        method="weighted_simrank", backend="sharded", similarity=SIMILARITY
    )
    bid_terms = {str(query) for query in graph.queries()}
    return RewriteEngine.from_graph(graph, config, bid_terms=bid_terms)


def percentile(values, fraction):
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(len(ranked) * fraction))]


def lookup_latencies(store, queries, rounds=LATENCY_ROUNDS):
    """Per-query best-of-rounds lookup seconds, straight at the store."""
    best = {query: float("inf") for query in queries}
    for _ in range(rounds):
        for query in queries:
            start = time.perf_counter()
            store.rewrites(query)
            best[query] = min(best[query], time.perf_counter() - start)
    return list(best.values())


def measure_latency_and_equality(workdir: Path) -> dict:
    engine = build_engine(LATENCY_GRAPH_PARAMS).fit()
    store_path = engine.export_store(workdir / "latency.sqlite")
    queries = engine._serving_universe()

    memory_store = InMemoryServingStore.from_engine(engine)
    sqlite_store = SqliteServingStore(store_path)
    try:
        memory_p99 = percentile(lookup_latencies(memory_store, queries), 0.99)
        sqlite_p99 = percentile(lookup_latencies(sqlite_store, queries), 0.99)
        served = RewriteEngine.from_store(sqlite_store)
        equal_serving = served.serving_profile(queries) == engine.serving_profile(
            queries
        )
    finally:
        sqlite_store.close()
    return {
        "graph": LATENCY_GRAPH_PARAMS,
        "queries": len(queries),
        "store_bytes": store_path.stat().st_size,
        "memory_p99_us": memory_p99 * 1e6,
        "sqlite_p99_us": sqlite_p99 * 1e6,
        "p99_ratio": sqlite_p99 / memory_p99,
        "equal_serving": equal_serving,
    }


#: Runs in a subprocess: serve a query sample from one source, report the
#: process's own peak resident memory (KiB) and a serving-profile digest.
#: VmHWM preferred over ru_maxrss -- see the module docstring.
_CHILD_SCRIPT = """
import hashlib, json, resource, sys
from repro.api.engine import RewriteEngine

def peak_kib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

kind, source, queries_path = sys.argv[1], sys.argv[2], sys.argv[3]
queries = json.loads(open(queries_path).read())
engine = (
    RewriteEngine.from_store(source) if kind == "store"
    else RewriteEngine.load(source)
)
profile = engine.serving_profile(queries)
digest = hashlib.sha256(repr(profile).encode()).hexdigest()
print(json.dumps({"peak_kib": peak_kib(), "digest": digest}))
"""


def serve_in_subprocess(kind: str, source: Path, queries_path: Path) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, kind, str(source), str(queries_path)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=Path(__file__).resolve().parent.parent,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def measure_rss(workdir: Path) -> dict:
    engine = build_engine(RSS_GRAPH_PARAMS)
    started = time.perf_counter()
    engine.fit()
    fitted = time.perf_counter()
    store_path = engine.export_store(workdir / "rss.sqlite")
    exported = time.perf_counter()
    snapshot_path = engine.save(workdir / "rss-snapshot")
    queries = engine._serving_universe()[:RSS_SERVING_QUERIES]
    queries_path = workdir / "rss-queries.json"
    queries_path.write_text(json.dumps(queries))

    snapshot = serve_in_subprocess("snapshot", snapshot_path, queries_path)
    store = serve_in_subprocess("store", store_path, queries_path)
    return {
        "graph": RSS_GRAPH_PARAMS,
        "stored_pairs": len(engine.method.similarities()),
        "fit_s": fitted - started,
        "export_s": exported - fitted,
        "store_bytes": store_path.stat().st_size,
        "serving_queries": len(queries),
        "snapshot_peak_kib": snapshot["peak_kib"],
        "store_peak_kib": store["peak_kib"],
        "saved_mib": (snapshot["peak_kib"] - store["peak_kib"]) / 1024.0,
        "equal_digests": snapshot["digest"] == store["digest"],
    }


def run_measurements() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_sql_serving_") as root:
        workdir = Path(root)
        return {
            "latency": measure_latency_and_equality(workdir),
            "rss": measure_rss(workdir),
        }


def write_artifact(results: dict) -> None:
    payload = {
        "benchmark": "bench_sql_serving",
        "config": {
            "method": "weighted_simrank",
            "backend": "sharded",
            "iterations": SIMILARITY.iterations,
            "zero_evidence_floor": SIMILARITY.zero_evidence_floor,
            "p99_ratio_ceiling": P99_RATIO_CEILING,
            "rss_margin_mib": RSS_MARGIN_MIB,
            "export_ratio_ceiling": EXPORT_RATIO_CEILING,
        },
        "results": results,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_sql_serving_is_equal_fast_and_small():
    """The acceptance gate -- and the producer of BENCH_sql_serving.json."""
    results = run_measurements()
    write_artifact(results)
    latency, rss = results["latency"], results["rss"]
    print(
        f"\np99 lookup: memory {latency['memory_p99_us']:.0f} us, sqlite "
        f"{latency['sqlite_p99_us']:.0f} us (ratio {latency['p99_ratio']:.2f}x, "
        f"ceiling {P99_RATIO_CEILING}x); store {latency['store_bytes'] / 1024:.0f} KiB; "
        f"peak RSS: snapshot {rss['snapshot_peak_kib'] / 1024:.0f} MiB, store "
        f"{rss['store_peak_kib'] / 1024:.0f} MiB (saved {rss['saved_mib']:.0f} MiB); "
        f"export {rss['export_s']:.2f} s vs fit {rss['fit_s']:.2f} s "
        f"(ceiling {EXPORT_RATIO_CEILING}x); artifact: {ARTIFACT_PATH.name}"
    )
    # Equivalence first: a fast wrong answer must not pass.
    assert latency["equal_serving"], "store-backed serving profile differs"
    assert rss["equal_digests"], "subprocess serving profiles differ"
    assert latency["p99_ratio"] <= P99_RATIO_CEILING, (
        f"SQLite p99 lookup {latency['p99_ratio']:.2f}x in-memory "
        f"(ceiling: {P99_RATIO_CEILING}x)"
    )
    saved = rss["saved_mib"]
    assert saved >= RSS_MARGIN_MIB, (
        f"store-backed serving saved only {saved:.1f} MiB of peak RSS over "
        f"snapshot serving (required margin: {RSS_MARGIN_MIB} MiB)"
    )
    assert rss["export_s"] <= EXPORT_RATIO_CEILING * rss["fit_s"], (
        f"export_store took {rss['export_s']:.2f} s against a "
        f"{rss['fit_s']:.2f} s fit (ceiling: {EXPORT_RATIO_CEILING}x)"
    )


def main() -> None:
    results = run_measurements()
    write_artifact(results)
    print(json.dumps(results, indent=2))
    print(f"wrote {ARTIFACT_PATH}")


if __name__ == "__main__":
    main()
