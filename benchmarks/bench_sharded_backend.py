"""Sharded-backend speedup gate: per-component fits vs one dense fixpoint.

SimRank scores across connected components are provably zero, so on a
multi-component click graph the dense engine wastes most of its ``O(n^3)``
matrix products on blocks that stay zero.  The sharded backend fits one dense
engine per component instead; on the 10-component synthetic graph below it
must be at least 2x faster than the whole-graph dense engine while producing
identical scores.

A second gate covers the process pool: on a many-component graph whose shard
fits dominate the fork/pickle overhead, ``n_jobs=4`` with
``executor="process"`` must fit at least 2.5x faster than the same serial
fit, with identical scores.  The claim needs 4 schedulable CPUs, so that
gate skips on smaller machines.

Run the gates and the timing figures with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_sharded_backend.py
    PYTHONPATH=src python benchmarks/bench_sharded_backend.py
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import SimrankConfig
from repro.core.parallel import available_cpu_count
from repro.core.simrank_matrix import MatrixSimrank
from repro.core.simrank_sharded import ShardedSimrank
from repro.synth.scenarios import multi_component_graph

NUM_COMPONENTS = 10
QUERIES_PER_COMPONENT = 40
ADS_PER_COMPONENT = 30
SPEEDUP_FLOOR = 2.0

CONFIG = SimrankConfig(iterations=7, zero_evidence_floor=0.1)

PARALLEL_SPEEDUP_FLOOR = 2.5
PARALLEL_JOBS = 4

#: The process-pool gate's graph and config: per-shard dense fits heavy
#: enough that the fork + pickle overhead is amortised many times over.
PARALLEL_GRAPH = dict(
    num_components=8, queries_per_component=220, ads_per_component=220,
    extra_edges=600, seed=53,
)
PARALLEL_CONFIG = SimrankConfig(iterations=25, zero_evidence_floor=0.1)


def build_graph():
    """A 10-component weighted click graph (400 queries, 300 ads)."""
    return multi_component_graph(
        num_components=NUM_COMPONENTS,
        queries_per_component=QUERIES_PER_COMPONENT,
        ads_per_component=ADS_PER_COMPONENT,
        extra_edges=3 * QUERIES_PER_COMPONENT,
        seed=41,
    )


def best_fit_seconds(method_factory, graph, rounds=3):
    """Fastest of ``rounds`` full fits (best-of to damp scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        method = method_factory()
        start = time.perf_counter()
        method.fit(graph)
        best = min(best, time.perf_counter() - start)
    return best, method


def test_sharded_fit_is_at_least_2x_faster_than_dense():
    """The acceptance gate: sharded >= 2x dense on a 10-component graph."""
    graph = build_graph()
    dense_seconds, dense = best_fit_seconds(
        lambda: MatrixSimrank(CONFIG, mode="weighted"), graph
    )
    sharded_seconds, sharded = best_fit_seconds(
        lambda: ShardedSimrank(CONFIG, mode="weighted"), graph
    )
    assert sharded.num_shards == NUM_COMPONENTS
    # Equal scores first -- a fast wrong answer must not pass the gate.
    assert dense.similarities().max_difference(sharded.similarities()) < 1e-9
    speedup = dense_seconds / sharded_seconds
    print(
        f"\ndense fit {dense_seconds * 1000:.1f} ms, sharded fit "
        f"{sharded_seconds * 1000:.1f} ms, speedup {speedup:.1f}x "
        f"({sharded.num_shards} shards)"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"sharded backend only {speedup:.2f}x faster than dense "
        f"(floor: {SPEEDUP_FLOOR}x)"
    )


def test_process_pool_fit_is_at_least_2_5x_faster():
    """n_jobs=4 process-pool fit >= 2.5x the serial fit, identical scores."""
    cpus = available_cpu_count()
    if cpus < PARALLEL_JOBS:
        pytest.skip(
            f"needs {PARALLEL_JOBS} schedulable CPUs for the speedup claim, "
            f"found {cpus}"
        )
    graph = multi_component_graph(**PARALLEL_GRAPH)
    serial_seconds, serial = best_fit_seconds(
        lambda: ShardedSimrank(PARALLEL_CONFIG, mode="weighted", n_jobs=1), graph
    )
    parallel_seconds, parallel = best_fit_seconds(
        lambda: ShardedSimrank(
            PARALLEL_CONFIG,
            mode="weighted",
            n_jobs=PARALLEL_JOBS,
            executor="process",
        ),
        graph,
    )
    speedup = serial_seconds / parallel_seconds
    print(
        f"\nserial {serial_seconds:.2f}s, n_jobs={PARALLEL_JOBS} process "
        f"{parallel_seconds:.2f}s ({speedup:.1f}x on {cpus} CPUs)"
    )
    assert serial.similarities().max_difference(parallel.similarities()) == 0.0
    assert speedup >= PARALLEL_SPEEDUP_FLOOR, (
        f"process pool only {speedup:.2f}x faster than serial "
        f"(floor: {PARALLEL_SPEEDUP_FLOOR}x)"
    )


def main() -> None:
    graph = build_graph()
    print(f"graph: {graph} in {NUM_COMPONENTS} components")
    dense_seconds, _ = best_fit_seconds(lambda: MatrixSimrank(CONFIG, mode="weighted"), graph)
    print(f"dense fit:           {dense_seconds * 1000:8.1f} ms")
    for n_jobs in (1, 2, -1):
        sharded_seconds, sharded = best_fit_seconds(
            lambda: ShardedSimrank(CONFIG, mode="weighted", n_jobs=n_jobs), graph
        )
        print(
            f"sharded (n_jobs={n_jobs:>2}): {sharded_seconds * 1000:8.1f} ms  "
            f"({dense_seconds / sharded_seconds:4.1f}x, {sharded.num_shards} shards)"
        )


if __name__ == "__main__":
    main()
