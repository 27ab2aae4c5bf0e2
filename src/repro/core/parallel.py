"""Shared worker-pool sizing and work-chunking helpers.

Every pool in the codebase -- the sharded fitter's thread and process tiers
(:mod:`repro.core.simrank_sharded`) and the serving executors
(:mod:`repro.serving.server`) -- sizes itself through
:func:`available_cpu_count`.  The distinction matters in containers:
``os.cpu_count()`` reports the *machine's* cores, while cgroup CPU affinity
(the way CI runners and serving pods are actually restricted) caps the
process to a subset.  Sizing ``n_jobs=-1`` from ``cpu_count()`` there
oversubscribes the pool -- more threads/processes than schedulable CPUs --
which at best thrashes and at worst hides the restriction from benchmarks.
``len(os.sched_getaffinity(0))`` reads the schedulable set directly where
the platform provides it (Linux), with ``cpu_count()`` as the portable
fallback.

:func:`chunk_balanced` packs per-shard work into a bounded number of batches
for the process-pool tier: one pickled payload per *batch* rather than per
shard amortises inter-process transfer, and greedy longest-processing-time
assignment keeps the batches' estimated costs even so no worker becomes the
straggler.
"""

from __future__ import annotations

import os
from typing import List, Sequence

__all__ = [
    "available_cpu_count",
    "resolve_worker_count",
    "chunk_balanced",
    "pick_executor",
]


def available_cpu_count() -> int:
    """Number of CPUs this process may actually run on (never < 1).

    Prefers the scheduling affinity mask (honours cgroup/affinity limits in
    containers); falls back to :func:`os.cpu_count` on platforms without
    ``sched_getaffinity`` (macOS, Windows).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def resolve_worker_count(n_jobs: int, num_tasks: int) -> int:
    """Pool size for ``n_jobs`` over ``num_tasks`` independent tasks.

    ``n_jobs=-1`` means one worker per *available* CPU (see
    :func:`available_cpu_count`); any positive request is honoured as given.
    Either way the pool is never wider than the number of tasks, and never
    smaller than 1.
    """
    if n_jobs == 0 or n_jobs < -1:
        raise ValueError(f"n_jobs must be a positive integer or -1, got {n_jobs}")
    workers = available_cpu_count() if n_jobs == -1 else n_jobs
    return min(workers, max(num_tasks, 1))


def chunk_balanced(costs: Sequence[float], num_chunks: int) -> List[List[int]]:
    """Partition task indices into <= ``num_chunks`` cost-balanced batches.

    Greedy longest-processing-time: tasks are assigned in decreasing cost
    order to the currently lightest batch, which keeps the makespan within
    4/3 of optimal -- plenty for shard batches whose costs are themselves
    estimates.  Empty batches are dropped, and returned batches preserve no
    particular order (callers track indices, not positions).
    """
    if num_chunks < 1:
        raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
    chunks: List[List[int]] = [[] for _ in range(min(num_chunks, len(costs)))]
    if not chunks:
        return []
    loads = [0.0] * len(chunks)
    for index in sorted(range(len(costs)), key=lambda i: -costs[i]):
        lightest = loads.index(min(loads))
        chunks[lightest].append(index)
        loads[lightest] += costs[index]
    return [chunk for chunk in chunks if chunk]


#: Estimated per-fit work (in squared-node units, see :func:`pick_executor`)
#: below which forking a process pool costs more than it saves.  A dense fit
#: on a few hundred nodes takes single-digit milliseconds; process start-up
#: plus pickling the subgraphs and fitted scores is of the same order, so
#: processes only pay off once the per-fit compute clearly dominates.
PROCESS_WORK_THRESHOLD = 500_000


def pick_executor(node_counts: Sequence[int], workers: int) -> str:
    """Choose ``"thread"`` or ``"process"`` for a batch of per-shard fits.

    Threads are free to start but GIL-bound outside numpy's released-GIL
    regions; processes scale with cores but pay fork + pickle overhead per
    fit.  The estimated total work ``sum(n_k^2)`` (the per-iteration cost
    scale of the dense inner engine) decides: below
    :data:`PROCESS_WORK_THRESHOLD` the overhead dominates and threads win.
    """
    if workers <= 1 or len(node_counts) <= 1:
        return "thread"
    total_work = sum(float(count) ** 2 for count in node_counts)
    return "process" if total_work >= PROCESS_WORK_THRESHOLD else "thread"
