"""Deterministic, seedable fault injection for the serving/refresh path.

The serving tier's resilience claims (deadlines, retried refreshes, the
circuit breaker, degraded-mode health -- :mod:`repro.serving.resilience`)
are only claims until something actually fails.  This module provides the
something: named **fault points** compiled into the hot paths -- snapshot
IO, shard-fit workers, delta apply, engine refresh, request handling --
that are no-ops until a :class:`FaultPlan` is activated, at which point
they inject exceptions, added latency, partial/corrupt writes, or
worker-process crashes exactly where and as often as the plan says.

Design constraints, in order:

1. **Zero overhead when inactive.**  :func:`fire`/:func:`claim` load one
   module global and return on ``None`` -- no allocation, no locking, no
   string formatting.  The chaos gate
   (``benchmarks/bench_chaos_serving.py``) measures this.
2. **Deterministic.**  Activation is counted centrally per point under a
   lock; a spec fires on exact hit windows (``after`` <= hit index, at
   most ``times`` firings), never on probabilities, so a failing chaos
   run replays identically.
3. **Crosses process boundaries explicitly.**  Plans live in the process
   that activated them.  Sites that hand work to worker processes (the
   sharded fitter's process pool) *claim* the pending
   :class:`FaultAction` in the parent -- consuming the central counter --
   and ship the picklable action to the worker, which executes it there.
   That is how ``shard.fit.worker`` crash faults kill an actual worker
   process while retries in the parent see the fault already consumed.

Usage::

    from repro.core import faults

    plan = faults.FaultPlan([
        faults.FaultSpec("engine.refresh", error="injected outage", times=2),
        faults.FaultSpec("shard.fit", latency_s=0.2),
    ])
    with plan:                       # activate for this block
        ...                          # first two refreshes now raise
    plan.fired                       # what actually triggered, in order

Instrumented points (grep for ``faults.fire`` / ``faults.claim``):

===================== ====================================================
``snapshot.write``     :func:`repro.api.snapshot.write_snapshot` entry;
                       ``corrupt=True`` specs truncate the staged score
                       matrix so the *published* snapshot is corrupt (a
                       torn write that made it to disk).
``snapshot.read``      :func:`repro.api.snapshot.read_snapshot` entry.
``delta.apply``        in :meth:`repro.api.engine.RewriteEngine.refresh`,
                       immediately before the graph mutation (the graph
                       layer cannot import :mod:`repro.core` back).
``engine.refresh``     :meth:`repro.api.engine.RewriteEngine.refresh`.
``shard.fit``          per shard in the sharded fitter, all executors.
``shard.fit.worker``   per shard, **process executor only** -- the action
                       executes inside the worker process, so
                       ``crash=True`` kills a real worker (the parent
                       sees ``BrokenProcessPool``).
``serving.request``    request routing in the HTTP server.
``serving.compute``    one request's compute in a serving-pool thread,
                       once per executor call (inject latency here to
                       trip per-request deadlines).
===================== ====================================================
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_POINTS",
    "FaultError",
    "FaultSpec",
    "FaultAction",
    "FaultPlan",
    "FaultEvent",
    "FaultSchedule",
    "activate",
    "deactivate",
    "active_plan",
    "injected",
    "fire",
    "claim",
    "should_corrupt",
]

#: The authoritative registry of instrumented fault points (the module
#: docstring's table, in executable form).  The static analyzer's RL004
#: checker keeps it honest in both directions: every ``faults.fire`` /
#: ``faults.claim`` / ``faults.should_corrupt`` site in the ``repro``
#: package must use a name listed here, and every name listed here must
#: have at least one site.  Keep this a literal ``frozenset({...})`` of
#: strings -- the checker reads it from the AST, not by importing.
FAULT_POINTS = frozenset(
    {
        "snapshot.write",
        "snapshot.read",
        "delta.apply",
        "engine.refresh",
        "shard.fit",
        "shard.fit.worker",
        "serving.request",
        "serving.compute",
    }
)


class FaultError(RuntimeError):
    """The exception injected ``error`` faults raise at their fault point."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what to inject at ``point``, and when.

    Attributes
    ----------
    point:
        The fault-point name this spec arms (see the module table).
    error:
        Message of the :class:`FaultError` to raise (None = don't raise).
    latency_s:
        Seconds to sleep at the point before anything else happens.
    corrupt:
        Marks this spec for the *corrupt-write* channel: it is consumed by
        :func:`should_corrupt` (sites that can deliberately tear a write)
        instead of :func:`fire`.
    crash:
        ``os._exit(3)`` at the point -- only meaningful at points executed
        inside worker processes (``shard.fit.worker``); crashing the
        serving process itself is never injected.
    times:
        Fire at most this many times (None = every matching hit).
    after:
        Skip the first ``after`` hits of the point before arming.
    """

    point: str
    error: Optional[str] = None
    latency_s: float = 0.0
    corrupt: bool = False
    crash: bool = False
    times: Optional[int] = 1
    after: int = 0

    def __post_init__(self) -> None:
        if not self.point:
            raise ValueError("FaultSpec needs a non-empty point name")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.error is None and self.latency_s == 0 and not self.corrupt and not self.crash:
            raise ValueError(
                f"FaultSpec for {self.point!r} injects nothing: set error=, "
                "latency_s=, corrupt=True or crash=True"
            )


@dataclass(frozen=True)
class FaultAction:
    """A claimed, ready-to-execute fault -- picklable, so it can travel to
    a worker process and execute there (see :func:`claim`)."""

    point: str
    error: Optional[str] = None
    latency_s: float = 0.0
    crash: bool = False

    def execute(self) -> None:
        """Inject: sleep, then crash or raise, as the spec directed."""
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        if self.crash:
            # A hard worker death: no exception propagation, no cleanup --
            # exactly what a OOM-killed or segfaulted fit worker looks like
            # to the parent pool (BrokenProcessPool).
            os._exit(3)
        if self.error is not None:
            raise FaultError(f"injected fault at {self.point}: {self.error}")


class FaultPlan:
    """An activatable set of :class:`FaultSpec` with central hit counting.

    Hit counting is per point and shared by every spec: each
    :func:`fire`/:func:`claim`/:func:`should_corrupt` visit of a point
    increments its counter once, and the first spec whose
    ``after``/``times`` window covers that hit (and whose channel --
    corrupt or not -- matches) fires.  All bookkeeping is lock-protected,
    so concurrent serving threads see a consistent countdown.

    A plan is a context manager: ``with plan:`` activates it for the block
    and restores whatever plan (usually none) was active before.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self._specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._spec_fired: List[int] = [0] * len(self._specs)
        #: Chronological log of (point, kind) for every injected fault.
        self.fired: List[Tuple[str, str]] = []

    @property
    def specs(self) -> Tuple[FaultSpec, ...]:
        return self._specs

    def hits(self, point: str) -> int:
        """How many times ``point`` has been visited under this plan."""
        with self._lock:
            return self._hits.get(point, 0)

    def fire_count(self, point: Optional[str] = None) -> int:
        """Injected faults so far (optionally only at ``point``)."""
        with self._lock:
            if point is None:
                return len(self.fired)
            return sum(1 for fired_point, _ in self.fired if fired_point == point)

    def claim(self, point: str, corrupt: bool = False) -> Optional[FaultAction]:
        """Consume the pending fault at ``point``, if any.

        Increments the point's hit counter and, when a spec's window covers
        this hit, marks the spec fired and returns its action -- which the
        caller executes wherever appropriate (in place via
        :meth:`FaultAction.execute`, or shipped to a worker process).
        Returns None when nothing is armed for this hit.
        """
        with self._lock:
            hit = self._hits.get(point, 0)
            self._hits[point] = hit + 1
            for index, spec in enumerate(self._specs):
                if spec.point != point or spec.corrupt != corrupt:
                    continue
                if hit < spec.after:
                    continue
                if spec.times is not None and self._spec_fired[index] >= spec.times:
                    continue
                self._spec_fired[index] += 1
                kind = (
                    "crash"
                    if spec.crash
                    else "corrupt"
                    if spec.corrupt
                    else "error"
                    if spec.error is not None
                    else "latency"
                )
                self.fired.append((point, kind))
                return FaultAction(
                    point=point,
                    error=spec.error,
                    latency_s=spec.latency_s,
                    crash=spec.crash,
                )
        return None

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary: the specs and what has fired (for artifacts)."""
        with self._lock:
            return {
                "specs": [
                    {
                        "point": spec.point,
                        "error": spec.error,
                        "latency_s": spec.latency_s,
                        "corrupt": spec.corrupt,
                        "crash": spec.crash,
                        "times": spec.times,
                        "after": spec.after,
                    }
                    for spec in self._specs
                ],
                "hits": dict(self._hits),
                "fired": list(self.fired),
            }

    # ------------------------------------------------------- context manager

    def __enter__(self) -> "FaultPlan":
        self._previous = active_plan()
        activate(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        activate(self._previous)

    def __repr__(self) -> str:
        return f"FaultPlan(specs={len(self._specs)}, fired={self.fire_count()})"


# ---------------------------------------------------------------- activation

#: The single active plan.  Read without locking on the hot path: fault
#: points fire only for the plan a test/benchmark deliberately installed,
#: and installation is the rare, already-synchronized operation.
_ACTIVE: Optional[FaultPlan] = None


def activate(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as the process-wide active plan (None deactivates)."""
    global _ACTIVE
    _ACTIVE = plan


def deactivate() -> None:
    """Clear the active plan: every fault point is a no-op again."""
    activate(None)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with faults.injected(plan):`` -- activate for the block, then restore."""
    previous = active_plan()
    activate(plan)
    try:
        yield plan
    finally:
        activate(previous)


# --------------------------------------------------------------- fault points


def fire(point: str) -> None:
    """The fault point: no-op without a plan, else inject what is armed.

    This is the line compiled into the hot paths, so the inactive case is
    one global load and a ``None`` test -- nothing else.
    """
    plan = _ACTIVE
    if plan is None:
        return
    action = plan.claim(point)
    if action is not None:
        action.execute()


def claim(point: str) -> Optional[FaultAction]:
    """Consume the pending fault at ``point`` without executing it.

    For sites that run the actual work elsewhere (a worker process, a
    submitted thread task): the claim happens centrally and deterministically
    in the caller, the returned action travels with the work and executes
    at the destination.  No-op (None) without an active plan.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.claim(point)


def should_corrupt(point: str) -> bool:
    """Whether a ``corrupt=True`` spec is armed for this visit of ``point``.

    Sites that know how to tear their own write (e.g. the snapshot writer
    truncating the staged score matrix) consult this; everything else uses
    :func:`fire`.  No-op (False) without an active plan.
    """
    plan = _ACTIVE
    if plan is None:
        return False
    return plan.claim(point, corrupt=True) is not None


# ------------------------------------------------------------ fault schedule


@dataclass(frozen=True)
class FaultEvent:
    """Install ``plan`` (None = clear) ``at_s`` seconds into a run."""

    at_s: float
    plan: Optional[FaultPlan]

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")


@dataclass(frozen=True)
class FaultSchedule:
    """A scripted timeline of plan (de)activations for a load run.

    ``repro.serving.loadgen.run_load(fault_schedule=...)`` replays the
    events while the load is in flight, so the chaos gate can open and
    close fault windows mid-traffic deterministically (same offsets every
    run; the load itself is seeded).  Events fire in ``at_s`` order
    regardless of construction order.
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda event: event.at_s))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)
