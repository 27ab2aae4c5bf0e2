"""Copy-on-write engine publication: the zero-downtime refresh primitive.

:class:`EngineHolder` owns the *current* :class:`~repro.api.engine.
RewriteEngine` of a serving process and the discipline for replacing it.
Readers grab an immutable ``(engine, version)`` pair with :meth:`current`
and serve an entire request/batch against that one engine; writers build a
fully refreshed replacement **off to the side** -- on a :meth:`~repro.api.
engine.RewriteEngine.copy`, or loaded from a snapshot -- and publish it
with a single reference assignment.  Traffic therefore never blocks on a
refit and never observes partial refresh state: every response is
consistent with exactly one engine version, pre- or post-swap.

This is the in-process half of the offline-fit / online-serve split the
paper deploys (Section 9.3) and the transactional/analytical isolation
argument of Polynesia (PAPERS.md): the analytical work (the SimRank
fixpoint) runs on its own copy of the data, and the serving side only ever
sees published, complete results.

The holder is thread-safe: reads are lock-free (a single attribute load),
and the mutating operations (:meth:`swap`, :meth:`refresh`, :meth:`reload`)
serialize on an internal lock so two concurrent refreshes cannot both
capture the same base engine and silently drop one delta.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.api.engine import RewriteEngine
from repro.graph.delta import ClickGraphDelta

__all__ = ["EngineHolder"]

PathLike = Union[str, Path]


class EngineHolder:
    """Atomic publication point for the engine a serving process reads.

    ``holder.current()`` is the serving-side API: it returns the engine and
    its monotonically increasing version number as one immutable tuple, so
    a reader can attribute every result it produces to a single engine
    state even while swaps happen concurrently.

    ``refresh(delta)`` is the writer-side API: it copies the current
    engine (:meth:`RewriteEngine.copy` -- graph, scores and cache all
    duplicated), applies :meth:`RewriteEngine.refresh` to the *copy* and
    publishes it.  The engine readers hold is never mutated; a failed
    refresh publishes nothing.  ``reload(path)`` swaps in an engine revived
    from a snapshot directory, the cross-process variant of the same move.

    Every *attempted* publish leaves a trace: failures increment
    :attr:`publish_failures` / :attr:`consecutive_failures` and record
    :attr:`last_error` + :attr:`last_failure_at`; successes reset the
    consecutive count and stamp :attr:`published_at`, from which
    :attr:`staleness_seconds` measures how old the served engine is.  The
    circuit breaker and ``/stats`` read this ledger instead of guessing.
    """

    def __init__(self, engine: RewriteEngine, version: int = 1) -> None:
        #: The one mutable cell: readers load it without locking, writers
        #: replace it wholesale.  Packing (engine, version) into a single
        #: tuple makes the pair itself atomic -- a reader can never see a
        #: new engine with a stale version or vice versa.
        self._current: Tuple[RewriteEngine, int] = (engine, version)
        self._mutate = threading.Lock()
        #: Swap listeners (version, engine) -> None, called after publish.
        self._listeners: List[Callable[[int, RewriteEngine], None]] = []
        #: Publish-outcome ledger.  Guarded by its own lock, not ``_mutate``:
        #: a *failed* reload records its outcome without ever taking the swap
        #: lock, and readers (/stats, the circuit breaker) must not block
        #: behind an in-flight refit.  The swap counters live here too, for
        #: the same reason: /stats reads them.
        self._outcome = threading.Lock()
        #: guarded-by: _outcome
        self._swaps = 0
        #: guarded-by: _outcome
        self._last_swap_seconds: Optional[float] = None
        #: guarded-by: _outcome
        self._publish_failures = 0
        #: guarded-by: _outcome
        self._consecutive_failures = 0
        #: guarded-by: _outcome
        self._last_error: Optional[str] = None
        #: guarded-by: _outcome
        self._last_failure_at: Optional[float] = None
        #: guarded-by: _outcome
        self._published_at: float = time.time()

    # ---------------------------------------------------------------- reading

    @property
    def engine(self) -> RewriteEngine:
        """The currently published engine (lock-free read)."""
        return self._current[0]

    @property
    def version(self) -> int:
        """Version number of the currently published engine."""
        return self._current[1]

    def current(self) -> Tuple[RewriteEngine, int]:
        """The published ``(engine, version)`` pair, read atomically.

        Serve a whole request against one ``current()``
        result: re-reading mid-request could cross a swap and mix two
        engine versions in one response.
        """
        return self._current

    # --------------------------------------------------------------- swapping

    def swap(self, engine: RewriteEngine) -> int:
        """Publish ``engine`` as the new current engine; returns its version.

        The replacement must be fully built before calling -- the whole
        point of the copy-on-write discipline is that a swap is one
        reference assignment, never an in-place mutation readers could
        observe halfway through.
        """
        with self._mutate:
            return self._publish(engine)

    def refresh(self, delta: ClickGraphDelta) -> int:
        """Refresh a *copy* of the current engine over ``delta`` and publish it.

        Returns the new version.  Concurrent ``refresh`` calls serialize:
        each captures the engine published by the previous one, so no delta
        is lost.  Readers keep serving the old engine for the entire
        duration of the copy + warm refit and switch only at the final
        atomic publish.  If the refit raises, nothing is published and the
        error propagates.
        """
        with self._mutate:
            started = time.perf_counter()
            try:
                candidate = self._current[0].copy()
                candidate.refresh(delta)
                version = self._publish(candidate)
            except Exception as exc:
                self._record_failure(exc)
                raise
            with self._outcome:
                self._last_swap_seconds = time.perf_counter() - started
            return version

    def reload(self, path: PathLike, precompute: bool = False) -> int:
        """Publish an engine revived from disk; returns its version.

        ``path`` may be a snapshot *directory* or a SQLite serving-store
        *file* (:meth:`~repro.api.engine.RewriteEngine.export_store`) --
        files open store-backed.  The engine is loaded (and optionally
        pre-warmed over its recorded query universe) entirely before the
        swap, so serving never reads a half-loaded engine.  The load
        itself runs outside the swap lock -- it touches no shared state --
        keeping concurrent ``refresh`` calls unblocked until the publish.
        """
        started = time.perf_counter()
        try:
            candidate = (
                RewriteEngine.from_store(path)
                if Path(path).is_file()
                else RewriteEngine.load(path)
            )
            if precompute:
                candidate.precompute()
        except Exception as exc:
            self._record_failure(exc)
            raise
        with self._mutate:
            version = self._publish(candidate)
            with self._outcome:
                self._last_swap_seconds = time.perf_counter() - started
            return version

    def _publish(self, engine: RewriteEngine) -> int:
        """Single point of publication (caller holds the mutate lock)."""
        version = self._current[1] + 1
        self._current = (engine, version)
        with self._outcome:
            self._swaps += 1
            self._consecutive_failures = 0
            self._published_at = time.time()
        for listener in self._listeners:
            listener(version, engine)
        return version

    def _record_failure(self, exc: BaseException) -> None:
        """Ledger entry for a publish attempt that raised instead of swapping."""
        with self._outcome:
            self._publish_failures += 1
            self._consecutive_failures += 1
            self._last_error = f"{type(exc).__name__}: {exc}"
            self._last_failure_at = time.time()

    # ------------------------------------------------------------------ hooks

    def add_swap_listener(
        self, listener: Callable[[int, RewriteEngine], None]
    ) -> None:
        """Register ``listener(version, engine)`` to run after each publish.

        Called synchronously under the swap lock, in registration order --
        keep listeners cheap (version bookkeeping, metrics).  The serving
        benchmark uses this to record every published engine so responses
        can later be verified against the exact version that served them.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------ stats

    @property
    def swaps(self) -> int:
        """How many engines have been published after the initial one."""
        with self._outcome:
            return self._swaps

    @property
    def last_swap_seconds(self) -> Optional[float]:
        """Wall-clock duration of the most recent refresh/reload, if any."""
        with self._outcome:
            return self._last_swap_seconds

    @property
    def publish_failures(self) -> int:
        """Total publish attempts (refresh/reload) that raised."""
        with self._outcome:
            return self._publish_failures

    @property
    def consecutive_failures(self) -> int:
        """Failed publish attempts since the last successful publish."""
        with self._outcome:
            return self._consecutive_failures

    @property
    def last_error(self) -> Optional[str]:
        """``"ExcType: message"`` of the most recent publish failure, if any.

        Deliberately *not* cleared by a later success: /stats keeps showing
        what last went wrong, and ``consecutive_failures == 0`` already says
        the holder has recovered since.
        """
        with self._outcome:
            return self._last_error

    @property
    def last_failure_at(self) -> Optional[float]:
        """``time.time()`` of the most recent publish failure, if any."""
        with self._outcome:
            return self._last_failure_at

    @property
    def published_at(self) -> float:
        """``time.time()`` when the current engine was published."""
        with self._outcome:
            return self._published_at

    @property
    def staleness_seconds(self) -> float:
        """Age of the served engine: seconds since the last successful publish."""
        with self._outcome:
            return max(0.0, time.time() - self._published_at)

    def __repr__(self) -> str:
        engine, version = self._current
        return f"EngineHolder(version={version}, swaps={self.swaps}, engine={engine!r})"
