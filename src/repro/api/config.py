"""One validated, serializable configuration for the whole serving stack.

:class:`EngineConfig` unifies the two halves that used to be configured
separately -- the :class:`~repro.core.config.SimrankConfig` of the similarity
method and the knobs of the rewrite front-end
(:class:`~repro.core.rewriter.QueryRewriter`) -- so a serving deployment is
described by a single object that round-trips through ``to_dict`` /
``from_dict`` (and therefore through JSON config files).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.config import EvidenceKind, SimrankConfig
from repro.graph.click_graph import WeightSource

__all__ = ["ConfigError", "EngineConfig"]


class ConfigError(ValueError):
    """An invalid :class:`EngineConfig`, rejected at construction time.

    Raised when the config is *built* -- directly, via ``replace``, or while
    deserializing a snapshot manifest through :meth:`EngineConfig.from_dict`
    -- so a typo'd backend or a nonsensical ``n_jobs`` fails right where the
    mistake is, not deep inside a later ``fit()``.  Subclasses
    :class:`ValueError`, so pre-existing ``except ValueError`` handling
    keeps working.
    """


_EXECUTORS = ("thread", "process", "auto")


#: ``similarity`` sub-dictionary fields and how to decode them from plain values.
_SIMILARITY_DECODERS = {
    "c1": float,
    "c2": float,
    "iterations": int,
    "tolerance": float,
    "weight_source": WeightSource,
    "evidence": EvidenceKind,
    "zero_evidence_floor": float,
}

#: ``similarity`` keys of earlier releases, accepted and dropped on load so
#: stored manifests and store metadata keep loading (removed in 2.0).
_RETIRED_SIMILARITY_KEYS = frozenset({"prune_threshold", "prune_top_k"})


@dataclass(frozen=True)
class EngineConfig:
    """Everything a :class:`~repro.api.engine.RewriteEngine` needs to serve.

    Attributes
    ----------
    method:
        Registered similarity method name (see
        :func:`repro.api.registry.available_methods`).
    backend:
        Backend variant of the method; ``None`` selects the method's default.
        A retired name (``matrix``, ``sparse``, ``auto``) is replaced by its
        successor with a :class:`DeprecationWarning`; see
        :data:`repro.api.registry.RETIRED_BACKENDS`.
    similarity:
        Parameters of the similarity computation (decay factors, iterations,
        weight source, evidence kind).
    max_rewrites:
        Maximum rewrites kept per query (the paper uses 5).
    candidate_pool:
        Raw candidates considered before filtering (the paper records 100).
    min_score:
        Candidates scoring at or below this value are never proposed.
    deduplicate:
        Apply stemming-based duplicate removal to the rewrite list.
    bid_filtering:
        Drop rewrites outside the bid-term set when the engine is given one;
        disabling serves unfiltered rewrites even when bid terms are known.
    cache_size:
        Maximum number of rewrite lists the serving cache retains, with
        least-recently-used eviction beyond it.  ``None`` (the default)
        keeps every entry -- the paper's full-precompute deployment mode.
        Eviction never changes served results, only the recompute cost of
        re-seeing an evicted query; see ``CacheInfo.evictions``.
    n_jobs:
        Worker count for parallel shard fits (sharded backend): a
        positive integer, or ``-1`` for one worker per *available* CPU
        (affinity-aware; see :func:`repro.core.parallel.available_cpu_count`).
    executor:
        Pool flavour for parallel shard fits: ``"thread"``, ``"process"``
        (true multi-core), or ``"auto"`` (the default) to pick processes
        only when the estimated work amortises the fork/pickle overhead.
    """

    method: str = "weighted_simrank"
    backend: Optional[str] = None
    similarity: SimrankConfig = field(default_factory=SimrankConfig)
    max_rewrites: int = 5
    candidate_pool: int = 100
    min_score: float = 0.0
    deduplicate: bool = True
    bid_filtering: bool = True
    cache_size: Optional[int] = None
    n_jobs: int = 1
    executor: str = "auto"

    def __post_init__(self) -> None:
        if not self.method or not isinstance(self.method, str):
            raise ConfigError(f"method must be a non-empty string, got {self.method!r}")
        self._validate_backend()
        if self.max_rewrites < 1:
            raise ConfigError(f"max_rewrites must be at least 1, got {self.max_rewrites}")
        if self.candidate_pool < self.max_rewrites:
            raise ConfigError(
                f"candidate_pool ({self.candidate_pool}) must be at least "
                f"max_rewrites ({self.max_rewrites})"
            )
        if self.min_score < 0:
            raise ConfigError(f"min_score must be >= 0, got {self.min_score}")
        if self.cache_size is not None and self.cache_size < 1:
            raise ConfigError(
                "cache_size must be a positive integer or None (unbounded), "
                f"got {self.cache_size}"
            )
        if self.n_jobs == 0 or self.n_jobs < -1:
            raise ConfigError(
                f"n_jobs must be a positive integer or -1 (all CPUs), got {self.n_jobs}"
            )
        if self.executor not in _EXECUTORS:
            raise ConfigError(
                f"executor must be one of {_EXECUTORS}, got {self.executor!r}"
            )

    def _validate_backend(self) -> None:
        """Reject a backend the configured method does not provide.

        Checked against the live registry so the typo fails at construction
        (including :meth:`from_dict` on a snapshot manifest) rather than
        when the engine is eventually built; a retired name is rewritten to
        its successor here, so the config serializes the backend it runs.
        Methods not registered *yet* (plugin methods configured before
        registration) are left for :func:`repro.api.registry.create` to
        resolve later.
        """
        if self.backend is None:
            return
        from repro.api import registry

        try:
            backend = registry.resolve_backend(self.method, self.backend)
        except registry.UnknownMethodError:
            return
        except registry.UnknownBackendError as error:
            raise ConfigError(str(error)) from error
        object.__setattr__(self, "backend", backend)

    # ------------------------------------------------------------- derivation

    def replace(self, **changes: Any) -> "EngineConfig":
        """Copy of the configuration with some fields changed."""
        return dataclasses.replace(self, **changes)

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """Plain-value dictionary representation (JSON-serializable)."""
        return {
            "method": self.method,
            "backend": self.backend,
            "similarity": {
                "c1": self.similarity.c1,
                "c2": self.similarity.c2,
                "iterations": self.similarity.iterations,
                "tolerance": self.similarity.tolerance,
                "weight_source": self.similarity.weight_source.value,
                "evidence": self.similarity.evidence.value,
                "zero_evidence_floor": self.similarity.zero_evidence_floor,
            },
            "max_rewrites": self.max_rewrites,
            "candidate_pool": self.candidate_pool,
            "min_score": self.min_score,
            "deduplicate": self.deduplicate,
            "bid_filtering": self.bid_filtering,
            "cache_size": self.cache_size,
            "n_jobs": self.n_jobs,
            "executor": self.executor,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EngineConfig":
        """Rebuild a validated configuration from :meth:`to_dict` output.

        Unknown keys raise :class:`ValueError` so typos in config files fail
        loudly instead of silently falling back to defaults.  The similarity
        keys of earlier releases are dropped, so their stored configs load.
        """
        data = dict(payload)
        similarity_payload = dict(data.pop("similarity", {}))
        for key in _RETIRED_SIMILARITY_KEYS:
            similarity_payload.pop(key, None)
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown EngineConfig keys: {sorted(unknown)}")
        unknown_similarity = set(similarity_payload) - set(_SIMILARITY_DECODERS)
        if unknown_similarity:
            raise ConfigError(
                f"unknown EngineConfig similarity keys: {sorted(unknown_similarity)}"
            )
        similarity_kwargs = {
            key: _SIMILARITY_DECODERS[key](value)
            for key, value in similarity_payload.items()
        }
        return cls(similarity=SimrankConfig(**similarity_kwargs), **data)
