"""Decorator-based registry of query-similarity methods.

The evaluation harness, the CLI and the :class:`~repro.api.engine.RewriteEngine`
refer to similarity methods by name; this module maps those names to factories.
Unlike the old ``if``-chain factory (``repro.core.registry.create_method``,
now a deprecation shim over this module), the registry is open: downstream
code -- and tests -- can plug in custom methods without editing core::

    @register_method("my_method", backends=("default",))
    def build_my_method(config: SimrankConfig, backend: str) -> QuerySimilarityMethod:
        return MyMethod(config=config)

A registered factory receives the :class:`~repro.core.config.SimrankConfig`
and the chosen backend name.  Decorating a
:class:`~repro.core.similarity_base.QuerySimilarityMethod` subclass directly
is also supported; the class is instantiated with ``config=`` when its
constructor accepts it.

Two backends exist for the SimRank family.  ``sharded``, the default, fits
each connected component of the click graph with dense linear algebra and
stitches the blocks (exact, since cross-component pairs score zero; see
:mod:`repro.core.simrank_sharded`).  ``reference`` runs the node-pair
implementations that follow the paper's equations literally: slow, but the
oracle every fast path is tested against.  Methods that do not distinguish
backends register the same factory under both names so callers never have
to special-case them.

The backends ``matrix``, ``sparse`` and ``auto`` of earlier releases are
retired: :data:`RETIRED_BACKENDS` maps each to ``sharded`` with a
:class:`DeprecationWarning`, so stored configs and scripts that name them
keep working until the aliases are removed in version 2.0.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.baselines import CommonAdSimilarity, CosineSimilarity, JaccardSimilarity
from repro.core.config import SimrankConfig
from repro.core.evidence_simrank import EvidenceSimrank
from repro.core.pearson import PearsonSimilarity
from repro.core.simrank import BipartiteSimrank
from repro.core.simrank_sharded import ShardedSimrank
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.weighted_simrank import WeightedSimrank

__all__ = [
    "PAPER_METHODS",
    "SIMRANK_BACKENDS",
    "RETIRED_BACKENDS",
    "RegistryError",
    "UnknownMethodError",
    "UnknownBackendError",
    "DuplicateMethodError",
    "MethodSpec",
    "register_method",
    "unregister_method",
    "available_methods",
    "available_backends",
    "method_spec",
    "resolve_backend",
    "create",
]

#: A factory builds a configured method instance for one (config, backend) pair.
MethodFactory = Callable[[SimrankConfig, str], QuerySimilarityMethod]

#: The four methods compared throughout the paper's evaluation, in the order
#: the figures list them.
PAPER_METHODS = ["pearson", "simrank", "evidence_simrank", "weighted_simrank"]


class RegistryError(ValueError):
    """Base class of all registry errors (a :class:`ValueError` subclass)."""


class UnknownMethodError(RegistryError):
    """Raised when a method name has not been registered."""


class UnknownBackendError(RegistryError):
    """Raised when a method does not provide the requested backend."""


class DuplicateMethodError(RegistryError):
    """Raised when a name is registered twice without ``replace=True``."""


@dataclass(frozen=True)
class MethodSpec:
    """One registered similarity method."""

    name: str
    factory: MethodFactory
    backends: Tuple[str, ...]
    default_backend: str
    description: str = ""


_REGISTRY: Dict[str, MethodSpec] = {}


#: Backends of the SimRank family (and, for uniformity, the default set every
#: backend-agnostic method registers under, so one ``--backend`` flag can be
#: applied to a whole method lineup without special cases).  ``sharded`` is
#: first: it is the default backend of every method registered with this set.
SIMRANK_BACKENDS: Tuple[str, ...] = ("sharded", "reference")

#: Retired backend names and the backend that now runs in their place.  Each
#: use warns with a :class:`DeprecationWarning`; removed in version 2.0.
RETIRED_BACKENDS: Dict[str, str] = {
    "matrix": "sharded",
    "sparse": "sharded",
    "auto": "sharded",
}


def register_method(
    name: str,
    backends: Tuple[str, ...] = SIMRANK_BACKENDS,
    *,
    default_backend: Optional[str] = None,
    description: str = "",
    replace: bool = False,
) -> Callable:
    """Decorator registering a method factory (or method class) under ``name``.

    Parameters
    ----------
    name:
        The name :func:`create` and :class:`~repro.api.engine.RewriteEngine`
        resolve.
    backends:
        Backend names the factory understands; the factory is called with the
        chosen one as its second argument.
    default_backend:
        Backend used when the caller passes none; defaults to the first entry
        of ``backends``.
    description:
        One-line human-readable summary, surfaced by ``--list-methods``.
    replace:
        Allow overwriting an existing registration (otherwise
        :class:`DuplicateMethodError`).
    """
    if not name or not isinstance(name, str):
        raise RegistryError(f"method name must be a non-empty string, got {name!r}")
    if not backends:
        raise RegistryError(f"method {name!r} must declare at least one backend")
    chosen_default = default_backend or backends[0]
    if chosen_default not in backends:
        raise UnknownBackendError(
            f"default backend {chosen_default!r} of method {name!r} is not in {backends}"
        )

    def decorator(target):
        spec = MethodSpec(
            name=name,
            factory=_coerce_factory(name, target),
            backends=tuple(backends),
            default_backend=chosen_default,
            description=description or (inspect.getdoc(target) or "").split("\n")[0],
        )
        if name in _REGISTRY and not replace:
            raise DuplicateMethodError(
                f"method {name!r} is already registered; pass replace=True to overwrite"
            )
        _REGISTRY[name] = spec
        return target

    return decorator


def _coerce_factory(name: str, target) -> MethodFactory:
    """Turn the decorated object into a uniform ``(config, backend)`` factory."""
    if isinstance(target, type) and issubclass(target, QuerySimilarityMethod):
        parameters = inspect.signature(target).parameters
        takes_config = "config" in parameters or any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )

        def class_factory(config: SimrankConfig, backend: str) -> QuerySimilarityMethod:
            return target(config=config) if takes_config else target()

        return class_factory
    if callable(target):
        return target
    raise RegistryError(
        f"method {name!r} must be registered with a factory callable or a "
        f"QuerySimilarityMethod subclass, got {target!r}"
    )


def unregister_method(name: str) -> None:
    """Remove a registration (primarily for tests and plugin teardown)."""
    if name not in _REGISTRY:
        raise UnknownMethodError(f"cannot unregister unknown method {name!r}")
    del _REGISTRY[name]


def available_methods() -> List[str]:
    """Registered method names, in registration order."""
    return list(_REGISTRY)


def available_backends(name: str) -> Tuple[str, ...]:
    """Backend names a method accepts."""
    return method_spec(name).backends


def method_spec(name: str) -> MethodSpec:
    """The full registration record of a method."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownMethodError(
            f"unknown similarity method {name!r}; choose from {available_methods()}"
        )
    return spec


def resolve_backend(name: str, backend: Optional[str] = None) -> str:
    """The backend :func:`create` fits for ``name`` given ``backend``.

    ``None`` selects the method's default.  A retired name the method does
    not register itself (see :data:`RETIRED_BACKENDS`) is mapped to its
    replacement with a :class:`DeprecationWarning`.  Anything else the
    method does not provide raises :class:`UnknownBackendError`.
    """
    spec = method_spec(name)
    chosen = backend or spec.default_backend
    replacement = RETIRED_BACKENDS.get(chosen)
    if chosen not in spec.backends and replacement in spec.backends:
        warnings.warn(
            f"backend {chosen!r} is retired and runs as {replacement!r}; "
            "the alias will be removed in version 2.0",
            DeprecationWarning,
            stacklevel=3,
        )
        chosen = replacement
    if chosen not in spec.backends:
        raise UnknownBackendError(
            f"method {name!r} has no backend {chosen!r}; choose from {spec.backends}"
        )
    return chosen


def create(
    name: str,
    config: Optional[SimrankConfig] = None,
    backend: Optional[str] = None,
    n_jobs: Optional[int] = None,
    executor: Optional[str] = None,
) -> QuerySimilarityMethod:
    """Instantiate a registered similarity method by name.

    Parameters
    ----------
    name:
        One of :func:`available_methods`.
    config:
        SimRank configuration shared by the SimRank variants (decay factors,
        iterations, weight source, evidence kind); defaults apply when omitted.
    backend:
        One of :func:`available_backends` for the method (or a retired name,
        see :func:`resolve_backend`); the method's default backend when
        omitted.
    n_jobs:
        Worker count for parallel shard fits (positive, or ``-1`` for all
        available CPUs).  Forwarded only to factories whose signature
        declares it, so pre-existing ``(config, backend)`` factories keep
        working unchanged; other methods ignore it.
    executor:
        Pool flavour (``"thread"``/``"process"``/``"auto"``) for parallel
        shard fits; forwarded like ``n_jobs``.
    """
    spec = method_spec(name)
    chosen = resolve_backend(name, backend)
    extras = {}
    if n_jobs is not None or executor is not None:
        parameters = inspect.signature(spec.factory).parameters
        accepts_kwargs = any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )
        if n_jobs is not None and ("n_jobs" in parameters or accepts_kwargs):
            extras["n_jobs"] = n_jobs
        if executor is not None and ("executor" in parameters or accepts_kwargs):
            extras["executor"] = executor
    return spec.factory(config or SimrankConfig(), chosen, **extras)


# --------------------------------------------------------------------------
# Built-in methods, registered in the order the paper's figures list them.
# --------------------------------------------------------------------------


@register_method("pearson", description="Pearson correlation baseline (Section 9.1)")
def _build_pearson(config: SimrankConfig, backend: str) -> QuerySimilarityMethod:
    return PearsonSimilarity(source=config.weight_source)


def _build_simrank_family(
    mode: str, reference_cls, config: SimrankConfig, backend: str,
    n_jobs: int, executor: str,
) -> QuerySimilarityMethod:
    """One dispatch for the three SimRank modes (they share both backends)."""
    if backend == "reference":
        return reference_cls(config=config)
    return ShardedSimrank(config=config, mode=mode, n_jobs=n_jobs, executor=executor)


@register_method("simrank", description="Plain bipartite SimRank (Section 4)")
def _build_simrank(
    config: SimrankConfig, backend: str, n_jobs: int = 1, executor: str = "auto"
) -> QuerySimilarityMethod:
    return _build_simrank_family(
        "simrank", BipartiteSimrank, config, backend, n_jobs, executor
    )


@register_method("evidence_simrank", description="Evidence-based SimRank (Section 7)")
def _build_evidence_simrank(
    config: SimrankConfig, backend: str, n_jobs: int = 1, executor: str = "auto"
) -> QuerySimilarityMethod:
    return _build_simrank_family(
        "evidence", EvidenceSimrank, config, backend, n_jobs, executor
    )


@register_method("weighted_simrank", description="Weighted SimRank / Simrank++ (Section 8)")
def _build_weighted_simrank(
    config: SimrankConfig, backend: str, n_jobs: int = 1, executor: str = "auto"
) -> QuerySimilarityMethod:
    return _build_simrank_family(
        "weighted", WeightedSimrank, config, backend, n_jobs, executor
    )


@register_method("common_ads", description="Naive common-ad counting (Table 1)")
def _build_common_ads(config: SimrankConfig, backend: str) -> QuerySimilarityMethod:
    return CommonAdSimilarity()


@register_method("jaccard", description="Jaccard overlap of clicked-ad sets")
def _build_jaccard(config: SimrankConfig, backend: str) -> QuerySimilarityMethod:
    return JaccardSimilarity()


@register_method("cosine", description="Cosine similarity of weighted ad vectors")
def _build_cosine(config: SimrankConfig, backend: str) -> QuerySimilarityMethod:
    return CosineSimilarity(source=config.weight_source)
