"""Deprecated shim over the pluggable method registry.

The string-if-chain factory that used to live here was replaced by the
decorator-based registry in :mod:`repro.api.registry`; this module keeps the
old entry points importable.  New code should use
:func:`repro.api.registry.create` (or, for serving,
:class:`repro.api.engine.RewriteEngine`) and register custom methods with
:func:`repro.api.registry.register_method`.
"""

from __future__ import annotations

import warnings
from typing import Optional

from repro.api.registry import PAPER_METHODS, available_methods, create
from repro.core.config import SimrankConfig
from repro.core.similarity_base import QuerySimilarityMethod

__all__ = ["available_methods", "create_method", "PAPER_METHODS"]


def create_method(
    name: str,
    config: Optional[SimrankConfig] = None,
    backend: Optional[str] = None,
) -> QuerySimilarityMethod:
    """Instantiate a similarity method by name.

    .. deprecated:: 1.1
        Use :func:`repro.api.registry.create` or a
        :class:`repro.api.engine.RewriteEngine` instead; this shim forwards
        to the registry and will be removed in version 2.0.
    """
    warnings.warn(
        "repro.create_method is deprecated and will be removed in version "
        "2.0; use repro.api.registry.create (or RewriteEngine for serving) "
        "instead",
        DeprecationWarning,
        stacklevel=2,
    )
    return create(name, config=config, backend=backend)
