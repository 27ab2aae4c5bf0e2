"""The fixture matrix of the cross-backend equivalence harness.

One place defines what "equivalent" means: which scenario graphs, which
SimRank configurations, which evidence modes and how much per-pair score
disagreement is tolerated.  ``conftest.py`` turns the scenario and
configuration tables into parametrized fixtures; the tests import the rest.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.api.config import EngineConfig
from repro.api.registry import RETIRED_BACKENDS, SIMRANK_BACKENDS
from repro.core.config import SimrankConfig
from repro.synth.scenarios import equivalence_scenarios

#: Named scenario click-graph builders (see repro.synth.scenarios).
SCENARIOS = equivalence_scenarios()

#: Configurations the backends must agree under: the paper's defaults and the
#: evaluation harness's zero-evidence-floor variant.
CONFIGS = {
    "paper": SimrankConfig(c1=0.8, c2=0.8, iterations=7),
    "floored": SimrankConfig(c1=0.8, c2=0.8, iterations=5, zero_evidence_floor=0.1),
}

#: The three evidence modes, by registered method name.
MODES = ["simrank", "evidence_simrank", "weighted_simrank"]

#: The dense kernel's mode name for each registered method.
KERNEL_MODES = {
    "simrank": "simrank",
    "evidence_simrank": "evidence",
    "weighted_simrank": "weighted",
}

#: Maximum per-pair score disagreement tolerated between any two backends.
TOLERANCE = 1e-6

#: Every backend name an engine config may carry: the registered backends and
#: the retired names, which resolve to ``sharded`` and must keep serving
#: exactly what it serves through every source until they are removed.
BACKEND_NAMES = [*SIMRANK_BACKENDS, *sorted(RETIRED_BACKENDS)]


def expect_retired_warning(backend: str):
    """``pytest.warns`` for a retired backend name, a no-op context otherwise."""
    if backend in RETIRED_BACKENDS:
        return pytest.warns(DeprecationWarning, match="retired")
    return contextlib.nullcontext()


def engine_config(backend: str, **options) -> EngineConfig:
    """An :class:`EngineConfig` for ``backend``, asserting a retired name warns."""
    with expect_retired_warning(backend):
        return EngineConfig(backend=backend, **options)
