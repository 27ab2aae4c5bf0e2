"""Shared fixtures of the cross-backend equivalence harness.

The harness runs every SimRank backend (naive node-pair ``reference`` and
component-sharded ``sharded``) over the same scenario graphs and asserts
score agreement.  Scenarios come from
:func:`repro.synth.scenarios.equivalence_scenarios`, so adding a scenario
there automatically extends this safety net; backends come from
:data:`repro.api.registry.SIMRANK_BACKENDS`, so a future backend only has to
register itself to be covered.
"""

from __future__ import annotations

import pytest

from backend_matrix import CONFIGS, SCENARIOS


@pytest.fixture(params=sorted(SCENARIOS), ids=str)
def scenario_graph(request):
    """One scenario click graph per parametrized id."""
    return SCENARIOS[request.param]()


@pytest.fixture(params=sorted(CONFIGS), ids=str)
def simrank_config(request):
    """One SimRank configuration per parametrized id."""
    return CONFIGS[request.param]
