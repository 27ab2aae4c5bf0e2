"""Ablation: the desirability experiment with and without direct-evidence removal.

At laptop scale the edge removal of the paper's Figure 12 protocol destroys
most of the signal that distinguishes the candidates.
This ablation keeps the same sampled cases and compares the removal protocol
against a no-removal variant, quantifying how much of the task the direct
evidence carries: all methods recover a large part of the ordering when the
direct edges stay, and drop to near-chance once they are removed on a graph
this small.
"""

import random

from repro.core.config import SimrankConfig
from repro.api.registry import create
from repro.eval.desirability import run_desirability_experiment, select_desirability_cases
from repro.eval.reporting import format_table


def test_ablation_desirability_no_removal(benchmark, harness_result):
    graph = harness_result.dataset
    config = SimrankConfig(iterations=7, zero_evidence_floor=0.1)
    cases = select_desirability_cases(graph, num_cases=40, rng=random.Random(7))
    factories = {
        name: (lambda name=name: create(name, config=config))
        for name in ("simrank", "evidence_simrank", "weighted_simrank")
    }

    with_removal = benchmark.pedantic(
        lambda: run_desirability_experiment(
            graph, factories, cases=cases, neighborhood_radius=6
        ),
        rounds=1,
        iterations=1,
    )
    without_removal = run_desirability_experiment(
        graph, factories, cases=cases, neighborhood_radius=6, remove_direct_evidence=False
    )
    rows = [
        {
            "method": name,
            "with removal (paper protocol) %": round(with_removal[name].percentage, 1),
            "without removal (weight signal) %": round(without_removal[name].percentage, 1),
        }
        for name in factories
    ]
    print()
    print(format_table(rows, title="Ablation: desirability prediction with vs without edge removal"))
