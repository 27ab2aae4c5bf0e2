"""The desirability edge-removal experiment (paper Section 9.3, Figure 12).

Generates a synthetic click graph, samples query triples (q1, q2, q3) that
share ads, removes the direct evidence between q1 and the candidates and asks
each SimRank variant which candidate the historical clicks favoured.  Also
runs the no-removal variant to show how much of the task the direct evidence
carries at this graph scale.

Run with::

    python examples/desirability_analysis.py
"""

import random

from repro import SimrankConfig
from repro.api.registry import create
from repro.eval.desirability import run_desirability_experiment, select_desirability_cases
from repro.eval.reporting import format_table
from repro.graph.components import largest_component
from repro.synth.yahoo_like import yahoo_like_workload


def main() -> None:
    workload = yahoo_like_workload("small")
    graph = largest_component(workload.click_graph)
    print(f"click graph (largest component): {graph}")

    config = SimrankConfig(iterations=7, zero_evidence_floor=0.1)
    factories = {
        name: (lambda name=name: create(name, config=config))
        for name in ("simrank", "evidence_simrank", "weighted_simrank")
    }

    rng = random.Random(42)
    cases = select_desirability_cases(graph, num_cases=50, rng=rng)
    print(f"sampled {len(cases)} valid (q1, q2, q3) cases\n")

    sample_rows = []
    for case in cases[:5]:
        sample_rows.append(
            {
                "q1": case.query,
                "q2": case.first_candidate,
                "q3": case.second_candidate,
                "des(q1,q2)": round(case.first_desirability, 4),
                "des(q1,q3)": round(case.second_desirability, 4),
                "preferred": case.preferred,
                "removed edges": len(case.removed_edges),
            }
        )
    print(format_table(sample_rows, title="A few sampled desirability cases"))

    with_removal = run_desirability_experiment(
        graph, factories, cases=cases, neighborhood_radius=6
    )
    without_removal = run_desirability_experiment(
        graph, factories, cases=cases, neighborhood_radius=6, remove_direct_evidence=False
    )

    rows = [
        {
            "method": name,
            "correct ordering, paper protocol (%)": round(with_removal[name].percentage, 1),
            "correct ordering, no removal (%)": round(without_removal[name].percentage, 1),
        }
        for name in factories
    ]
    print()
    print(format_table(rows, title="Desirability prediction accuracy"))
    print(
        "\nPaper (Figure 12, 15M-node Yahoo! graph): SimRank 54%, evidence-based 54%, weighted 92%.\n"
        "At laptop scale the removal destroys most of the weight signal, so the per-method gap\n"
        "shrinks; the no-removal column above isolates that substitution effect."
    )


if __name__ == "__main__":
    main()
