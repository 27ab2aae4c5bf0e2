"""Figure 12: desirability-prediction accuracy after removing direct evidence."""

from repro.eval.reporting import format_table
from repro.experiments.paper import figure12_desirability


def test_figure12_desirability(benchmark, harness_result):
    desirability = benchmark(lambda: figure12_desirability(harness_result))
    print()
    rows = [
        {"method": name, "correct ordering (%)": round(value, 1)}
        for name, value in desirability.items()
    ]
    print(format_table(rows, title="Figure 12: desirability prediction (edge removal, 50 queries)"))
    print("(paper: SimRank 54%, evidence-based 54%, weighted 92%; at laptop scale the removal")
    print(" destroys most of the weight signal -- bench_ablation_desirability_no_removal.py")
    print(" isolates it)")
