"""Warm-start seeds: previous similarity scores as Jacobi starting points.

The SimRank family computes its fixpoint by Jacobi iteration, and the map is
a contraction (decay factors below 1), so the iteration converges from *any*
starting point -- the identity start merely needs the most iterations.  When
a fit follows a small perturbation of an already-fitted graph (the
incremental-refresh path of :meth:`repro.api.engine.RewriteEngine.refresh`),
the previous scores are an excellent starting point: with tolerance-based
early exit enabled (``SimrankConfig.tolerance``), a warm-started fit
converges in a handful of iterations instead of re-propagating similarity
from scratch.

These helpers turn a previous score store -- array-backed
(:class:`~repro.core.scores_array.ArraySimilarityScores`) or dict-backed
(:class:`~repro.core.scores.SimilarityScores`), e.g. one revived from an
engine snapshot -- into the backend's native seed structure over the *new*
fit's node index.  Nodes absent from the previous scores start at the
identity (new queries know nothing yet); previous nodes absent from the new
index are dropped.

Only the query side is ever seeded: snapshots persist nothing else, and the
ad side does not need it -- each backend derives its ad-side seed by one
application of the ad update to the seeded query scores, which lands both
sides near the fixpoint together.  (Seeding one side alone while the other
starts at the identity would be useless: the Jacobi alternation recomputes
each side from the other, so the identity side's error would wash the seed
out and convergence would take as long as a cold start.)
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence, Tuple

import numpy as np

from repro.core.scores_array import ArraySimilarityScores

__all__ = ["seed_dense", "seed_pair_scores"]

Node = Hashable
Pair = Tuple[Node, Node]


def seed_dense(initial_scores, index: Sequence[Node]) -> np.ndarray:
    """Dense similarity seed over ``index`` (unit diagonal, prior off-diagonals)."""
    if isinstance(initial_scores, ArraySimilarityScores):
        # Reads only the blocks holding a node of ``index``: a per-component
        # seed never scans the other components' scores.
        seed = initial_scores.submatrix(index)
    else:
        position = {node: i for i, node in enumerate(index)}
        seed = np.zeros((len(index), len(index)))
        for first, second, value in initial_scores.pairs():
            i = position.get(first)
            j = position.get(second)
            if i is not None and j is not None:
                seed[i, j] = seed[j, i] = value
    np.fill_diagonal(seed, 1.0)
    return seed


def seed_pair_scores(initial_scores, pairs: Sequence[Pair]) -> Dict[Pair, float]:
    """Per-pair seed dict for the reference (node-pair) engines."""
    return {
        (first, second): initial_scores.score(first, second)
        for first, second in pairs
    }
