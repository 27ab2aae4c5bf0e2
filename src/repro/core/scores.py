"""Container for pairwise similarity scores.

All similarity methods in :mod:`repro.core` return a :class:`SimilarityScores`
object: a symmetric sparse map from node pairs to scores with convenient
ranking helpers.  Scores of a node with itself are implicitly 1 and never
stored; missing pairs score 0.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterator, List, Tuple

__all__ = ["SimilarityScores"]

Node = Hashable


class SimilarityScores:
    """Symmetric sparse node-pair similarity scores."""

    def __init__(self, scores: Dict[Tuple[Node, Node], float] = None) -> None:
        self._by_node: Dict[Node, Dict[Node, float]] = {}
        if scores:
            for (first, second), value in scores.items():
                self.set(first, second, value)

    # --------------------------------------------------------------- mutation

    def set(self, first: Node, second: Node, value: float) -> None:
        """Set the similarity of an unordered pair (ignored for identical nodes)."""
        if first == second:
            return
        self._by_node.setdefault(first, {})[second] = value
        self._by_node.setdefault(second, {})[first] = value

    def discard(self, first: Node, second: Node) -> None:
        """Remove a stored pair if present."""
        if first in self._by_node:
            self._by_node[first].pop(second, None)
        if second in self._by_node:
            self._by_node[second].pop(first, None)

    # ----------------------------------------------------------------- access

    def score(self, first: Node, second: Node) -> float:
        """Similarity of the pair; 1 for identical nodes, 0 when unknown."""
        if first == second:
            return 1.0
        return self._by_node.get(first, {}).get(second, 0.0)

    def neighbors(self, node: Node) -> Dict[Node, float]:
        """All stored similarities involving ``node``."""
        return dict(self._by_node.get(node, {}))

    def top(self, node: Node, k: int = 5, minimum: float = 0.0) -> List[Tuple[Node, float]]:
        """The ``k`` most similar nodes to ``node`` with score above ``minimum``.

        Ties are broken deterministically by the textual representation of
        the node identifier so experiments are reproducible.  Selection is a
        bounded heap (``O(n log k)``), not a full ``O(n log n)`` sort of the
        row -- rows are long, ``k`` is the rewrite depth.
        """
        candidates = (
            (other, value)
            for other, value in self._by_node.get(node, {}).items()
            if value > minimum
        )
        # nsmallest under the (-score, repr) key is exactly the old full
        # sort's order: descending score, ascending repr on ties.
        return heapq.nsmallest(k, candidates, key=lambda pair: (-pair[1], repr(pair[0])))

    def pairs(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate each stored unordered pair exactly once.

        Every pair is stored under both endpoints, so yielding a row entry
        only when the row's node was inserted before the neighbour visits
        each unordered pair exactly once -- without the ``repr()`` strings
        and the per-call ``emitted`` set this used to allocate.
        """
        position = {node: order for order, node in enumerate(self._by_node)}
        for first, row in self._by_node.items():
            first_position = position[first]
            for second, value in row.items():
                if first_position < position[second]:
                    yield first, second, value

    def nodes(self) -> Iterator[Node]:
        """Nodes that appear in at least one stored pair."""
        return iter(self._by_node)

    def nonzero_count(self) -> int:
        """Number of stored pairs with a non-zero score."""
        return sum(1 for _, _, value in self.pairs() if value != 0.0)

    # ------------------------------------------------------------- conversion

    def to_array(self) -> "ArraySimilarityScores":
        """The same scores as an array-backed store (one dense block).

        This is how dict-backed results enter the engine-snapshot format
        (:mod:`repro.api.snapshot`): the block spans every node, sorted by
        ``repr``, and carries the exact float values in both directions, so
        serving reads off the converted store are identical to reads off
        this one.  Dict stores come from the reference engines, whose
        graphs are small enough for one dense block.
        """
        import numpy as np

        from repro.core.scores_array import ArraySimilarityScores

        index = sorted(self._by_node, key=repr)
        position = {node: i for i, node in enumerate(index)}
        matrix = np.zeros((len(index), len(index)))
        for first, second, value in self.pairs():
            i, j = position[first], position[second]
            matrix[i, j] = matrix[j, i] = value
        return ArraySimilarityScores([(matrix, index)])

    @classmethod
    def from_array(cls, scores: "ArraySimilarityScores") -> "SimilarityScores":
        """Dict-backed copy of an array-backed store (snapshot loading).

        Pairs explicitly stored as zero do not survive the round trip (a
        zero array entry means "not stored"); every reader treats missing
        and zero pairs identically, so no observable score changes.
        """
        clone = cls()
        for first, second, value in scores.pairs():
            clone.set(first, second, value)
        return clone

    # ------------------------------------------------------------------ misc

    def max_difference(self, other: "SimilarityScores") -> float:
        """Largest absolute per-pair difference against another score set."""
        keys = {(a, b) for a, b, _ in self.pairs()} | {(a, b) for a, b, _ in other.pairs()}
        if not keys:
            return 0.0
        return max(abs(self.score(a, b) - other.score(a, b)) for a, b in keys)

    def copy(self) -> "SimilarityScores":
        clone = SimilarityScores()
        for first, second, value in self.pairs():
            clone.set(first, second, value)
        return clone

    def scaled_by(self, factors: Dict[Tuple[Node, Node], float]) -> "SimilarityScores":
        """New score set with each stored pair multiplied by a per-pair factor.

        Pairs absent from ``factors`` keep their score (factor 1).
        """
        scaled = SimilarityScores()
        for first, second, value in self.pairs():
            factor = factors.get((first, second), factors.get((second, first), 1.0))
            scaled.set(first, second, value * factor)
        return scaled

    def __len__(self) -> int:
        return sum(1 for _ in self.pairs())

    def __repr__(self) -> str:
        return f"SimilarityScores(pairs={len(self)})"
