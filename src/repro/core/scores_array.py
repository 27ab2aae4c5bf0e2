"""Array-backed similarity score store.

:class:`~repro.core.scores.SimilarityScores` keeps one Python dict entry per
*direction* of every stored pair, so materializing the result of a matrix
fixpoint costs two dict insertions (plus boxing) per pair -- on realistic
click graphs that eager copy dominates fit time well before the linear
algebra does.  :class:`ArraySimilarityScores` implements the same read
interface (``score``, ``top``, ``neighbors``, ``pairs``, ``max_difference``,
``nodes``, ``nonzero_count``, ``copy``, ``len``) directly over the fixpoint
matrices: SimRank scores across connected components are provably zero, so
the store holds one dense symmetric *block* per component (zero diagonal)
plus a map from each node to its ``(block, row)``.  ``top()`` is a
vectorized ``numpy`` partition over one block row.

Self-similarities are implicit 1 (never stored), missing pairs score 0 --
exactly like the dict-backed container.  A zero entry means "not stored".
The store is read-only: similarity engines build it once from their
fixpoint matrix and serving code only reads.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ArraySimilarityScores"]

Node = Hashable
Block = Tuple[np.ndarray, List[Node]]


class ArraySimilarityScores:
    """Symmetric node-pair similarity scores backed by dense per-component blocks.

    ``blocks`` holds ``(matrix, nodes)`` pairs: each matrix is a dense
    symmetric ``len(nodes) x len(nodes)`` array with a zero diagonal, and
    pairs across blocks score 0.  :meth:`from_dense` enforces symmetry and
    the zero diagonal.  Matrices are adopted, not copied, and never mutated.
    """

    def __init__(self, blocks: Iterable[Tuple[np.ndarray, Sequence[Node]]]) -> None:
        self._blocks: List[Block] = []
        # Node -> position in the concatenated index; that position's block
        # and the block's first position give the row.  Plain ints keep
        # building the map (on every snapshot load) cheap.
        self._block_of: List[int] = []
        self._starts: List[int] = []
        self._pairs: Optional[int] = None
        for block_id, (matrix, nodes) in enumerate(blocks):
            matrix = np.asarray(matrix, dtype=float)
            nodes = list(nodes)
            if matrix.shape != (len(nodes), len(nodes)):
                raise ValueError(
                    f"block {block_id} has shape {matrix.shape}, which does not "
                    f"match its index of {len(nodes)} nodes"
                )
            self._blocks.append((matrix, nodes))
            self._starts.append(len(self._block_of))
            self._block_of.extend(repeat(block_id, len(nodes)))
        self._pos: Dict[Node, int] = dict(zip(self.index, range(len(self._block_of))))
        if len(self._pos) != len(self._block_of):
            raise ValueError("a node appears in more than one block")

    # ----------------------------------------------------------- construction

    @classmethod
    def from_dense(
        cls, matrix: np.ndarray, index: Sequence[Node], min_score: float = 0.0
    ) -> "ArraySimilarityScores":
        """One-block store built from a dense symmetric similarity matrix.

        Only entries strictly above ``min_score`` are kept; the diagonal is
        discarded (self-scores are implicit 1).  The upper triangle is
        mirrored so both directions carry bit-identical values even when the
        input is only symmetric up to floating-point error.
        """
        upper = np.triu(np.asarray(matrix, dtype=float), k=1)
        upper[upper <= min_score] = 0.0
        return cls([(upper + upper.T, index)])

    @classmethod
    def stitched(cls, stores: Iterable["ArraySimilarityScores"]) -> "ArraySimilarityScores":
        """One store over the union of node-disjoint stores.

        This is how the sharded backend combines per-component results:
        the block lists are concatenated, which is exactly the
        cross-component-zero invariant, and no score is copied at all.
        """
        return cls(block for store in stores for block in store._blocks)

    # ----------------------------------------------------------------- access

    @property
    def blocks(self) -> List[Block]:
        """The ``(matrix, nodes)`` blocks, in order; read-only, like the store."""
        return list(self._blocks)

    @property
    def index(self) -> List[Node]:
        """Every node of the store: the blocks' nodes, concatenated in order."""
        return [node for _, nodes in self._blocks for node in nodes]

    def _locate(self, node: Node) -> Optional[Tuple[int, int]]:
        """``(block, row)`` of a node, or None when unknown."""
        at = self._pos.get(node)
        if at is None:
            return None
        block = self._block_of[at]
        return block, at - self._starts[block]

    def score(self, first: Node, second: Node) -> float:
        """Similarity of the pair; 1 for identical nodes, 0 when unknown."""
        if first == second:
            return 1.0
        at_first = self._locate(first)
        at_second = self._locate(second)
        if at_first is None or at_second is None or at_first[0] != at_second[0]:
            return 0.0
        return float(self._blocks[at_first[0]][0][at_first[1], at_second[1]])

    def neighbors(self, node: Node) -> Dict[Node, float]:
        """All stored similarities involving ``node``."""
        at = self._locate(node)
        if at is None:
            return {}
        matrix, nodes = self._blocks[at[0]]
        row = matrix[at[1]]
        columns = np.flatnonzero(row)
        return {
            nodes[column]: value
            for column, value in zip(columns.tolist(), row[columns].tolist())
        }

    def top(self, node: Node, k: int = 5, minimum: float = 0.0) -> List[Tuple[Node, float]]:
        """The ``k`` most similar nodes to ``node`` with score above ``minimum``.

        Selection is a vectorized ``numpy`` partition over the node's block
        row; only the (at most ``k`` plus boundary ties) surviving candidates
        are boxed into Python objects and sorted with the same deterministic
        ``(-score, repr)`` tie-break as the dict-backed store.
        """
        at = self._locate(node)
        if at is None or k <= 0:
            return []
        matrix, nodes = self._blocks[at[0]]
        row = matrix[at[1]]
        # Zero entries are not stored, so they never qualify.
        columns = np.flatnonzero(row > max(minimum, 0.0))
        if columns.size == 0:
            return []
        values = row[columns]
        if k < values.size:
            # Keep everything at or above the k-th largest value: boundary
            # ties survive the cut so the repr tie-break below stays exact.
            kth = np.partition(values, values.size - k)[values.size - k]
            chosen = values >= kth
            columns, values = columns[chosen], values[chosen]
        candidates = [
            (nodes[column], value)
            for column, value in zip(columns.tolist(), values.tolist())
        ]
        candidates.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        return candidates[:k]

    def pairs(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate each stored unordered pair exactly once.

        Blocks in order, each row-major over its strict upper triangle.
        """
        for matrix, nodes in self._blocks:
            for i in range(len(nodes) - 1):
                tail = matrix[i, i + 1:]
                columns = np.flatnonzero(tail)
                for column, value in zip(columns.tolist(), tail[columns].tolist()):
                    yield nodes[i], nodes[i + 1 + column], value

    def nodes(self) -> Iterator[Node]:
        """Nodes that appear in at least one stored pair."""
        for matrix, nodes in self._blocks:
            for row in np.flatnonzero(matrix.any(axis=1)).tolist():
                yield nodes[row]

    def nonzero_count(self) -> int:
        """Number of stored pairs with a non-zero score (all of them)."""
        return len(self)

    def submatrix(self, index: Sequence[Node]) -> np.ndarray:
        """Dense scores among ``index`` (zero diagonal).

        Nodes this store does not know, and pairs that span two blocks,
        score 0.  Only the blocks holding a node of ``index`` are read, so
        a warm-start seed for one component never scans the others.
        """
        result = np.zeros((len(index), len(index)))
        grouped: Dict[int, Tuple[List[int], List[int]]] = {}
        for target, node in enumerate(index):
            at = self._locate(node)
            if at is not None:
                rows, targets = grouped.setdefault(at[0], ([], []))
                rows.append(at[1])
                targets.append(target)
        for block_id, (rows, targets) in grouped.items():
            result[np.ix_(targets, targets)] = self._blocks[block_id][0][np.ix_(rows, rows)]
        return result

    # ------------------------------------------------------------------ misc

    def max_difference(self, other) -> float:
        """Largest absolute per-pair difference against another score set.

        Works against any score container exposing ``pairs()`` and
        ``score()`` (the dict-backed :class:`~repro.core.scores
        .SimilarityScores` included); two array stores with the same blocks
        and block indexes are compared directly on their matrices.
        """
        if isinstance(other, ArraySimilarityScores) and [
            nodes for _, nodes in self._blocks
        ] == [nodes for _, nodes in other._blocks]:
            return max(
                (
                    float(np.abs(mine - theirs).max())
                    for (mine, _), (theirs, _) in zip(self._blocks, other._blocks)
                    if mine.size
                ),
                default=0.0,
            )
        keys = {(a, b) for a, b, _ in self.pairs()} | {(a, b) for a, b, _ in other.pairs()}
        if not keys:
            return 0.0
        return max(abs(self.score(a, b) - other.score(a, b)) for a, b in keys)

    def copy(self) -> "ArraySimilarityScores":
        return ArraySimilarityScores((matrix.copy(), nodes) for matrix, nodes in self._blocks)

    def __len__(self) -> int:
        # Zero entries are "not stored"; counted on first use, since serving
        # never needs the count and loading should not pay for it.
        if self._pairs is None:
            self._pairs = sum(int(np.count_nonzero(matrix)) for matrix, _ in self._blocks) // 2
        return self._pairs

    def __repr__(self) -> str:
        return f"ArraySimilarityScores(pairs={len(self)}, blocks={len(self._blocks)})"
