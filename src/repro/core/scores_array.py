"""Array-backed similarity score store.

:class:`~repro.core.scores.SimilarityScores` keeps one Python dict entry per
*direction* of every stored pair, so materializing the result of a matrix
fixpoint costs two dict insertions (plus boxing) per pair -- on realistic
click graphs that eager copy dominates fit time well before the linear
algebra does.  :class:`ArraySimilarityScores` implements the same read
interface (``score``, ``top``, ``neighbors``, ``pairs``, ``max_difference``,
``nodes``, ``nonzero_count``, ``copy``, ``len``) directly over the final
similarity matrix: a symmetric ``scipy.sparse`` CSR matrix with zero diagonal
plus the node index mapping rows to node identifiers.  Nothing is copied out
of the matrix; ``top()`` is served with a vectorized ``numpy`` partition
instead of per-pair dict traffic.

Self-similarities are implicit 1 (never stored), missing pairs score 0 --
exactly like the dict-backed container.  The store is read-only: similarity
engines build it once from their fixpoint matrix and serving code only reads.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

import numpy as np
from scipy import sparse

__all__ = ["ArraySimilarityScores"]

Node = Hashable


class ArraySimilarityScores:
    """Symmetric node-pair similarity scores backed by one CSR matrix.

    The matrix must be symmetric with a zero diagonal; use the
    :meth:`from_dense` constructor, which enforces both by mirroring the
    strict upper triangle (entries must exceed ``min_score``
    to be stored, matching the dense engine's storage threshold).

    A CSR input is adopted and normalized *in place* (indices sorted,
    explicit zeros eliminated); pass ``matrix.copy()`` when holding an alias
    whose entry layout must not change.  Other formats are converted, which
    already copies.
    """

    def __init__(self, matrix: sparse.csr_matrix, index: Sequence[Node]) -> None:
        matrix = sparse.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != len(index):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match index of {len(index)} nodes"
            )
        # Explicitly-stored zeros mean nothing to any reader (score() reports
        # missing pairs as 0 anyway), so dropping them once here keeps every
        # count -- len, nonzero_count, pairs() -- a pure nnz read instead of
        # a per-pair Python scan.
        matrix.eliminate_zeros()
        matrix.sort_indices()
        self._matrix = matrix
        self._index: List[Node] = list(index)
        self._pos: Dict[Node, int] = {node: i for i, node in enumerate(self._index)}

    # ----------------------------------------------------------- construction

    @classmethod
    def from_dense(
        cls, matrix: np.ndarray, index: Sequence[Node], min_score: float = 0.0
    ) -> "ArraySimilarityScores":
        """Store built from a dense symmetric similarity matrix.

        Only entries strictly above ``min_score`` are kept; the diagonal is
        discarded (self-scores are implicit 1).  The upper triangle is
        mirrored so both directions carry bit-identical values even when the
        input is only symmetric up to floating-point error.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.size == 0:
            return cls(sparse.csr_matrix((len(index), len(index))), index)
        upper = np.triu(matrix, k=1)
        upper[upper <= min_score] = 0.0
        half = sparse.csr_matrix(upper)
        return cls(half + half.T, index)

    @classmethod
    def stitched(cls, stores: Iterable["ArraySimilarityScores"]) -> "ArraySimilarityScores":
        """One store over the block-diagonal union of node-disjoint stores.

        This is how the sharded backend combines per-component results: the
        block-diagonal structure is exactly the cross-component-zero
        invariant, and no per-pair copying happens at all.
        """
        stores = list(stores)
        if not stores:
            return cls(sparse.csr_matrix((0, 0)), [])
        matrix = sparse.block_diag([store._matrix for store in stores], format="csr")
        index = [node for store in stores for node in store._index]
        return cls(matrix, index)

    # ----------------------------------------------------------------- access

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The underlying symmetric CSR similarity matrix (zero diagonal)."""
        return self._matrix

    @property
    def index(self) -> List[Node]:
        """Node identifier of each matrix row/column."""
        return list(self._index)

    def score(self, first: Node, second: Node) -> float:
        """Similarity of the pair; 1 for identical nodes, 0 when unknown."""
        if first == second:
            return 1.0
        i = self._pos.get(first)
        j = self._pos.get(second)
        if i is None or j is None:
            return 0.0
        start, end = self._matrix.indptr[i], self._matrix.indptr[i + 1]
        columns = self._matrix.indices[start:end]
        at = np.searchsorted(columns, j)
        if at < columns.size and columns[at] == j:
            return float(self._matrix.data[start + at])
        return 0.0

    def neighbors(self, node: Node) -> Dict[Node, float]:
        """All stored similarities involving ``node``."""
        i = self._pos.get(node)
        if i is None:
            return {}
        start, end = self._matrix.indptr[i], self._matrix.indptr[i + 1]
        return {
            self._index[column]: float(value)
            for column, value in zip(
                self._matrix.indices[start:end].tolist(),
                self._matrix.data[start:end].tolist(),
            )
        }

    def top(self, node: Node, k: int = 5, minimum: float = 0.0) -> List[Tuple[Node, float]]:
        """The ``k`` most similar nodes to ``node`` with score above ``minimum``.

        Selection is a vectorized ``numpy`` partition over the node's matrix
        row; only the (at most ``k`` plus boundary ties) surviving candidates
        are boxed into Python objects and sorted with the same deterministic
        ``(-score, repr)`` tie-break as the dict-backed store.
        """
        i = self._pos.get(node)
        if i is None or k <= 0:
            return []
        start, end = self._matrix.indptr[i], self._matrix.indptr[i + 1]
        columns = self._matrix.indices[start:end]
        values = self._matrix.data[start:end]
        above = values > minimum
        columns, values = columns[above], values[above]
        if values.size == 0:
            return []
        if k < values.size:
            # Keep everything at or above the k-th largest value: boundary
            # ties survive the cut so the repr tie-break below stays exact.
            kth = np.partition(values, values.size - k)[values.size - k]
            chosen = values >= kth
            columns, values = columns[chosen], values[chosen]
        candidates = [
            (self._index[column], float(value))
            for column, value in zip(columns.tolist(), values.tolist())
        ]
        candidates.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        return candidates[:k]

    def pairs(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate each stored unordered pair exactly once (upper triangle)."""
        upper = sparse.triu(self._matrix, k=1, format="coo")
        for i, j, value in zip(
            upper.row.tolist(), upper.col.tolist(), upper.data.tolist()
        ):
            yield self._index[i], self._index[j], float(value)

    def nodes(self) -> Iterator[Node]:
        """Nodes that appear in at least one stored pair."""
        row_counts = np.diff(self._matrix.indptr)
        return (self._index[i] for i in np.nonzero(row_counts)[0].tolist())

    def nonzero_count(self) -> int:
        """Number of stored pairs with a non-zero score.

        Explicit zeros are eliminated at construction, so every stored entry
        is non-zero and the count equals the stored pair count -- no per-pair
        Python boxing.
        """
        return len(self)

    # ------------------------------------------------------------------ misc

    def max_difference(self, other) -> float:
        """Largest absolute per-pair difference against another score set.

        Works against any score container exposing ``pairs()`` and
        ``score()`` (the dict-backed :class:`~repro.core.scores
        .SimilarityScores` included); two array stores over the same index
        are compared directly on their matrices.
        """
        if isinstance(other, ArraySimilarityScores) and self._index == other._index:
            difference = abs(self._matrix - other._matrix)
            return float(difference.max()) if difference.nnz else 0.0
        keys = {(a, b) for a, b, _ in self.pairs()} | {(a, b) for a, b, _ in other.pairs()}
        if not keys:
            return 0.0
        return max(abs(self.score(a, b) - other.score(a, b)) for a, b in keys)

    def copy(self) -> "ArraySimilarityScores":
        return ArraySimilarityScores(self._matrix.copy(), self._index)

    def __len__(self) -> int:
        # The matrix is symmetric with zero diagonal by construction, so the
        # stored pair count is exactly half the stored entry count.
        return int(self._matrix.nnz) // 2

    def __repr__(self) -> str:
        return f"ArraySimilarityScores(pairs={len(self)}, nodes={len(self._index)})"
