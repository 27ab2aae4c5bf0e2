"""Dense-matrix SimRank engine.

The node-pair implementations in :mod:`repro.core.simrank`,
:mod:`repro.core.evidence_simrank` and :mod:`repro.core.weighted_simrank`
follow the paper's equations literally and are convenient for small graphs
and per-iteration traces, but their Python-level double loops are too slow
for the subgraph-scale experiments (hundreds to thousands of queries).

:class:`MatrixSimrank` computes the same fixpoints with numpy linear algebra.
With ``P_Q`` the query-to-ad transition matrix (row-normalized adjacency for
plain SimRank, the ``W(q, i)`` factors for weighted SimRank) and ``P_A`` the
ad-to-query matrix, the Jacobi iteration is::

    S_Q <- C1 * P_Q @ S_A @ P_Q.T   (diagonal reset to 1)
    S_A <- C2 * P_A @ S_Q @ P_A.T   (diagonal reset to 1)

Evidence is applied either after the final iteration (``mode='evidence'``,
Equations 7.5/7.6) or inside every iteration (``mode='weighted'``, Section 8).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.core.config import EvidenceKind, SimrankConfig
from repro.core.scores_array import ArraySimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.graph.click_graph import ClickGraph

__all__ = ["MatrixSimrank"]

Node = Hashable

_MODES = ("simrank", "evidence", "weighted")


class MatrixSimrank(QuerySimilarityMethod):
    """Fast SimRank / evidence-based SimRank / weighted SimRank in one engine."""

    def __init__(
        self,
        config: Optional[SimrankConfig] = None,
        mode: str = "simrank",
        min_score: float = 1e-9,
    ) -> None:
        super().__init__()
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.config = config or SimrankConfig()
        self.mode = mode
        self.min_score = min_score
        # Report under the same name as the corresponding reference method so
        # experiment tables read like the paper's.
        self.name = {"simrank": "simrank", "evidence": "evidence_simrank", "weighted": "weighted_simrank"}[mode]
        #: Iterations actually executed by the last fit (early exit included).
        self.iterations_run: Optional[int] = None
        self._query_index: List[Node] = []
        self._ad_index: List[Node] = []
        self._query_matrix: Optional[np.ndarray] = None
        self._ad_matrix: Optional[np.ndarray] = None

    # -------------------------------------------------------------- fit path

    def _compute_query_scores(self, graph: ClickGraph) -> ArraySimilarityScores:
        # Zero-degree nodes can only self-score (implicitly 1), so carrying
        # them through the dense iteration would only inflate the matrices.
        self._query_index = sorted(
            (query for query in graph.queries() if graph.query_degree(query) > 0), key=repr
        )
        self._ad_index = sorted(
            (ad for ad in graph.ads() if graph.ad_degree(ad) > 0), key=repr
        )
        query_pos = {query: i for i, query in enumerate(self._query_index)}
        ad_pos = {ad: j for j, ad in enumerate(self._ad_index)}
        n_q, n_a = len(self._query_index), len(self._ad_index)
        if n_q == 0 or n_a == 0:
            self._query_matrix = np.zeros((n_q, n_q))
            self._ad_matrix = np.zeros((n_a, n_a))
            self.iterations_run = 0
            return self._matrix_to_scores(self._query_matrix, self._query_index)

        binary = np.zeros((n_q, n_a))
        weights = np.zeros((n_q, n_a))
        for query, ad, stats in graph.edges():
            i, j = query_pos[query], ad_pos[ad]
            binary[i, j] = 1.0
            weights[i, j] = stats.weight(self.config.weight_source)

        if self.mode == "weighted":
            p_query, p_ad = _weighted_transitions(binary, weights)
        else:
            p_query = _row_normalize(binary)
            p_ad = _row_normalize(binary.T)

        # The evidence factors only depend on the graph, so they are computed
        # exactly once per fit (never inside the iteration) and skipped
        # entirely for plain SimRank, which never reads them.
        if self.mode == "simrank":
            evidence_query = evidence_ad = None
        else:
            evidence_query = _evidence_matrix(
                binary, self.config.evidence, self.config.zero_evidence_floor
            )
            evidence_ad = _evidence_matrix(
                binary.T, self.config.evidence, self.config.zero_evidence_floor
            )

        sim_query = np.eye(n_q)
        sim_ad = np.eye(n_a)
        self.iterations_run = 0
        for _ in range(self.config.iterations):
            new_query = self.config.c1 * (p_query @ sim_ad @ p_query.T)
            new_ad = self.config.c2 * (p_ad @ sim_query @ p_ad.T)
            if self.mode == "weighted":
                new_query *= evidence_query
                new_ad *= evidence_ad
            np.fill_diagonal(new_query, 1.0)
            np.fill_diagonal(new_ad, 1.0)
            delta = 0.0
            if self.config.tolerance > 0:
                delta = max(
                    float(np.max(np.abs(new_query - sim_query))) if n_q else 0.0,
                    float(np.max(np.abs(new_ad - sim_ad))) if n_a else 0.0,
                )
            sim_query, sim_ad = new_query, new_ad
            self.iterations_run += 1
            if self.config.tolerance > 0 and delta < self.config.tolerance:
                break

        if self.mode == "evidence":
            sim_query = sim_query * evidence_query
            sim_ad = sim_ad * evidence_ad
            np.fill_diagonal(sim_query, 1.0)
            np.fill_diagonal(sim_ad, 1.0)

        self._query_matrix = sim_query
        self._ad_matrix = sim_ad
        return self._matrix_to_scores(sim_query, self._query_index)

    # ---------------------------------------------------------------- access

    def restore(self, scores, graph=None) -> "MatrixSimrank":
        """Adopt precomputed query scores; matrices and indexes are fit-only.

        Clearing them keeps a re-restored instance honest: the ad-side
        accessors fail loudly instead of serving a previous fit's values
        alongside the adopted query scores.
        """
        super().restore(scores, graph)
        self.iterations_run = None
        self._query_index = []
        self._ad_index = []
        self._query_matrix = None
        self._ad_matrix = None
        return self

    def ad_similarity(self, first: Node, second: Node) -> float:
        """Similarity of two ads under the same fixpoint."""
        self._require_fitted()
        self._require_fit_extra(self._ad_matrix, "ad-side scores")
        if first == second:
            return 1.0
        try:
            i = self._ad_index.index(first)
            j = self._ad_index.index(second)
        except ValueError:
            return 0.0
        return float(self._ad_matrix[i, j])

    def query_matrix(self) -> Tuple[np.ndarray, List[Node]]:
        """The raw dense query-query similarity matrix and its index.

        The index only covers queries with at least one click edge; isolated
        queries never enter the iteration (they can only self-score).
        """
        self._require_fitted()
        matrix = self._require_fit_extra(self._query_matrix, "raw query matrix")
        return matrix, list(self._query_index)

    # ------------------------------------------------------------- internals

    def _matrix_to_scores(
        self, matrix: np.ndarray, index: List[Node]
    ) -> ArraySimilarityScores:
        # Wrap the final matrix directly instead of materializing a dict
        # entry per pair -- on large components the eager dict copy used to
        # dominate fit time well before the linear algebra did.
        return ArraySimilarityScores.from_dense(matrix, index, min_score=self.min_score)


def _row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Divide each row by its sum (rows that sum to zero stay zero)."""
    sums = matrix.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = np.where(sums > 0, matrix / np.where(sums > 0, sums, 1.0), 0.0)
    return normalized


def _weighted_transitions(binary: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ``W(q, a)`` and ``W(a, q)`` factor matrices of weighted SimRank."""
    ad_spread = _spread_vector(weights, axis=0)   # one value per ad (column)
    query_spread = _spread_vector(weights, axis=1)  # one value per query (row)

    query_row_sums = weights.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized_q = np.where(query_row_sums > 0, weights / np.where(query_row_sums > 0, query_row_sums, 1.0), 0.0)
    p_query = normalized_q * ad_spread[np.newaxis, :]

    ad_col_sums = weights.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized_a = np.where(ad_col_sums > 0, weights / np.where(ad_col_sums > 0, ad_col_sums, 1.0), 0.0)
    p_ad = (normalized_a * query_spread[:, np.newaxis]).T
    return p_query, p_ad


def _spread_vector(weights: np.ndarray, axis: int) -> np.ndarray:
    """``exp(-variance)`` of the non-zero weights along the given axis.

    ``axis=0`` computes one spread per column (ad), ``axis=1`` one per row
    (query).  Variance is the population variance of the weights of *incident
    edges only* (zeros in the matrix are absent edges, not observations).
    """
    mask = weights != 0
    counts = mask.sum(axis=axis)
    safe_counts = np.where(counts > 0, counts, 1)
    sums = weights.sum(axis=axis)
    means = sums / safe_counts
    if axis == 0:
        deviations = (weights - means[np.newaxis, :]) * mask
    else:
        deviations = (weights - means[:, np.newaxis]) * mask
    variances = (deviations ** 2).sum(axis=axis) / safe_counts
    spreads = np.exp(-variances)
    return np.where(counts > 0, spreads, 1.0)


def _evidence_matrix(
    binary: np.ndarray, kind: EvidenceKind, zero_evidence_floor: float = 0.0
) -> np.ndarray:
    """Pairwise evidence factors from a binary adjacency matrix.

    Entry ``(i, j)`` is the evidence of rows ``i`` and ``j`` based on their
    number of common columns; pairs with no common column get
    ``zero_evidence_floor`` (0 is the paper's Equation 7.3).
    """
    common = binary @ binary.T
    if kind is EvidenceKind.GEOMETRIC:
        evidence = 1.0 - np.power(0.5, common)
    elif kind is EvidenceKind.EXPONENTIAL:
        evidence = 1.0 - np.exp(-common)
    else:
        raise ValueError(f"unknown evidence kind: {kind!r}")
    evidence[common <= 0] = zero_evidence_floor
    np.fill_diagonal(evidence, 1.0)
    return evidence
