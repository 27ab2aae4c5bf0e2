"""Core query-similarity algorithms (the paper's contribution).

* :class:`BipartiteSimrank` -- plain bipartite SimRank (Jeh & Widom), Section 4.
* :class:`EvidenceSimrank` -- evidence-based SimRank, Section 7.
* :class:`WeightedSimrank` -- weighted SimRank / "Simrank++", Section 8.
* :class:`PearsonSimilarity` -- the Pearson-correlation baseline, Section 9.1.
* :mod:`repro.core.baselines` -- naive common-ad counting (Table 1) and extra
  comparators (Jaccard, cosine).
* :mod:`repro.core.complete_bipartite` -- closed-form scores on complete
  bipartite graphs (Theorems A.1-B.3), used as test oracles.
* :class:`ShardedSimrank` -- the same SimRank fixpoints computed per
  connected component on block-diagonal structures (the fast backend for the
  disconnected click graphs of practice), each component fitted with the
  dense-linear-algebra kernel :class:`MatrixSimrank`.
* :class:`QueryRewriter` -- the sponsored-search front-end that turns
  similarity scores into filtered, ranked query rewrites (Section 9.3).
"""

from repro.core.baselines import (
    CommonAdSimilarity,
    CosineSimilarity,
    JaccardSimilarity,
    common_ad_count,
)
from repro.core.complete_bipartite import (
    evidence_simrank_k22_score,
    simrank_k12_score,
    simrank_k22_score,
    simrank_km2_scores,
)
from repro.core.config import EvidenceKind, SimrankConfig
from repro.core.evidence import (
    common_neighbor_count,
    evidence_exponential,
    evidence_geometric,
    evidence_score,
)
from repro.core.evidence_simrank import EvidenceSimrank
from repro.core.hybrid import HybridSimilarity, TextSimilarity, text_similarity
from repro.core.pearson import PearsonSimilarity, pearson_similarity
from repro.core.registry import available_methods, create_method
from repro.core.rewriter import CandidateDecision, QueryRewriter, Rewrite, RewriteList
from repro.core.scores import SimilarityScores
from repro.core.scores_array import ArraySimilarityScores
from repro.core.simrank import BipartiteSimrank, SimrankResult
from repro.core.simrank_matrix import MatrixSimrank
from repro.core.simrank_sharded import ShardedSimrank
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.weighted_simrank import WeightedSimrank, spread, transition_factors

__all__ = [
    "CommonAdSimilarity",
    "CosineSimilarity",
    "JaccardSimilarity",
    "common_ad_count",
    "evidence_simrank_k22_score",
    "simrank_k12_score",
    "simrank_k22_score",
    "simrank_km2_scores",
    "EvidenceKind",
    "SimrankConfig",
    "common_neighbor_count",
    "evidence_exponential",
    "evidence_geometric",
    "evidence_score",
    "EvidenceSimrank",
    "HybridSimilarity",
    "TextSimilarity",
    "text_similarity",
    "PearsonSimilarity",
    "pearson_similarity",
    "available_methods",
    "create_method",
    "CandidateDecision",
    "QueryRewriter",
    "Rewrite",
    "RewriteList",
    "SimilarityScores",
    "ArraySimilarityScores",
    "BipartiteSimrank",
    "SimrankResult",
    "MatrixSimrank",
    "ShardedSimrank",
    "QuerySimilarityMethod",
    "WeightedSimrank",
    "spread",
    "transition_factors",
]
