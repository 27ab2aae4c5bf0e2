"""The sponsored-search front-end: turning similarity scores into rewrites.

Section 9.3 of the paper describes the rewrite-generation procedure used in
the evaluation: run a similarity method over the click graph, record the top
100 rewrites per query, deduplicate them with stemming, remove rewrites that
are not in the bid-term list (queries that never received a bid are unlikely
to have active bids now), and keep at most five rewrites per query.  The
number of rewrites that survive is the method's *depth* for that query.

:class:`QueryRewriter` implements exactly that pipeline on top of any
:class:`~repro.core.similarity_base.QuerySimilarityMethod`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.similarity_base import QuerySimilarityMethod
from repro.graph.click_graph import ClickGraph
from repro.text.normalize import query_signature

__all__ = ["Rewrite", "RewriteList", "CandidateDecision", "QueryRewriter"]

Node = Hashable


@dataclass(frozen=True)
class Rewrite:
    """One rewrite proposed for a query."""

    query: Node
    rewrite: Node
    score: float
    rank: int

    def as_pair(self) -> tuple:
        return (self.query, self.rewrite)


@dataclass
class RewriteList:
    """All surviving rewrites of one query, in rank order."""

    query: Node
    rewrites: List[Rewrite]

    @property
    def depth(self) -> int:
        """Number of rewrites that survived filtering (paper: the method's depth)."""
        return len(self.rewrites)

    @property
    def covered(self) -> bool:
        """Whether at least one rewrite survived (query-coverage numerator)."""
        return bool(self.rewrites)

    def top(self, k: int) -> List[Rewrite]:
        return self.rewrites[:k]

    def candidates(self) -> List[Node]:
        return [rewrite.rewrite for rewrite in self.rewrites]

    def as_tuples(self) -> List[Tuple[Node, Node, int, float]]:
        """``(query, rewrite, rank, score)`` rows -- the exact serving profile.

        This is the single definition of serving equivalence used by the
        cross-backend tests and the snapshot benchmark gate: two engines
        serve equivalently iff their batches flatten to equal tuple lists.
        """
        return [
            (self.query, rewrite.rewrite, rewrite.rank, rewrite.score)
            for rewrite in self.rewrites
        ]


@dataclass(frozen=True)
class CandidateDecision:
    """What the filter pipeline did with one raw candidate.

    ``fate`` is ``"accepted"`` or the name of the filter that dropped the
    candidate: ``"not_in_bid_terms"``, ``"duplicate"`` or
    ``"beyond_max_rewrites"``.  Candidates scoring at or below ``min_score``
    never reach the pipeline and therefore never appear in a trace.
    """

    candidate: Node
    score: float
    fate: str
    rank: Optional[int] = None

    @property
    def accepted(self) -> bool:
        return self.fate == "accepted"


class QueryRewriter:
    """Generate filtered, ranked query rewrites from a similarity method."""

    def __init__(
        self,
        method: QuerySimilarityMethod,
        bid_terms: Optional[Set[str]] = None,
        max_rewrites: int = 5,
        candidate_pool: int = 100,
        min_score: float = 0.0,
        deduplicate: bool = True,
    ) -> None:
        """
        Parameters
        ----------
        method:
            A fitted (or to-be-fitted) similarity method.
        bid_terms:
            The set of queries that received at least one bid during the
            click-graph collection period.  When provided, rewrites outside
            this set are filtered out (bid-term filtering).  ``None`` disables
            the filter.
        max_rewrites:
            Maximum rewrites kept per query (the paper uses 5).
        candidate_pool:
            How many raw candidates to consider before filtering (the paper
            records the top 100).
        min_score:
            Candidates with a similarity score at or below this value are
            never proposed.
        deduplicate:
            Apply stemming-based duplicate removal (drop rewrites whose
            stemmed signature equals the query's or an earlier rewrite's).

        Notes
        -----
        Rewrite lists are memoized per query, so repeated ``rewrites_for``
        calls (and the ``coverage`` / ``depth_histogram`` statistics, which
        share the memo) run the similarity top-k at most once per query.
        Every path, :meth:`compute_rewrites` included, stems each score-index
        node at most once (the signature memo).
        Changing any filtering attribute after serving has started requires a
        :meth:`clear_cache` call; refitting clears the memo automatically.
        """
        if max_rewrites < 1:
            raise ValueError("max_rewrites must be at least 1")
        if candidate_pool < max_rewrites:
            raise ValueError("candidate_pool must be at least max_rewrites")
        self.method = method
        self.bid_terms = bid_terms
        self.max_rewrites = max_rewrites
        self.candidate_pool = candidate_pool
        self.min_score = min_score
        self.deduplicate = deduplicate
        self._cache: Dict[Node, RewriteList] = {}
        #: Stemmed signature of each score-index node the pipeline has seen
        #: (candidates, and queries that had candidates).  Unknown user input
        #: never lands here, so the memo is bounded by the fitted index.
        self._signatures: Dict[Node, Tuple[str, ...]] = {}
        self._bid_signatures: Optional[Set[Tuple[str, ...]]] = None
        self._bid_signature_source: Optional[Set[str]] = None

    # ------------------------------------------------------------------- fit

    def fit(self, graph: ClickGraph) -> "QueryRewriter":
        """Fit the underlying similarity method on a click graph."""
        self.method.fit(graph)
        self.clear_cache()
        return self

    def clear_cache(self) -> None:
        """Drop memoized rewrite lists and node signatures (needed after knob changes)."""
        self._cache.clear()
        self._signatures.clear()
        # Recompute the bid-term signatures too: an identity check alone would
        # miss in-place mutations of the bid_terms set.
        self._bid_signatures = None
        self._bid_signature_source = None

    # -------------------------------------------------------------- rewrites

    def rewrites_for(self, query: Node) -> RewriteList:
        """The surviving rewrites of one query, best first (memoized)."""
        cached = self._cache.get(query)
        if cached is not None:
            return cached
        result = self.compute_rewrites(query)
        self._cache[query] = result
        return result

    def compute_rewrites(self, query: Node) -> RewriteList:
        """The surviving rewrites of one query, computed afresh (never memoized).

        :class:`~repro.api.engine.RewriteEngine` owns a bounded LRU serving
        cache and must remain the *only* cache layer -- a second unbounded
        memo here would defeat the bound -- so the engine serves its misses
        through this entry point, while :meth:`rewrites_for` keeps memoizing
        for direct rewriter users (``coverage`` / ``depth_histogram``).
        """
        result, _ = self._generate(query, collect_decisions=False)
        return result

    def explain_candidates(self, query: Node) -> List[CandidateDecision]:
        """The fate of every raw candidate in the filter pipeline, best first."""
        _, decisions = self._generate(query, collect_decisions=True)
        return decisions

    def _bid_term_signatures(self) -> Optional[Set[Tuple[str, ...]]]:
        """Stemmed signatures of the bid terms, recomputed when the set changes.

        Bid terms and candidates are both normalized with
        :func:`~repro.text.normalize.query_signature` so casing, word-order
        and stemming variants of a bid term ("Digital Cameras" vs "digital
        camera") are not spuriously filtered out.
        """
        if self.bid_terms is None:
            return None
        if self._bid_signatures is None or self._bid_signature_source is not self.bid_terms:
            self._bid_signatures = {query_signature(term) for term in self.bid_terms}
            self._bid_signature_source = self.bid_terms
        return self._bid_signatures

    def _signature(self, node: Node) -> Tuple[str, ...]:
        """``query_signature(node)``, stemmed once per score-index node.

        Only call this for nodes of the fitted score index.  Only strings
        are memoized: ``1``, ``1.0`` and ``True`` are equal dict keys but
        stem differently.  Concurrent serving threads may both miss and stem
        the same node; they store equal values, so the race costs one
        redundant stem and nothing else.
        """
        if type(node) is not str:
            return query_signature(node)
        signature = self._signatures.get(node)
        if signature is None:
            signature = query_signature(node)
            self._signatures[node] = signature
        return signature

    def _generate(
        self, query: Node, collect_decisions: bool
    ) -> Tuple[RewriteList, List[CandidateDecision]]:
        """Run the Section 9.3 filter pipeline over the raw candidate pool."""
        candidates = self.method.top_rewrites(
            query, k=self.candidate_pool, minimum=self.min_score
        )
        accepted: List[Rewrite] = []
        decisions: List[CandidateDecision] = []
        if not candidates:
            return RewriteList(query=query, rewrites=accepted), decisions
        bid_signatures = self._bid_term_signatures()
        seen_signatures = {self._signature(query)} if self.deduplicate else set()
        for candidate, score in candidates:
            if len(accepted) >= self.max_rewrites:
                if not collect_decisions:
                    break
                fate = "beyond_max_rewrites"
            else:
                signature = self._signature(candidate)
                if bid_signatures is not None and signature not in bid_signatures:
                    fate = "not_in_bid_terms"
                elif self.deduplicate and signature in seen_signatures:
                    fate = "duplicate"
                else:
                    fate = "accepted"
                    seen_signatures.add(signature)
                    accepted.append(
                        Rewrite(query=query, rewrite=candidate, score=score, rank=len(accepted) + 1)
                    )
            if collect_decisions:
                decisions.append(
                    CandidateDecision(
                        candidate=candidate,
                        score=score,
                        fate=fate,
                        rank=accepted[-1].rank if fate == "accepted" else None,
                    )
                )
        return RewriteList(query=query, rewrites=accepted), decisions

    def rewrite_all(self, queries: Iterable[Node]) -> List[RewriteList]:
        """Rewrites for a whole evaluation query sample."""
        return [self.rewrites_for(query) for query in queries]

    # ----------------------------------------------------------------- stats

    def coverage(self, queries: Sequence[Node]) -> float:
        """Fraction of the given queries with at least one surviving rewrite."""
        if not queries:
            return 0.0
        covered = sum(1 for query in queries if self.rewrites_for(query).covered)
        return covered / len(queries)

    def depth_histogram(self, queries: Sequence[Node]) -> List[int]:
        """Count of queries by surviving-rewrite depth (index = depth)."""
        histogram = [0] * (self.max_rewrites + 1)
        for query in queries:
            histogram[self.rewrites_for(query).depth] += 1
        return histogram
