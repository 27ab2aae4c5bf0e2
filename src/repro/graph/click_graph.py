"""The weighted bipartite click graph (paper Section 2).

A click graph for a time period is an undirected, weighted, bipartite graph
``G = (Q, A, E)`` where ``Q`` is a set of queries, ``A`` a set of ads and
``E`` a set of edges connecting queries with ads.  ``G`` has an edge
``(q, a)`` if at least one user that issued ``q`` during the period also
clicked on ``a``.  Every edge carries three weights:

* ``impressions`` -- how many times the ad was displayed for the query,
* ``clicks`` -- how many of those displays were clicked (``<= impressions``),
* ``expected_click_rate`` -- a position-adjusted clicks/impressions ratio
  computed by the serving back-end.

The paper's similarity computations only ever need, for a node ``v``, the set
of neighbours ``E(v)`` and the per-edge weights, so the graph is stored as a
dict-of-dicts adjacency indexed from both sides.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = ["ClickGraph", "EdgeStats", "NodeKind", "WeightSource"]

Node = Hashable


class NodeKind(str, enum.Enum):
    """Which side of the bipartite graph a node belongs to."""

    QUERY = "query"
    AD = "ad"


class WeightSource(str, enum.Enum):
    """Which edge statistic to use as the scalar edge weight ``w(q, a)``.

    The paper uses the expected click rate in all experiments that require an
    edge weight (Section 9.2); raw clicks and the clicks/impressions ratio
    are provided for the weight-source ablation.
    """

    EXPECTED_CLICK_RATE = "expected_click_rate"
    CLICKS = "clicks"
    CLICK_THROUGH_RATE = "click_through_rate"
    IMPRESSIONS = "impressions"


@dataclass(frozen=True)
class EdgeStats:
    """The three weights attached to a click-graph edge.

    ``expected_click_rate`` defaults to the raw clicks/impressions ratio when
    the serving back-end does not supply a position-adjusted estimate.
    """

    impressions: int
    clicks: int
    expected_click_rate: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.impressions < 0:
            raise ValueError(f"impressions must be non-negative, got {self.impressions}")
        if self.clicks < 0:
            raise ValueError(f"clicks must be non-negative, got {self.clicks}")
        if self.clicks > self.impressions:
            raise ValueError(
                f"clicks ({self.clicks}) cannot exceed impressions ({self.impressions})"
            )
        if self.expected_click_rate < 0:
            object.__setattr__(self, "expected_click_rate", self.click_through_rate)
        if math.isnan(self.expected_click_rate) or self.expected_click_rate < 0:
            raise ValueError(
                f"expected_click_rate must be non-negative, got {self.expected_click_rate}"
            )

    @property
    def click_through_rate(self) -> float:
        """Raw clicks over impressions (0 when there were no impressions)."""
        if self.impressions == 0:
            return 0.0
        return self.clicks / self.impressions

    def weight(self, source: WeightSource = WeightSource.EXPECTED_CLICK_RATE) -> float:
        """Return the scalar weight selected by ``source``."""
        if source is WeightSource.EXPECTED_CLICK_RATE:
            return float(self.expected_click_rate)
        if source is WeightSource.CLICKS:
            return float(self.clicks)
        if source is WeightSource.CLICK_THROUGH_RATE:
            return self.click_through_rate
        if source is WeightSource.IMPRESSIONS:
            return float(self.impressions)
        raise ValueError(f"unknown weight source: {source!r}")

    def merged_with(self, other: "EdgeStats") -> "EdgeStats":
        """Combine two observations of the same edge (e.g. from two log shards).

        Impressions and clicks add up; the expected click rate is combined as
        an impression-weighted average, which is what re-estimating it over
        the union of the log shards would give.
        """
        impressions = self.impressions + other.impressions
        clicks = self.clicks + other.clicks
        if impressions > 0:
            ecr = (
                self.expected_click_rate * self.impressions
                + other.expected_click_rate * other.impressions
            ) / impressions
        else:
            ecr = max(self.expected_click_rate, other.expected_click_rate)
        return EdgeStats(impressions=impressions, clicks=clicks, expected_click_rate=ecr)


class ClickGraph:
    """Weighted bipartite query-ad click graph.

    Nodes on the two sides live in separate namespaces: the same string may be
    used both as a query and as an ad identifier without collision.

    >>> g = ClickGraph()
    >>> g.add_edge("camera", "hp.com", impressions=100, clicks=10)
    >>> g.ads_of("camera")
    {'hp.com': EdgeStats(impressions=100, clicks=10, expected_click_rate=0.1)}
    """

    def __init__(self) -> None:
        self._query_adj: Dict[Node, Dict[Node, EdgeStats]] = {}
        self._ad_adj: Dict[Node, Dict[Node, EdgeStats]] = {}

    # ------------------------------------------------------------------ nodes

    def add_query(self, query: Node) -> None:
        """Add an isolated query node (no-op if already present)."""
        self._query_adj.setdefault(query, {})

    def add_ad(self, ad: Node) -> None:
        """Add an isolated ad node (no-op if already present)."""
        self._ad_adj.setdefault(ad, {})

    def has_query(self, query: Node) -> bool:
        return query in self._query_adj

    def has_ad(self, ad: Node) -> bool:
        return ad in self._ad_adj

    def queries(self) -> Iterator[Node]:
        """Iterate over all query nodes."""
        return iter(self._query_adj)

    def ads(self) -> Iterator[Node]:
        """Iterate over all ad nodes."""
        return iter(self._ad_adj)

    @property
    def num_queries(self) -> int:
        return len(self._query_adj)

    @property
    def num_ads(self) -> int:
        return len(self._ad_adj)

    @property
    def num_nodes(self) -> int:
        return self.num_queries + self.num_ads

    # ------------------------------------------------------------------ edges

    def add_edge(
        self,
        query: Node,
        ad: Node,
        impressions: int = 1,
        clicks: int = 1,
        expected_click_rate: Optional[float] = None,
        merge: bool = False,
    ) -> None:
        """Add (or update) the edge between ``query`` and ``ad``.

        With ``merge=True`` an existing edge is combined with the new
        observation via :meth:`EdgeStats.merged_with`; otherwise the previous
        statistics are replaced.
        """
        stats = EdgeStats(
            impressions=impressions,
            clicks=clicks,
            expected_click_rate=-1.0 if expected_click_rate is None else expected_click_rate,
        )
        self.add_edge_stats(query, ad, stats, merge=merge)

    def add_edge_stats(self, query: Node, ad: Node, stats: EdgeStats, merge: bool = False) -> None:
        """Add an edge described by an :class:`EdgeStats` instance."""
        self.add_query(query)
        self.add_ad(ad)
        if merge and ad in self._query_adj[query]:
            stats = self._query_adj[query][ad].merged_with(stats)
        self._query_adj[query][ad] = stats
        self._ad_adj[ad][query] = stats

    def remove_edge(self, query: Node, ad: Node) -> EdgeStats:
        """Remove the edge and return its statistics.

        Raises ``KeyError`` if the edge does not exist.  The endpoints stay in
        the graph (possibly isolated) -- this mirrors the edge-removal
        desirability experiment of Section 9.3 where only edges are deleted.
        """
        stats = self._query_adj[query].pop(ad)
        self._ad_adj[ad].pop(query)
        return stats

    def edge(self, query: Node, ad: Node) -> Optional[EdgeStats]:
        """Return the edge statistics, or ``None`` when the edge is absent."""
        return self._query_adj.get(query, {}).get(ad)

    def has_edge(self, query: Node, ad: Node) -> bool:
        return ad in self._query_adj.get(query, {})

    @property
    def num_edges(self) -> int:
        return sum(len(neighbours) for neighbours in self._query_adj.values())

    def edges(self) -> Iterator[Tuple[Node, Node, EdgeStats]]:
        """Iterate over ``(query, ad, stats)`` triples."""
        for query, neighbours in self._query_adj.items():
            for ad, stats in neighbours.items():
                yield query, ad, stats

    # ------------------------------------------------------------- neighbours

    def ads_of(self, query: Node) -> Dict[Node, EdgeStats]:
        """Neighbour ads of a query, i.e. ``E(q)`` with edge statistics."""
        return dict(self._query_adj.get(query, {}))

    def queries_of(self, ad: Node) -> Dict[Node, EdgeStats]:
        """Neighbour queries of an ad, i.e. ``E(a)`` with edge statistics."""
        return dict(self._ad_adj.get(ad, {}))

    def neighbors(self, node: Node, kind: NodeKind) -> List[Node]:
        """Neighbours of ``node`` given which side it lives on."""
        if kind is NodeKind.QUERY:
            return list(self._query_adj.get(node, {}))
        return list(self._ad_adj.get(node, {}))

    def degree(self, node: Node, kind: NodeKind) -> int:
        """``N(v)``: the number of neighbours of ``v`` (paper Section 2)."""
        if kind is NodeKind.QUERY:
            return len(self._query_adj.get(node, {}))
        return len(self._ad_adj.get(node, {}))

    def query_degree(self, query: Node) -> int:
        return len(self._query_adj.get(query, {}))

    def ad_degree(self, ad: Node) -> int:
        return len(self._ad_adj.get(ad, {}))

    # --------------------------------------------------------------- weights

    def weight(
        self,
        query: Node,
        ad: Node,
        source: WeightSource = WeightSource.EXPECTED_CLICK_RATE,
    ) -> float:
        """Scalar weight ``w(q, a)`` of an edge under the chosen source.

        Missing edges have weight 0.
        """
        stats = self.edge(query, ad)
        if stats is None:
            return 0.0
        return stats.weight(source)

    def query_weights(
        self, query: Node, source: WeightSource = WeightSource.EXPECTED_CLICK_RATE
    ) -> Dict[Node, float]:
        """All edge weights incident to a query, keyed by ad."""
        return {
            ad: stats.weight(source) for ad, stats in self._query_adj.get(query, {}).items()
        }

    def ad_weights(
        self, ad: Node, source: WeightSource = WeightSource.EXPECTED_CLICK_RATE
    ) -> Dict[Node, float]:
        """All edge weights incident to an ad, keyed by query."""
        return {
            query: stats.weight(source) for query, stats in self._ad_adj.get(ad, {}).items()
        }

    def total_clicks(self) -> int:
        """Total number of clicks recorded on all edges."""
        return sum(stats.clicks for _, _, stats in self.edges())

    def total_impressions(self) -> int:
        """Total number of impressions recorded on all edges."""
        return sum(stats.impressions for _, _, stats in self.edges())

    # ------------------------------------------------------------ derivation

    def copy(self) -> "ClickGraph":
        """Deep-enough copy: edge stats are immutable, adjacency dicts are new."""
        clone = ClickGraph()
        for query in self._query_adj:
            clone.add_query(query)
        for ad in self._ad_adj:
            clone.add_ad(ad)
        for query, ad, stats in self.edges():
            clone.add_edge_stats(query, ad, stats)
        return clone

    def subgraph(
        self,
        queries: Optional[Iterable[Node]] = None,
        ads: Optional[Iterable[Node]] = None,
    ) -> "ClickGraph":
        """Induced subgraph on the given node subsets.

        When one side is omitted, all nodes on that side are kept; an edge
        survives only if both endpoints survive.  Nodes and edges keep this
        graph's insertion order, so the result never depends on set
        iteration order.  Only the selected queries' adjacency is walked:
        carving one component out of a many-component graph costs that
        component's edges, not the whole graph's.
        """
        query_set = set(self._query_adj) if queries is None else set(queries)
        ad_set = set(self._ad_adj) if ads is None else set(ads)
        selected = [query for query in self._query_adj if query in query_set]
        sub = ClickGraph()
        for query in selected:
            sub.add_query(query)
        for ad in self._ad_adj:
            if ad in ad_set:
                sub.add_ad(ad)
        # Query-major, each query's ads in adjacency order: exactly the
        # order edges() yields them in, restricted to the selection.
        for query in selected:
            for ad, stats in self._query_adj[query].items():
                if ad in ad_set:
                    sub.add_edge_stats(query, ad, stats)
        return sub

    def without_edges(self, edges: Iterable[Tuple[Node, Node]]) -> "ClickGraph":
        """Copy of the graph with the given ``(query, ad)`` edges removed.

        Unknown edges are ignored.  This is the primitive behind the paper's
        desirability edge-removal experiment (Section 9.3).
        """
        removed = set(edges)
        clone = ClickGraph()
        for query in self._query_adj:
            clone.add_query(query)
        for ad in self._ad_adj:
            clone.add_ad(ad)
        for query, ad, stats in self.edges():
            if (query, ad) not in removed:
                clone.add_edge_stats(query, ad, stats)
        return clone

    def apply_delta(self, delta) -> "ClickGraph":
        """Apply a :class:`~repro.graph.delta.ClickGraphDelta` in place.

        Adds, updates and removes the delta's edges and returns ``self``.
        The delta is validated against this graph before the first mutation
        (see :meth:`~repro.graph.delta.ClickGraphDelta.apply_to`), so a
        delta captured against a different graph state raises
        ``ValueError`` without half-applying.
        """
        return delta.apply_to(self)

    # ---------------------------------------------------------------- export

    def to_networkx(self):
        """Export to a ``networkx.Graph`` with bipartite node attributes."""
        import networkx as nx

        graph = nx.Graph()
        for query in self._query_adj:
            graph.add_node(("query", query), bipartite=0, kind="query", label=query)
        for ad in self._ad_adj:
            graph.add_node(("ad", ad), bipartite=1, kind="ad", label=ad)
        for query, ad, stats in self.edges():
            graph.add_edge(
                ("query", query),
                ("ad", ad),
                impressions=stats.impressions,
                clicks=stats.clicks,
                expected_click_rate=stats.expected_click_rate,
            )
        return graph

    def to_sparse_matrix(
        self,
        source: WeightSource = WeightSource.EXPECTED_CLICK_RATE,
    ) -> Tuple["object", List[Node], List[Node]]:
        """Export a query x ad ``scipy.sparse.csr_matrix`` of edge weights.

        Returns ``(matrix, query_index, ad_index)`` where the index lists map
        row/column positions back to node identifiers.
        """
        import numpy as np
        from scipy import sparse

        query_index = sorted(self._query_adj, key=repr)
        ad_index = sorted(self._ad_adj, key=repr)
        query_pos = {query: i for i, query in enumerate(query_index)}
        ad_pos = {ad: j for j, ad in enumerate(ad_index)}

        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for query, ad, stats in self.edges():
            rows.append(query_pos[query])
            cols.append(ad_pos[ad])
            data.append(stats.weight(source))
        matrix = sparse.csr_matrix(
            (np.array(data, dtype=float), (rows, cols)),
            shape=(len(query_index), len(ad_index)),
        )
        return matrix, query_index, ad_index

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[Node, Node, Mapping[str, float]]]
    ) -> "ClickGraph":
        """Build a graph from ``(query, ad, attrs)`` triples.

        ``attrs`` may contain ``impressions``, ``clicks`` and
        ``expected_click_rate``; missing counts default to one click / one
        impression (the unweighted graphs of the paper's Figures 3 and 4).
        """
        graph = cls()
        for query, ad, attrs in edges:
            graph.add_edge(
                query,
                ad,
                impressions=int(attrs.get("impressions", 1)),
                clicks=int(attrs.get("clicks", 1)),
                expected_click_rate=attrs.get("expected_click_rate"),
                merge=True,
            )
        return graph

    # ------------------------------------------------------------------ misc

    def __contains__(self, node: Node) -> bool:
        return node in self._query_adj or node in self._ad_adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClickGraph):
            return NotImplemented
        return (
            set(self._query_adj) == set(other._query_adj)
            and set(self._ad_adj) == set(other._ad_adj)
            and {(q, a): s for q, a, s in self.edges()}
            == {(q, a): s for q, a, s in other.edges()}
        )

    def __repr__(self) -> str:
        return (
            f"ClickGraph(queries={self.num_queries}, ads={self.num_ads}, "
            f"edges={self.num_edges})"
        )
