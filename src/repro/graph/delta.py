"""Incremental click-graph updates: deltas between two collection periods.

A production click graph changes continuously -- new queries appear, click
counts shift, stale edges age out -- yet the similarity fixpoint is an
offline computation over the whole graph.  :class:`ClickGraphDelta` is the
unit of change between two graph states: the edges that were added, the
edges whose statistics changed and the edges that disappeared.  It is the
input of :meth:`ClickGraph.apply_delta` (bring a graph forward) and of
:meth:`repro.api.engine.RewriteEngine.refresh` (bring a *fitted engine*
forward by refitting only the components the delta touched).

Deltas come from two places:

* **capture** -- :meth:`ClickGraphDelta.between` diffs two full graphs, the
  batch path when yesterday's and today's graphs both exist;
* **recording** -- :class:`DeltaBuilder` accumulates individual edge events
  (the streaming path) and builds the delta once per refresh interval.

A delta only carries *edges*.  Endpoints of added edges are created on
apply when missing; endpoints of removed edges stay behind (possibly
isolated), mirroring :meth:`ClickGraph.remove_edge` and the paper's
edge-removal experiment (Section 9.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Set, Tuple

from repro.graph.click_graph import ClickGraph, EdgeStats

__all__ = ["ClickGraphDelta", "DeltaBuilder"]

Node = Hashable
Edge = Tuple[Node, Node]


@dataclass(frozen=True)
class ClickGraphDelta:
    """The edge changes between two click-graph states.

    Attributes
    ----------
    added:
        Edges absent before and present after, with their statistics.
    updated:
        Edges present in both states whose statistics changed, with the
        *new* statistics.
    removed:
        Edges present before and absent after.

    The three groups must be disjoint; :meth:`ClickGraph.apply_delta`
    additionally validates each group against the graph it is applied to
    (added edges must be absent, updated/removed edges present), so a delta
    captured against one graph state cannot be silently applied to another.
    """

    added: Tuple[Tuple[Node, Node, EdgeStats], ...] = ()
    updated: Tuple[Tuple[Node, Node, EdgeStats], ...] = ()
    removed: Tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        groups = {
            "added": {(query, ad) for query, ad, _ in self.added},
            "updated": {(query, ad) for query, ad, _ in self.updated},
            "removed": set(self.removed),
        }
        for name, edges in groups.items():
            source = getattr(self, name)
            if len(edges) != len(source):
                raise ValueError(f"delta lists the same edge twice under {name!r}")
        for first, second in (("added", "updated"), ("added", "removed"), ("updated", "removed")):
            overlap = groups[first] & groups[second]
            if overlap:
                raise ValueError(
                    f"delta lists edge {next(iter(overlap))!r} under both "
                    f"{first!r} and {second!r}"
                )

    # ------------------------------------------------------------------ shape

    @property
    def is_empty(self) -> bool:
        """Whether the delta changes nothing (a no-op refresh)."""
        return not (self.added or self.updated or self.removed)

    def __len__(self) -> int:
        """Total number of edge changes."""
        return len(self.added) + len(self.updated) + len(self.removed)

    def __bool__(self) -> bool:
        return not self.is_empty

    def touched_queries(self) -> Set[Node]:
        """Query endpoints of every changed edge."""
        return (
            {query for query, _, _ in self.added}
            | {query for query, _, _ in self.updated}
            | {query for query, _ in self.removed}
        )

    def touched_ads(self) -> Set[Node]:
        """Ad endpoints of every changed edge."""
        return (
            {ad for _, ad, _ in self.added}
            | {ad for _, ad, _ in self.updated}
            | {ad for _, ad in self.removed}
        )

    # ---------------------------------------------------------------- capture

    @classmethod
    def between(cls, old: ClickGraph, new: ClickGraph) -> "ClickGraphDelta":
        """The delta that brings ``old`` to ``new``'s edge set.

        ``old.copy().apply_delta(ClickGraphDelta.between(old, new))`` has
        exactly ``new``'s edges.  Node-only differences (isolated nodes
        added or dropped) are not captured: deltas are about edges, and the
        similarity fixpoint never reads isolated nodes.
        """
        old_edges: Dict[Edge, EdgeStats] = {(q, a): s for q, a, s in old.edges()}
        added = []
        updated = []
        for query, ad, stats in new.edges():
            previous = old_edges.pop((query, ad), None)
            if previous is None:
                added.append((query, ad, stats))
            elif previous != stats:
                updated.append((query, ad, stats))
        removed = sorted(old_edges, key=repr)
        return cls(
            added=tuple(sorted(added, key=lambda edge: repr(edge[:2]))),
            updated=tuple(sorted(updated, key=lambda edge: repr(edge[:2]))),
            removed=tuple(removed),
        )

    def inverted(self, graph: ClickGraph) -> "ClickGraphDelta":
        """The delta that undoes this one, captured against ``graph``.

        ``graph`` must be the *pre-apply* state (updated/removed edges still
        present with their old statistics, added edges absent) -- applying
        this delta and then the returned inverse restores that state's
        *edge set* exactly.  Nodes are never deleted (deltas are about
        edges, and :meth:`ClickGraph.remove_edge` keeps endpoints), so
        endpoints introduced by this delta survive the round trip as
        isolated nodes -- invisible to the similarity fixpoint, which never
        reads zero-degree nodes.  This is the rollback primitive of
        :meth:`repro.api.engine.RewriteEngine.refresh`, which must not
        leave the bound graph's edges mutated when the refit after it
        fails.
        """
        inverse_removed = tuple((query, ad) for query, ad, _ in self.added)
        inverse_updated = []
        inverse_added = []
        for query, ad, _ in self.updated:
            stats = graph.edge(query, ad)
            if stats is None:
                raise ValueError(
                    f"cannot invert: updated edge ({query!r}, {ad!r}) is not "
                    "in the graph -- invert against the pre-apply state"
                )
            inverse_updated.append((query, ad, stats))
        for query, ad in self.removed:
            stats = graph.edge(query, ad)
            if stats is None:
                raise ValueError(
                    f"cannot invert: removed edge ({query!r}, {ad!r}) is not "
                    "in the graph -- invert against the pre-apply state"
                )
            inverse_added.append((query, ad, stats))
        return ClickGraphDelta(
            added=tuple(inverse_added),
            updated=tuple(inverse_updated),
            removed=inverse_removed,
        )

    # ------------------------------------------------------------------ apply

    def apply_to(self, graph: ClickGraph) -> ClickGraph:
        """Apply the delta to ``graph`` in place and return it.

        The whole delta is validated *before* the first mutation, so a
        mismatched delta (an "added" edge that already exists, an "updated"
        or "removed" edge that does not) raises :class:`ValueError` and
        leaves the graph untouched -- never half-applied.
        """
        for query, ad, _ in self.added:
            if graph.has_edge(query, ad):
                raise ValueError(
                    f"delta adds edge ({query!r}, {ad!r}) which already exists; "
                    "capture the delta against the graph it is applied to"
                )
        for group in (self.updated, ((q, a, None) for q, a in self.removed)):
            for query, ad, _ in group:
                if not graph.has_edge(query, ad):
                    raise ValueError(
                        f"delta changes edge ({query!r}, {ad!r}) which is not in "
                        "the graph; capture the delta against the graph it is "
                        "applied to"
                    )
        for query, ad, stats in self.added:
            graph.add_edge_stats(query, ad, stats)
        for query, ad, stats in self.updated:
            graph.add_edge_stats(query, ad, stats)
        for query, ad in self.removed:
            graph.remove_edge(query, ad)
        return graph

    def __repr__(self) -> str:
        return (
            f"ClickGraphDelta(added={len(self.added)}, "
            f"updated={len(self.updated)}, removed={len(self.removed)})"
        )


class DeltaBuilder:
    """Accumulate edge events against a base graph and build one delta.

    The streaming capture path: hold the graph the serving engine was fitted
    on, record click-log events as they arrive, and :meth:`build` the delta
    once per refresh interval::

        builder = DeltaBuilder(fitted_graph)
        builder.set_edge("camera", "hp.com", impressions=120, clicks=14)
        builder.remove_edge("flowers", "stale-ad.com")
        engine.refresh(builder.build())

    Events are reconciled against the base graph at build time: setting an
    edge back to its original statistics cancels out, a set followed by a
    remove collapses to a remove, and so on -- the built delta is always
    minimal and valid for the base graph.
    """

    def __init__(self, base: ClickGraph) -> None:
        self._base = base
        #: Target statistics per touched edge; ``None`` marks a removal.
        self._pending: Dict[Edge, Optional[EdgeStats]] = {}

    def set_edge(
        self,
        query: Node,
        ad: Node,
        impressions: int = 1,
        clicks: int = 1,
        expected_click_rate: Optional[float] = None,
    ) -> "DeltaBuilder":
        """Record that the edge's statistics are now these values."""
        stats = EdgeStats(
            impressions=impressions,
            clicks=clicks,
            expected_click_rate=-1.0 if expected_click_rate is None else expected_click_rate,
        )
        return self.set_edge_stats(query, ad, stats)

    def set_edge_stats(self, query: Node, ad: Node, stats: EdgeStats) -> "DeltaBuilder":
        """Record an edge's new statistics as an :class:`EdgeStats` instance."""
        self._pending[(query, ad)] = stats
        return self

    def merge_edge(self, query: Node, ad: Node, stats: EdgeStats) -> "DeltaBuilder":
        """Fold a new observation into the edge's pending (or base) statistics.

        Mirrors ``add_edge(..., merge=True)``: impressions and clicks add up,
        the expected click rate combines impression-weighted.  After a
        recorded :meth:`remove_edge`, the observation starts the edge fresh
        -- it must not merge with (and thereby resurrect) the removed
        statistics of the base graph.
        """
        if (query, ad) in self._pending:
            current = self._pending[(query, ad)]  # None after a removal
        else:
            current = self._base.edge(query, ad)
        if current is not None:
            stats = current.merged_with(stats)
        self._pending[(query, ad)] = stats
        return self

    def remove_edge(self, query: Node, ad: Node) -> "DeltaBuilder":
        """Record that the edge is gone."""
        self._pending[(query, ad)] = None
        return self

    def build(self) -> ClickGraphDelta:
        """The minimal delta for everything recorded since construction.

        Recorded events that end up matching the base graph (an edge set
        back to its original statistics, a removal of an edge the base never
        had) drop out entirely.
        """
        added = []
        updated = []
        removed = []
        for (query, ad), stats in self._pending.items():
            before = self._base.edge(query, ad)
            if stats is None:
                if before is not None:
                    removed.append((query, ad))
            elif before is None:
                added.append((query, ad, stats))
            elif before != stats:
                updated.append((query, ad, stats))
        return ClickGraphDelta(
            added=tuple(sorted(added, key=lambda edge: repr(edge[:2]))),
            updated=tuple(sorted(updated, key=lambda edge: repr(edge[:2]))),
            removed=tuple(sorted(removed, key=repr)),
        )

    def __repr__(self) -> str:
        return f"DeltaBuilder(pending={len(self._pending)})"
