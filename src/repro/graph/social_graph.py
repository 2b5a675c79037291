"""Weighted social graph stored in main-memory hash tables.

The paper (Section 6) stores the social network in "two main-memory hash
tables where the user IDs are used as keys.  In the social hash table, for
each user there is an adjacency list of pairs (friend id, edge weight)."
:class:`SocialGraph` reproduces that layout: a dict keyed by user id whose
values are dicts mapping friend id to edge weight.  The companion location
table lives in :mod:`repro.apps.lagp`.

The graph is undirected: an edge ``(u, v, w)`` is visible from both
endpoints.  Directed inputs (e.g. Twitter "follow" edges, mentioned in the
paper's introduction) are supported through
:meth:`SocialGraph.from_directed_edges`, which symmetrizes them, since the
RMGP game only ever consumes the *neighborhood* ``adj(v)`` of a player.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import GraphError

NodeId = Hashable
Edge = Tuple[NodeId, NodeId, float]


class SocialGraph:
    """Undirected, weighted social graph over hashable user ids.

    Parameters
    ----------
    nodes:
        Optional iterable of node ids to pre-insert (isolated until edges
        are added).

    Notes
    -----
    Self-loops are rejected: a user cannot be his own friend, and a
    self-loop would distort the social cost of Equation 3.  Edge weights
    must be positive; the paper uses weights to denote "the strength of
    social connections", and a zero/negative strength edge is equivalent
    to no edge at all (and would break the potential-game analysis).
    """

    def __init__(self, nodes: Optional[Iterable[NodeId]] = None) -> None:
        self._adj: Dict[NodeId, Dict[NodeId, float]] = (
            {} if nodes is None else {node: {} for node in nodes}
        )
        self._num_edges = 0
        self._total_weight = 0.0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[NodeId, NodeId] | Edge],
        nodes: Optional[Iterable[NodeId]] = None,
        default_weight: float = 1.0,
    ) -> "SocialGraph":
        """Build a graph from ``(u, v)`` or ``(u, v, w)`` tuples.

        Unweighted pairs receive ``default_weight`` (the paper's datasets
        use unit weights).  Duplicate edges keep the *last* weight seen.

        One bulk pass with :meth:`add_edge`'s exact effect, edge after
        edge: ``nodes`` first, then each new endpoint in order of first
        appearance; every adjacency dict in edge order; the same
        :class:`GraphError` on a self-loop or non-positive weight; and
        the total weight summed in the same order.
        """
        graph = cls(nodes)
        adj = graph._adj
        num_edges = 0
        total = 0.0
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                w = default_weight
            else:
                u, v, w = edge  # type: ignore[misc]
            if u == v:
                raise GraphError(f"self-loop on node {u!r}")
            if w <= 0:
                raise GraphError(f"edge ({u!r}, {v!r}) has non-positive weight {w}")
            u_nbrs = adj.setdefault(u, {})
            v_nbrs = adj.setdefault(v, {})
            previous = u_nbrs.get(v)
            if previous is None:
                num_edges += 1
            else:
                total -= previous
            u_nbrs[v] = w
            v_nbrs[u] = w
            total += w
        graph._num_edges = num_edges
        graph._total_weight = total
        return graph

    @classmethod
    def from_directed_edges(
        cls,
        edges: Iterable[Edge],
        combine: str = "sum",
    ) -> "SocialGraph":
        """Symmetrize a directed edge list into an undirected graph.

        ``combine`` decides the undirected weight when both ``u -> v`` and
        ``v -> u`` exist: ``"sum"`` adds them, ``"max"``/``"min"`` keep an
        extremum, and ``"mean"`` averages.  A one-directional edge simply
        keeps its weight.
        """
        combiners: Dict[str, Callable[[float, float], float]] = {
            "sum": lambda a, b: a + b,
            "max": max,
            "min": min,
            "mean": lambda a, b: (a + b) / 2.0,
        }
        if combine not in combiners:
            raise GraphError(f"unknown combine mode: {combine!r}")
        merge = combiners[combine]

        seen: Dict[Tuple[NodeId, NodeId], float] = {}
        for u, v, w in edges:
            if u == v:
                raise GraphError(f"self-loop on node {u!r}")
            key = (u, v) if _orderable_lt(u, v) else (v, u)
            seen[key] = merge(seen[key], w) if key in seen else w

        graph = cls()
        for (u, v), w in seen.items():
            graph.add_edge(u, v, w)
        return graph

    def copy(self) -> "SocialGraph":
        """Return a deep copy (adjacency dicts are duplicated)."""
        clone = SocialGraph()
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        return clone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Insert an isolated node; a no-op if it already exists."""
        self._adj.setdefault(node, {})

    def add_edge(self, u: NodeId, v: NodeId, weight: float = 1.0) -> None:
        """Insert (or overwrite) the undirected edge ``(u, v)``.

        Endpoints are created on demand.  Overwriting updates the stored
        total weight so that :meth:`total_edge_weight` stays exact.
        """
        if u == v:
            raise GraphError(f"self-loop on node {u!r}")
        if weight <= 0:
            raise GraphError(f"edge ({u!r}, {v!r}) has non-positive weight {weight}")
        self.add_node(u)
        self.add_node(v)
        previous = self._adj[u].get(v)
        if previous is None:
            self._num_edges += 1
        else:
            self._total_weight -= previous
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._total_weight += weight

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Delete the edge ``(u, v)``; raises ``GraphError`` if absent."""
        try:
            weight = self._adj[u].pop(v)
            del self._adj[v][u]
        except KeyError as exc:
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist") from exc
        self._num_edges -= 1
        self._total_weight -= weight

    def remove_node(self, node: NodeId) -> None:
        """Delete a node and all its incident edges."""
        if node not in self._adj:
            raise GraphError(f"node {node!r} does not exist")
        for neighbor in list(self._adj[node]):
            self.remove_edge(node, neighbor)
        del self._adj[node]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of users, |V|."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected friendships, |E|."""
        return self._num_edges

    def nodes(self) -> List[NodeId]:
        """All node ids, in insertion order."""
        return list(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate each undirected edge exactly once as ``(u, v, w)``."""
        visited = set()
        for u, nbrs in self._adj.items():
            visited.add(u)
            for v, w in nbrs.items():
                if v not in visited:
                    yield (u, v, w)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True when the undirected edge ``(u, v)`` exists."""
        return v in self._adj.get(u, ())

    def neighbors(self, node: NodeId) -> Dict[NodeId, float]:
        """Adjacency list of ``node``: a dict ``friend id -> weight``.

        This is the paper's ``adj(v)``.  The returned mapping is the live
        internal dict; callers must not mutate it.
        """
        try:
            return self._adj[node]
        except KeyError as exc:
            raise GraphError(f"node {node!r} does not exist") from exc

    def weight(self, u: NodeId, v: NodeId) -> float:
        """Weight of edge ``(u, v)``; raises ``GraphError`` if absent."""
        try:
            return self._adj[u][v]
        except KeyError as exc:
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist") from exc

    def degree(self, node: NodeId) -> int:
        """Number of friends of ``node``."""
        return len(self.neighbors(node))

    def weighted_degree(self, node: NodeId) -> float:
        """Sum of incident edge weights of ``node`` (2·W_v in Section 4.1)."""
        return sum(self.neighbors(node).values())

    def total_edge_weight(self) -> float:
        """Sum of all edge weights, each edge counted once."""
        return self._total_weight

    def average_degree(self) -> float:
        """``deg_avg = 2·|E| / |V|`` (0.0 for the empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def average_edge_weight(self) -> float:
        """``w_avg``: mean weight over edges (0.0 when there are none)."""
        if self._num_edges == 0:
            return 0.0
        return self._total_weight / self._num_edges

    def max_degree(self) -> int:
        """Largest degree, ``d_max`` (0 for the empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[NodeId]) -> "SocialGraph":
        """Induced subgraph on ``nodes``.

        Used for area-of-interest queries where "only the users who
        recently checked-in that area, and the corresponding induced
        sub-graph, are relevant" (Section 1).  Nodes and edges keep this
        graph's insertion order whatever the order (or hashing) of
        ``nodes``, so the same area query always yields the same
        instance row order.
        """
        keep = set(nodes)
        missing = keep - self._adj.keys()
        if missing:
            raise GraphError(f"nodes not in graph: {sorted(map(repr, missing))[:5]}")
        order = [node for node in self._adj if node in keep]
        sub = SocialGraph(order)
        for u in order:
            for v, w in self._adj[u].items():
                if v in keep and not sub.has_edge(u, v):
                    sub.add_edge(u, v, w)
        return sub

    def relabeled(self) -> Tuple["SocialGraph", Dict[NodeId, int]]:
        """Return a copy with nodes renamed ``0..n-1`` plus the id map."""
        mapping = {node: index for index, node in enumerate(self._adj)}
        clone = SocialGraph(range(len(mapping)))
        for u, v, w in self.edges():
            clone.add_edge(mapping[u], mapping[v], w)
        return clone, mapping

    def degree_ordered_nodes(self, descending: bool = True) -> List[NodeId]:
        """Nodes sorted by degree (ties broken by insertion order).

        Descending order implements the "community leaders first"
        heuristic of Section 3.1 (the ``+o`` variant of Section 6.3).
        """
        order = list(self._adj)
        ranks = {node: i for i, node in enumerate(order)}
        return sorted(order, key=lambda n: (-len(self._adj[n]) if descending else len(self._adj[n]), ranks[n]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SocialGraph(|V|={self.num_nodes}, |E|={self.num_edges})"


def _orderable_lt(a: NodeId, b: NodeId) -> bool:
    """Stable "less-than" for possibly heterogeneous node ids."""
    try:
        return a < b  # type: ignore[operator]
    except TypeError:
        return str(a) < str(b)
