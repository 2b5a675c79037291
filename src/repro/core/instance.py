"""RMGP problem instances: graph + classes + costs + preference parameter.

An :class:`RMGPInstance` freezes one query — the induced social graph, the
query-time class set ``P``, the assignment-cost provider, and ``α`` — into
index space: players are ``0..n-1`` and classes ``0..k-1``, with
numpy-backed adjacency so that every solver round runs in
``O(k·|V| + |E|)`` vectorized work (Lemma 1).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Hashable, List, Sequence

import numpy as np

from repro.core.costs import CostProvider, as_cost_provider
from repro.errors import ConfigurationError, GraphError
from repro.graph.social_graph import NodeId, SocialGraph


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + counts[i])`` without a Python loop.

    The workhorse of frontier scheduling: given CSR slice starts and
    lengths it produces the flat positions of every (player, edge)
    incidence in one vectorized pass.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    nonzero = counts > 0
    if not nonzero.all():
        starts = starts[nonzero]
        counts = counts[nonzero]
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.ones(ends[-1], dtype=np.int64)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


class RMGPInstance:
    """One RMGP query over a social graph.

    Parameters
    ----------
    graph:
        The (already query-restricted) social graph.  For area-of-interest
        queries pass ``graph.subgraph(relevant_users)``.
    classes:
        The query-time class labels ``P`` (events, advertisements, ...).
    cost:
        Assignment costs: an ``n x k`` matrix aligned with
        ``graph.nodes()`` order, a :class:`~repro.core.costs.CostProvider`,
        or a callable ``row(player_index) -> length-k sequence``.
    alpha:
        Preference parameter ``α ∈ (0, 1)`` weighting assignment versus
        social cost (Equation 1).

    Attributes
    ----------
    node_ids:
        Player index -> original user id.
    indptr / indices / weights / half_weights:
        Flat CSR adjacency: player ``v``'s friends occupy
        ``indices[indptr[v]:indptr[v+1]]`` with matching edge weights
        (``half_weights`` pre-halves them for the ``½·w`` refunds).
        ``edge_owner`` holds the owning row of every CSR slot.  This is
        the only adjacency representation; scalar per-player code slices
        it directly.
    """

    def __init__(
        self,
        graph: SocialGraph,
        classes: Sequence[Hashable],
        cost: "np.ndarray | CostProvider | Callable[[int], Sequence[float]]",
        alpha: float = 0.5,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        classes = list(classes)
        if not classes:
            raise ConfigurationError("the class set P must be non-empty")
        if len(set(map(repr, classes))) != len(classes):
            raise ConfigurationError("class labels must be distinct")

        self.graph = graph
        self.classes = classes
        self.alpha = float(alpha)
        self.node_ids: List[NodeId] = graph.nodes()
        self.index_of: Dict[NodeId, int] = {
            node: i for i, node in enumerate(self.node_ids)
        }

        self.cost = self._aligned_cost(cost)
        self._build_adjacency()

    def _aligned_cost(self, cost) -> CostProvider:
        """``cost`` as a provider, checked against ``n`` and ``k``."""
        cost = as_cost_provider(
            cost, num_players=len(self.node_ids), num_classes=len(self.classes)
        )
        if cost.num_players != len(self.node_ids):
            raise ConfigurationError(
                f"cost has {cost.num_players} players, graph has {len(self.node_ids)}"
            )
        if cost.num_classes != len(self.classes):
            raise ConfigurationError(
                f"cost has {cost.num_classes} classes, P has {len(self.classes)}"
            )
        return cost

    # ------------------------------------------------------------------
    def _csr_buffer(self, name: str, size: int, dtype) -> np.ndarray:
        """A length-``size`` view into a capacity-managed scratch buffer.

        Mutation feeds rebuild the CSR layout once per batch; reallocating
        every flat array each time would dominate sustained churn.  Each
        named buffer therefore grows geometrically (1.5x + slack) and is
        never shrunk, so a long run of same-scale rebuilds performs zero
        allocations — the "bounded reallocation" contract of the
        streaming layer.  The returned view aliases the buffer: treat the
        published arrays as read-only snapshots that are refreshed (in
        place) by :meth:`rebuild_adjacency`.  Cloning (:meth:`_clone`)
        detaches the buffers from the published views, so views a clone
        shares are never overwritten; the next rebuild allocates afresh.
        """
        buffers = self.__dict__.setdefault("_csr_scratch", {})
        buffer = buffers.get(name)
        if buffer is None or buffer.size < size:
            capacity = max(size + (size >> 1), 8)
            buffer = np.empty(capacity, dtype=dtype)
            buffers[name] = buffer
        return buffer[:size]

    def _build_adjacency(self) -> None:
        """Build the CSR layout (see the class docstring) in one pass.

        All (owner, friend, weight) incidences are gathered into flat
        arrays and sorted once into canonical slot order, ascending
        neighbour index per row, so the layout is a pure function of the
        node order and edge *set*: a mutation stream and its inverse
        round-trip the arrays byte-identically.  ``indices``, ``weights``
        and ``half_weights`` reuse :meth:`_csr_buffer` storage.
        """
        node_ids, index_of = self.node_ids, self.index_of
        n = len(node_ids)
        rows = [self.graph.neighbors(node) for node in node_ids]
        degrees = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        num_slots = int(indptr[-1])
        try:
            friends = np.fromiter(
                map(index_of.__getitem__, chain.from_iterable(rows)),
                dtype=np.int64, count=num_slots,
            )
        except KeyError as exc:
            missing = exc.args[0]
            owner = next(
                node for node, row in zip(node_ids, rows) if missing in row
            )
            raise GraphError(
                f"edge {owner!r} -> {missing!r} dangles: the "
                "endpoint is not a node of the graph"
            ) from exc
        raw_weights = np.fromiter(
            chain.from_iterable(row.values() for row in rows),
            dtype=np.float64, count=num_slots,
        )
        if not np.isfinite(raw_weights).all():
            raise GraphError("edge weights must be finite (found NaN/inf)")
        if num_slots and raw_weights.min() < 0:
            raise GraphError("edge weights must be non-negative")

        self.indptr, self._degrees = indptr, degrees
        self.edge_owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
        # The (owner, friend) pairs are unique, so sorting the packed key
        # owner·n + friend (below n², well inside int64) gives the same
        # permutation as np.lexsort((friends, edge_owner)), several times
        # faster.
        order = np.argsort(self.edge_owner * n + friends, kind="stable")
        self.indices = np.take(
            friends, order, mode="clip",
            out=self._csr_buffer("indices", num_slots, np.int64),
        )
        self.weights = weights = np.take(
            raw_weights, order, mode="clip",
            out=self._csr_buffer("weights", num_slots, np.float64),
        )
        self.half_weights = np.multiply(
            weights, 0.5,
            out=self._csr_buffer("half_weights", num_slots, np.float64),
        )

        # W_v = ½·Σ_f w(v, f), summed per block of equal-degree rows:
        # numpy reduces each row of a 2-D block exactly like the 1-D
        # ``row.sum()`` of the definition, while ``bincount`` and
        # ``reduceat`` sum in other orders (last-ulp differences).
        half_strength = np.zeros(n, dtype=np.float64)
        by_degree = np.argsort(degrees, kind="stable")
        starts = np.flatnonzero(np.diff(degrees[by_degree], prepend=0))
        for players in np.split(by_degree, starts)[1:]:  # skip degree 0
            slots = indptr[players][:, None] + np.arange(degrees[players[0]])
            half_strength[players] = 0.5 * weights[slots].sum(axis=1)
        self._half_strength = half_strength
        # (1 - α)·W_v, the "all friends elsewhere" ceiling of Figure 3 line 3.
        self.max_social_cost = (1.0 - self.alpha) * half_strength

    def rebuild_adjacency(self) -> None:
        """Refresh the CSR layout after the underlying graph changed.

        Degree changes shift every downstream CSR slice, so the layout is
        rebuilt wholesale: one O(|V| + |E|) gather over the adjacency
        dicts plus an O(|E| log |E|) sort, cheap next to any re-solve.
        """
        self._build_adjacency()

    def update_edge_weight(self, u: NodeId, v: NodeId, weight: float) -> None:
        """Patch the weight of an *existing* edge without a layout rebuild.

        Degrees are unchanged by a weight overwrite, so the CSR slices
        stay valid: only the two slots of the edge (one per direction),
        the pre-halved copies, and both endpoints' ``half_strength`` /
        ``max_social_cost`` entries are touched — O(deg(u) + deg(v))
        against the O(|V| + |E|) of :meth:`rebuild_adjacency`.  The
        underlying :class:`SocialGraph` is updated too, keeping its
        stored totals exact.  Arrays shared with a clone are copied
        before the first write (see :meth:`_clone`).
        """
        weight = float(weight)
        if not np.isfinite(weight) or weight <= 0:
            raise GraphError(
                f"edge ({u!r}, {v!r}) weight must be positive and finite, "
                f"got {weight}"
            )
        if not self.graph.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        iu, iv = self.index_of[u], self.index_of[v]
        old = self.graph.weight(u, v)
        self.graph.add_edge(u, v, weight)  # overwrite keeps totals exact
        for name in self._WEIGHT_ARRAYS:
            array = getattr(self, name)
            if not array.flags.writeable:  # shared with a clone: copy first
                setattr(self, name, array.copy())
        for me, other in ((iu, iv), (iv, iu)):
            # Rows are in ascending neighbour order: binary-search the slot.
            start, stop = self.indptr[me : me + 2]
            slot = start + np.searchsorted(self.indices[start:stop], other)
            self.weights[slot] = weight
            self.half_weights[slot] = 0.5 * weight
            self._half_strength[me] += 0.5 * (weight - old)
            self.max_social_cost[me] = (
                (1.0 - self.alpha) * self._half_strength[me]
            )

    def neighbors_of(self, players: np.ndarray) -> np.ndarray:
        """Flat neighbor indices of ``players`` (CSR slice concatenation).

        The frontier-marking primitive: the result of a batch of moves is
        exactly this set becoming dirty for the next round.
        """
        players = np.asarray(players, dtype=np.int64)
        return self.indices[
            concat_ranges(self.indptr[players], self._degrees[players])
        ]

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of players, |V|."""
        return len(self.node_ids)

    @property
    def k(self) -> int:
        """Number of classes, |P|."""
        return len(self.classes)

    @property
    def half_strength(self) -> np.ndarray:
        """``W_v = Σ_f ½·w(v, f)`` per player (Section 4.1)."""
        return self._half_strength

    def degrees(self) -> np.ndarray:
        """Degree of each player, index-aligned.

        Memoized from the CSR ``indptr`` diffs; treat the returned array
        as read-only (it is refreshed by :meth:`rebuild_adjacency`).
        """
        return self._degrees

    # ------------------------------------------------------------------
    # α-independent solver inputs, memoized per resident graph
    def _memo(self, name: str, inputs: tuple, compute: Callable[[], object]):
        """``compute()``, reused while ``inputs`` are the same objects.

        The memo dict is shared with every :meth:`with_alpha` /
        :meth:`with_cost` clone.  An entry keeps its inputs alive and is
        only reused while each current input *is* the one it was
        computed from, so it never outlives a replacement of them:
        :meth:`rebuild_adjacency` publishes new ``indices`` and
        ``_degrees`` arrays, and a clone's own cost provider never
        matches its parent's.  Threads solving clones of one resident
        instance may both compute an entry: the values are equal, and
        the last write wins.
        """
        memo = self.__dict__.setdefault("_memos", {})
        entry = memo.get(name)
        if entry is not None and all(
            a is b for a, b in zip(entry[0], inputs)
        ):
            return entry[1]
        value = compute()
        memo[name] = (inputs, value)
        return value

    def slot_keys(self) -> np.ndarray:
        """``indices·k``: each CSR slot's linear key into row 0 of an
        ``n x k`` table (add ``friend_class`` and the flat index of
        ``table[friend, friend_class]`` follows).  Read-only."""
        k = self.k

        def compute():
            keys = self.indices * k
            keys.flags.writeable = False
            return keys

        return self._memo("slot_keys", (self.indices,), compute)

    def degree_order(self) -> List[int]:
        """Players by descending degree, ties by index (a fresh list).

        ``sorted(range(n), key=lambda v: (-degrees[v], v))`` in one
        ``np.lexsort``, memoized on the ``_degrees`` array it reads.
        """
        degrees = self._degrees
        order = self._memo(
            "degree_order", (degrees,),
            lambda: np.lexsort((np.arange(self.n), -degrees)).tolist(),
        )
        return list(order)

    def closest_classes(self) -> np.ndarray:
        """Each player's cheapest class, the first minimum of its cost row.

        Memoized only for a cost matrix that cannot be written in place
        (:attr:`CostProvider.read_only`): the incremental engine rewrites
        its own matrix row by row, so anything derived from a writable
        matrix is recomputed on every call.  Returns a fresh array.
        """
        cost = self.cost
        if self.n == 0:
            return np.empty(0, dtype=np.int64)

        def compute():
            return cost.dense().argmin(axis=1).astype(np.int64)

        if not cost.read_only:
            return compute()
        return self._memo("closest_classes", (cost,), compute).copy()

    def with_cost(self, cost: CostProvider) -> "RMGPInstance":
        """Clone this instance with a different cost provider.

        Used by normalization, which rescales assignment costs while the
        graph, classes and ``α`` stay fixed.  Costs never touch the CSR,
        so the clone shares every graph-derived array (see
        :meth:`_clone`), ``max_social_cost`` included.
        """
        cost = self._aligned_cost(cost)
        self.max_social_cost.flags.writeable = False
        clone = self._clone(cost, self.alpha)
        clone.max_social_cost = self.max_social_cost
        return clone

    def with_alpha(self, alpha: float) -> "RMGPInstance":
        """Clone this instance with a different preference parameter.

        ``α`` never touches adjacency: the clone shares the graph-derived
        arrays (see :meth:`_clone`) and computes only its own
        ``max_social_cost = (1 - α)·W``.
        """
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        clone = self._clone(self.cost, float(alpha))
        clone.max_social_cost = (1.0 - clone.alpha) * self._half_strength
        return clone

    #: Graph-derived arrays a clone shares with the instance it came from.
    _SHARED_ARRAYS = (
        "indptr", "indices", "weights", "half_weights", "edge_owner",
        "_degrees", "_half_strength",
    )
    #: The arrays :meth:`update_edge_weight` writes in place.
    _WEIGHT_ARRAYS = (
        "weights", "half_weights", "_half_strength", "max_social_cost",
    )

    def _clone(self, cost: CostProvider, alpha: float) -> "RMGPInstance":
        """A new instance over this one's graph, node order and CSR.

        Nothing is rebuilt: the clone shares ``graph``, ``classes``,
        ``node_ids``, ``index_of`` and the :attr:`_SHARED_ARRAYS` as they
        stand at the last (re)build.  The shared arrays become read-only
        on both sides, and this instance drops its scratch buffers (the
        clone never gets any), so a later :meth:`rebuild_adjacency` on
        either side allocates private arrays and
        :meth:`update_edge_weight` copies before it writes: neither side
        ever sees the other's write.
        """
        for name in self._SHARED_ARRAYS:
            getattr(self, name).flags.writeable = False
        self.__dict__.pop("_csr_scratch", None)
        clone = RMGPInstance.__new__(RMGPInstance)
        clone.graph, clone.classes = self.graph, self.classes
        clone.alpha, clone.cost = alpha, cost
        clone.node_ids, clone.index_of = self.node_ids, self.index_of
        for name in self._SHARED_ARRAYS:
            setattr(clone, name, getattr(self, name))
        clone._memos = self.__dict__.setdefault("_memos", {})
        return clone

    # ------------------------------------------------------------------
    def assignment_to_labels(
        self, assignment: np.ndarray
    ) -> Dict[NodeId, Hashable]:
        """Convert an index-space assignment to ``user id -> class label``."""
        self.validate_assignment(assignment)
        return {
            self.node_ids[i]: self.classes[assignment[i]] for i in range(self.n)
        }

    def labels_to_assignment(
        self, labels: Dict[NodeId, Hashable]
    ) -> np.ndarray:
        """Convert ``user id -> class label`` to an index-space vector."""
        class_index = {repr(c): j for j, c in enumerate(self.classes)}
        assignment = np.empty(self.n, dtype=np.int64)
        for node, label in labels.items():
            if node not in self.index_of:
                raise ConfigurationError(f"unknown user {node!r}")
            key = repr(label)
            if key not in class_index:
                raise ConfigurationError(f"unknown class {label!r}")
            assignment[self.index_of[node]] = class_index[key]
        if len(labels) != self.n:
            raise ConfigurationError(
                f"labels cover {len(labels)} of {self.n} players"
            )
        return assignment

    def validate_assignment(self, assignment: np.ndarray) -> None:
        """Raise unless ``assignment`` is a complete, in-range strategy vector."""
        assignment = np.asarray(assignment)
        if assignment.shape != (self.n,):
            raise ConfigurationError(
                f"assignment has shape {assignment.shape}, expected ({self.n},)"
            )
        if self.n and (assignment.min() < 0 or assignment.max() >= self.k):
            raise ConfigurationError("assignment contains out-of-range classes")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RMGPInstance(n={self.n}, k={self.k}, alpha={self.alpha}, "
            f"|E|={self.graph.num_edges})"
        )
