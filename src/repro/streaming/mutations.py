"""The typed mutation algebra over RMGP instances.

Six mutation kinds cover the churn the paper describes (Section 1):
friendships form/dissolve/re-weight (:class:`AddEdge` /
:class:`RemoveEdge`), users enter/leave the query region
(:class:`AddVertex` / :class:`RemoveVertex`), a check-in changes a
user's assignment costs (:class:`UpdateCostRow`), and the query's
preference parameter drifts (:class:`AlphaDrift`).

Every mutation supports two application paths:

* ``apply_to(engine)`` — patch a live
  :class:`~repro.core.incremental.IncrementalRMGP` in place (table +
  dirty frontier updated incrementally; the engine defers CSR rebuilds
  inside :meth:`~repro.core.incremental.IncrementalRMGP.batch`).  The
  engine never imports this module — mutations are duck-typed — so the
  core package stays free of streaming dependencies.
* :func:`apply_mutations` — the *pure* path: build a fresh
  :class:`~repro.core.instance.RMGPInstance` with the mutations applied,
  leaving the input untouched.  This is the from-scratch side of the
  differential harness and the pre-apply fallback
  ``partition(..., mutations=...)`` uses for solvers without native
  mutation support.

and an inverse: ``mutation.invert(instance)`` returns the mutation that
undoes it, *computed against the pre-application instance* (an inverse
must capture the state the mutation destroys — the old weight, the
departed vertex's cost row and friendships, the previous α).  Because
the CSR layout is canonical (ascending neighbor index, see
:meth:`RMGPInstance._build_adjacency`), ``apply → invert`` round-trips
the flat adjacency arrays byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.costs import MatrixCost
from repro.core.instance import RMGPInstance
from repro.errors import ConfigurationError, GraphError
from repro.graph.social_graph import NodeId, SocialGraph


class Mutation:
    """Base class: one atomic change to an RMGP instance."""

    #: node ids whose neighborhoods a feed should seed into the dirty
    #: frontier after applying this mutation (empty for global changes).
    def touched(self) -> Tuple[NodeId, ...]:
        return ()

    def apply_to(self, engine) -> None:
        """Patch a live :class:`IncrementalRMGP` in place."""
        raise NotImplementedError

    def _apply_state(self, state: "_MutationState") -> None:
        """Apply to the pure rolling state (:func:`apply_mutations`)."""
        raise NotImplementedError

    def invert(self, instance: RMGPInstance) -> "Mutation":
        """The undo mutation, computed against the *pre-apply* instance."""
        raise NotImplementedError


class _MutationState:
    """Mutable scratch the pure path applies mutations to.

    Holds exactly what an :class:`RMGPInstance` freezes: the graph, the
    node order, per-node cost rows, and α.  :meth:`freeze` re-freezes it
    — rebuilding the graph in ``node_ids`` insertion order so the
    resulting CSR layout is deterministic.
    """

    def __init__(
        self,
        graph: SocialGraph,
        node_ids: List[NodeId],
        rows: Dict[NodeId, np.ndarray],
        classes: Sequence,
        alpha: float,
    ) -> None:
        self.graph = graph
        self.node_ids = node_ids
        self.rows = rows
        self.classes = classes
        self.alpha = alpha

    @classmethod
    def from_instance(cls, instance: RMGPInstance) -> "_MutationState":
        matrix = instance.cost.view()
        return cls(
            graph=instance.graph.copy(),
            node_ids=list(instance.node_ids),
            rows={
                node: matrix[i].copy()
                for i, node in enumerate(instance.node_ids)
            },
            classes=instance.classes,
            alpha=instance.alpha,
        )

    @property
    def k(self) -> int:
        return len(self.classes)

    def require_node(self, node: NodeId) -> None:
        if node not in self.rows:
            raise ConfigurationError(f"unknown user {node!r}")

    def freeze(self) -> RMGPInstance:
        ordered = SocialGraph(self.node_ids)
        for u, v, w in self.graph.edges():
            ordered.add_edge(u, v, w)
        if self.node_ids:
            matrix = np.vstack([self.rows[node] for node in self.node_ids])
        else:
            matrix = np.empty((0, self.k), dtype=np.float64)
        return RMGPInstance(
            ordered, self.classes, MatrixCost(matrix), alpha=self.alpha
        )


def _as_row(row: Sequence[float], k: int) -> Tuple[float, ...]:
    values = tuple(float(c) for c in row)
    if len(values) != k:
        raise ConfigurationError(f"cost row must have length {k}")
    return values


@dataclass(frozen=True)
class AddEdge(Mutation):
    """A friendship forms — or an existing one changes strength."""

    u: NodeId
    v: NodeId
    weight: float = 1.0

    def touched(self) -> Tuple[NodeId, ...]:
        return (self.u, self.v)

    def apply_to(self, engine) -> None:
        engine.add_edge(self.u, self.v, self.weight)

    def _apply_state(self, state: _MutationState) -> None:
        state.require_node(self.u)
        state.require_node(self.v)
        state.graph.add_edge(self.u, self.v, self.weight)

    def invert(self, instance: RMGPInstance) -> Mutation:
        if instance.graph.has_edge(self.u, self.v):
            return AddEdge(self.u, self.v, instance.graph.weight(self.u, self.v))
        return RemoveEdge(self.u, self.v)


@dataclass(frozen=True)
class RemoveEdge(Mutation):
    """A friendship dissolves."""

    u: NodeId
    v: NodeId

    def touched(self) -> Tuple[NodeId, ...]:
        return (self.u, self.v)

    def apply_to(self, engine) -> None:
        engine.remove_edge(self.u, self.v)

    def _apply_state(self, state: _MutationState) -> None:
        state.graph.remove_edge(self.u, self.v)

    def invert(self, instance: RMGPInstance) -> Mutation:
        return AddEdge(self.u, self.v, instance.graph.weight(self.u, self.v))


@dataclass(frozen=True)
class AddVertex(Mutation):
    """A user enters the query region.

    ``index`` pins the player's position in the node order; ``None``
    appends.  The live-engine path only ever appends (existing player
    indices must stay stable for the table/assignment arrays), so a
    non-``None`` index there must equal ``engine.instance.n`` — the pure
    path honors arbitrary positions, which is what lets
    :meth:`RemoveVertex.invert` restore the original node order exactly.
    """

    node: NodeId
    cost_row: Tuple[float, ...]
    edges: Tuple[Tuple[NodeId, float], ...] = ()
    index: Optional[int] = None

    def touched(self) -> Tuple[NodeId, ...]:
        return (self.node,) + tuple(friend for friend, _ in self.edges)

    def apply_to(self, engine) -> None:
        if self.index is not None and self.index != engine.instance.n:
            raise ConfigurationError(
                f"the live engine appends new players (index "
                f"{engine.instance.n}); cannot insert at {self.index} — "
                "positioned inserts are a pure-path (replay) feature"
            )
        engine.add_vertex(self.node, list(self.cost_row), list(self.edges))

    def _apply_state(self, state: _MutationState) -> None:
        if self.node in state.rows:
            raise ConfigurationError(f"user {self.node!r} already exists")
        row = np.asarray(
            _as_row(self.cost_row, state.k), dtype=np.float64
        )
        if row.size and (row.min() < 0 or not np.isfinite(row).all()):
            raise ConfigurationError("costs must be finite and non-negative")
        for friend, _ in self.edges:
            if friend == self.node:
                raise GraphError(f"self-loop on node {self.node!r}")
            state.require_node(friend)
        state.graph.add_node(self.node)
        for friend, w in self.edges:
            state.graph.add_edge(self.node, friend, w)
        position = len(state.node_ids) if self.index is None else self.index
        if not 0 <= position <= len(state.node_ids):
            raise ConfigurationError(
                f"insert index {position} out of range for "
                f"{len(state.node_ids)} players"
            )
        state.node_ids.insert(position, self.node)
        state.rows[self.node] = row

    def invert(self, instance: RMGPInstance) -> Mutation:
        return RemoveVertex(self.node)


@dataclass(frozen=True)
class RemoveVertex(Mutation):
    """A user leaves the query region; its friendships dissolve with it."""

    node: NodeId

    def touched(self) -> Tuple[NodeId, ...]:
        return (self.node,)

    def apply_to(self, engine) -> None:
        engine.remove_vertex(self.node)

    def _apply_state(self, state: _MutationState) -> None:
        state.require_node(self.node)
        state.graph.remove_node(self.node)
        state.node_ids.remove(self.node)
        del state.rows[self.node]

    def invert(self, instance: RMGPInstance) -> Mutation:
        index = instance.index_of.get(self.node)
        if index is None:
            raise ConfigurationError(f"unknown user {self.node!r}")
        return AddVertex(
            node=self.node,
            cost_row=tuple(float(c) for c in instance.cost.row(index)),
            edges=tuple(
                (friend, float(w))
                for friend, w in instance.graph.neighbors(self.node).items()
            ),
            index=index,
        )


@dataclass(frozen=True)
class UpdateCostRow(Mutation):
    """A user's assignment-cost row changes (e.g. after a check-in)."""

    node: NodeId
    cost_row: Tuple[float, ...]

    def touched(self) -> Tuple[NodeId, ...]:
        return (self.node,)

    def apply_to(self, engine) -> None:
        engine.update_player_costs(self.node, list(self.cost_row))

    def _apply_state(self, state: _MutationState) -> None:
        state.require_node(self.node)
        row = np.asarray(
            _as_row(self.cost_row, state.k), dtype=np.float64
        )
        if row.size and (row.min() < 0 or not np.isfinite(row).all()):
            raise ConfigurationError("costs must be finite and non-negative")
        state.rows[self.node] = row

    def invert(self, instance: RMGPInstance) -> Mutation:
        index = instance.index_of.get(self.node)
        if index is None:
            raise ConfigurationError(f"unknown user {self.node!r}")
        return UpdateCostRow(
            self.node, tuple(float(c) for c in instance.cost.row(index))
        )


@dataclass(frozen=True)
class AlphaDrift(Mutation):
    """The preference parameter α drifts to a new value."""

    alpha: float

    def apply_to(self, engine) -> None:
        engine.set_alpha(self.alpha)

    def _apply_state(self, state: _MutationState) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(
                f"alpha must be in (0, 1), got {self.alpha}"
            )
        state.alpha = float(self.alpha)

    def invert(self, instance: RMGPInstance) -> Mutation:
        return AlphaDrift(instance.alpha)


# ----------------------------------------------------------------------
def apply_mutations(
    instance: RMGPInstance, mutations: Sequence[Mutation]
) -> RMGPInstance:
    """Pure application: a fresh instance with ``mutations`` applied in order.

    The input instance is never touched.  The result's node order is the
    input's with appends/inserts/removals applied, and its CSR layout is
    canonical — so equal (node order, edge set, rows, α) means
    byte-equal flat arrays.
    """
    state = _MutationState.from_instance(instance)
    for mutation in mutations:
        mutation._apply_state(state)
    return state.freeze()


def invert_stream(
    instance: RMGPInstance, mutations: Sequence[Mutation]
) -> Tuple[List[Mutation], RMGPInstance]:
    """Inverses of a whole stream, plus the mutated instance.

    Returns ``(inverses, mutated)`` where ``inverses`` undo
    ``mutations`` when applied *in the returned (already reversed)
    order* to ``mutated``::

        inverses, mutated = invert_stream(instance, stream)
        restored = apply_mutations(mutated, inverses)   # == instance

    Each inverse is computed against the prefix state it will see during
    the undo, which requires replaying the stream once — O(len(stream))
    pure applications.
    """
    inverses: List[Mutation] = []
    current = instance
    for mutation in mutations:
        inverses.append(mutation.invert(current))
        current = apply_mutations(current, [mutation])
    inverses.reverse()
    return inverses, current


# ----------------------------------------------------------------------
#: default mix of mutation kinds for random streams (weights):
#: mostly edge churn + check-ins, occasional vertex churn and α drift —
#: the workload shape Section 1 describes.
DEFAULT_MUTATION_WEIGHTS: Dict[str, float] = {
    "add_edge": 4.0,
    "remove_edge": 3.0,
    "update_costs": 4.0,
    "add_vertex": 1.5,
    "remove_vertex": 1.0,
    "alpha_drift": 0.5,
}

#: random streams never shrink an instance below this many players —
#: churn should stress the dynamics, not degenerate to the empty game.
MIN_STREAM_PLAYERS = 4

#: cost floor for generated rows: strictly positive costs keep the
#: price-of-anarchy bound finite (a zero-cost class makes it vacuous),
#: which the differential harness's cost comparisons rely on.
COST_FLOOR = 0.05


def random_mutation_stream(
    instance: RMGPInstance,
    count: int,
    seed: int = 0,
    weights: Optional[Dict[str, float]] = None,
) -> List[Mutation]:
    """A reproducible, *valid-in-sequence* random mutation stream.

    Each mutation is generated against the rolling post-prefix state, so
    the stream always applies cleanly (no dangling edges, no duplicate
    vertices).  ``seed`` pins the stream exactly; ``weights`` reshapes
    the kind mix (see :data:`DEFAULT_MUTATION_WEIGHTS`).
    """
    rng = random.Random(seed)
    weights = dict(weights or DEFAULT_MUTATION_WEIGHTS)
    kinds = sorted(weights)
    state = _MutationState.from_instance(instance)
    stream: List[Mutation] = []
    fresh = 0
    while len(stream) < count:
        kind = rng.choices(kinds, [weights[k] for k in kinds])[0]
        mutation = _random_mutation(kind, state, rng, fresh)
        if mutation is None:
            continue
        if isinstance(mutation, AddVertex):
            fresh += 1
        mutation._apply_state(state)
        stream.append(mutation)
    return stream


def _random_mutation(
    kind: str, state: _MutationState, rng: random.Random, fresh: int
) -> Optional[Mutation]:
    nodes = state.node_ids
    if kind == "add_edge" and len(nodes) >= 2:
        u, v = rng.sample(nodes, 2)
        return AddEdge(u, v, round(rng.uniform(0.5, 2.5), 3))
    if kind == "remove_edge":
        edges = list(state.graph.edges())
        if not edges:
            return None
        u, v, _ = edges[rng.randrange(len(edges))]
        return RemoveEdge(u, v)
    if kind == "update_costs" and nodes:
        node = nodes[rng.randrange(len(nodes))]
        row = tuple(
            round(rng.uniform(COST_FLOOR, 1.0), 4) for _ in range(state.k)
        )
        return UpdateCostRow(node, row)
    if kind == "add_vertex":
        node = f"churn-{fresh}"
        while node in state.rows:
            fresh += 1
            node = f"churn-{fresh}"
        row = tuple(
            round(rng.uniform(COST_FLOOR, 1.0), 4) for _ in range(state.k)
        )
        degree = min(len(nodes), rng.randint(0, 3))
        friends = rng.sample(nodes, degree) if degree else []
        return AddVertex(
            node,
            row,
            tuple((f, round(rng.uniform(0.5, 2.0), 3)) for f in friends),
        )
    if kind == "remove_vertex" and len(nodes) > MIN_STREAM_PLAYERS:
        return RemoveVertex(nodes[rng.randrange(len(nodes))])
    if kind == "alpha_drift":
        return AlphaDrift(round(rng.uniform(0.2, 0.8), 3))
    return None
