"""RMGP_is — parallelism with independent strategies (Section 4.2, Figure 4).

Players that share no edge cannot affect each other's best responses, so
the players are grouped by a proper graph coloring and each color group
is processed "simultaneously".  Processing a group concurrently is
semantically identical to processing it sequentially (no two members are
adjacent), so correctness and convergence are untouched; in the paper's
multi-threaded implementation the benefit is wall-clock parallelism.

Here a group is one batched numpy computation instead of ``T`` threads
(which CPython's GIL starves):

* batch arrays come straight from the instance's CSR adjacency — one
  slice + ``np.concatenate`` per group instead of per-edge Python loops,
* ``costs = α · C[group] + maxSC[group, None]`` — a dense slice,
* one ``np.bincount`` on linearized ``(row, class)`` keys accumulates
  every member's friend refunds into a ``|group| x k`` matrix,
* a row-wise argmin with the keep-current-on-ties rule commits the whole
  group at once.

Rounds run on the shared dirty-frontier scheduler
(:class:`repro.core.dynamics.ActiveSet`): only the dirty members of each
group are evaluated, and a committed move marks exactly the mover's CSR
neighbor slice dirty.  :class:`GroupRoundLoop` runs RMGP_is and RMGP_vec
(the same rounds over coloring-ordered groups, without a sweep order);
the synchronous ablation evaluates all ``n`` players as one batch.

Results report a *model* critical path — the per-round work under ideal
``T``-way parallelism, ``Σ_groups ceil(|G_i| / T)`` players — which is
the quantity the paper's multi-threaded C++ implementation improves.
``threads=T`` only sets that model's ``T``; it starts no threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core import dynamics
from repro.core.exact import ExactPayload, exact_batched_moves, exact_payload
from repro.core.instance import RMGPInstance, concat_ranges
from repro.core.result import PartitionResult
from repro.errors import ConfigurationError, DataError
from repro.graph.coloring import color_groups, greedy_coloring, is_proper_coloring
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget


def groups_from_coloring(
    instance: RMGPInstance, coloring: Optional[Dict] = None
) -> List[List[int]]:
    """Translate a node coloring into index-space player groups.

    ``coloring`` maps user ids to colors; when omitted, a greedy coloring
    is computed (the paper computes the coloring off-line).
    """
    if coloring is None:
        coloring = greedy_coloring(instance.graph)
    elif not is_proper_coloring(instance.graph, coloring):
        raise ConfigurationError("supplied coloring is not proper for this graph")
    groups = color_groups(coloring)
    return [
        [instance.index_of[node] for node in group]
        for group in groups
        if group
    ]


def _solve_independent_sets(
    instance: RMGPInstance,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    coloring: Optional[Dict] = None,
    threads: int = 1,
    exact_scale: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run RMGP_is: best-response rounds sweeping color groups.

    Parameters
    ----------
    threads:
        Figure 4's thread count ``T``, used only for the model critical
        path in ``extra`` (``model_players_per_round``,
        ``model_speedup``).  No threads are started: groups run one
        after another and the result is identical for every ``T``.
    exact_scale:
        When set, best responses use Lemma 2 integer fixed-point
        arithmetic at this scale (exact and order-free; the trajectory
        may differ from the float path's).
    coloring:
        Optional pre-computed proper coloring (user id -> color).
    recorder:
        Telemetry sink; ``None`` uses the ambient recorder.
    """
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")
    return solve_group_rounds(
        "RMGP_is", instance,
        init=init, order=order, warm_start=warm_start, coloring=coloring,
        threads=threads, exact_scale=exact_scale,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )


def solve_group_rounds(
    name: str,
    instance: RMGPInstance,
    *,
    init: str,
    order: Optional[str],
    warm_start: Optional[np.ndarray],
    coloring: Optional[Dict],
    threads: Optional[int],
    exact_scale: Optional[int],
    **loop_options,
) -> PartitionResult:
    """Run :class:`GroupRoundLoop` as solver ``name``.

    ``order=None`` keeps the groups in coloring order and draws nothing
    from the RNG; ``threads=None`` leaves the model critical path out
    of ``extra``.  ``loop_options`` are :class:`dynamics.RoundLoop`'s.
    """
    loop = GroupRoundLoop(name, instance, **loop_options)
    loop.init_method, loop.warm_start, loop.coloring = init, warm_start, coloring
    loop.order, loop.threads = order, threads
    loop.exact = (
        exact_payload(instance, exact_scale)
        if exact_scale is not None
        else None
    )
    return loop.run(**({} if threads is None else {"threads": threads}))


def ordered_groups(
    instance: RMGPInstance, coloring: Optional[Dict], sweep: List[int]
) -> List[List[int]]:
    """Color groups with each group's members kept in ``sweep`` order."""
    rank = {p: i for i, p in enumerate(sweep)}
    return [
        sorted(group, key=rank.__getitem__)
        for group in groups_from_coloring(instance, coloring)
    ]


def checked_groups(
    groups, instance: RMGPInstance, count: Optional[int] = None
) -> List[List[int]]:
    """Checkpointed color groups, refused unless they partition the
    players (``count`` of them; default all ``n``) into independent
    sets: no edge may join two members of one group, whose batched
    best responses would otherwise chase each other."""
    n = instance.n
    groups = [[int(p) for p in group] for group in groups]
    dynamics.checked_players(
        [p for group in groups for p in group], n, "groups", count
    )
    group_of = np.full(n, -1, dtype=np.int64)
    for g, group in enumerate(groups):
        group_of[group] = g
    owner_group = group_of[instance.edge_owner]
    if np.any((owner_group >= 0) & (owner_group == group_of[instance.indices])):
        raise DataError("checkpoint groups must be independent sets of the graph")
    return groups


@dataclass
class GroupBatch:
    """Pre-flattened per-group arrays for the scatter step.

    ``row_positions[i]``/``neighbor_ids[i]``/``refunds[i]`` describe one
    (member, friend) incidence: the member's row inside the group batch,
    the friend's global player index, and the refund
    ``(1 − α) · ½ · w`` his strategy subtracts from that row.
    ``edge_ptr`` is the intra-batch CSR: member ``m``'s incidences occupy
    ``[edge_ptr[m], edge_ptr[m+1])``, which lets a round gather the
    frontier's incidences with one vectorized range concatenation.
    ``rows`` is the precomputed ``arange(len(members))``.
    """

    members: np.ndarray
    edge_ptr: np.ndarray
    row_positions: np.ndarray
    neighbor_ids: np.ndarray
    refunds: np.ndarray
    base_costs: np.ndarray  # alpha * C[group] + maxSC[group, None]
    rows: np.ndarray


def build_batches(
    instance: RMGPInstance, groups: List[List[int]]
) -> List[GroupBatch]:
    """One :class:`GroupBatch` per group, members in group order."""
    alpha = instance.alpha
    refund_scale = 1.0 - alpha  # applied to half_weights (already ½·w)
    dense = alpha * instance.cost.dense()
    degrees = instance.degrees()
    batches = []
    for group in groups:
        members = np.asarray(group, dtype=np.int64)
        counts = degrees[members]
        edge_ptr = np.zeros(len(group) + 1, dtype=np.int64)
        np.cumsum(counts, out=edge_ptr[1:])
        csr_slots = concat_ranges(instance.indptr[members], counts)
        rows = np.arange(len(group), dtype=np.int64)
        base = dense[members] + instance.max_social_cost[members][:, None]
        batches.append(
            GroupBatch(
                members=members,
                edge_ptr=edge_ptr,
                row_positions=np.repeat(rows, counts),
                neighbor_ids=instance.indices[csr_slots],
                refunds=refund_scale * instance.half_weights[csr_slots],
                base_costs=base,
                rows=rows,
            )
        )
    return batches


def batch_moves(
    instance: RMGPInstance,
    batch: GroupBatch,
    assignment: np.ndarray,
    sel: Optional[np.ndarray] = None,
) -> tuple:
    """Best responses of ``batch``'s members against ``assignment``.

    Evaluates every member, or only those at positions ``sel``, and
    returns ``(players, bests)`` for the ones that deviate, in member
    order; ties keep the current class.  Nothing is written: members
    must not read each other's strategies (a color group), or all must
    respond to the same snapshot (synchronous dynamics).
    """
    k = instance.k
    members = batch.members
    if sel is None or sel.size == len(members):
        # Fast path: the whole group is dirty (always true in round 1).
        rows = batch.rows
        row_positions = batch.row_positions
        neighbor_ids = batch.neighbor_ids
        refunds = batch.refunds
        base = batch.base_costs
        chosen = members
    else:
        counts = batch.edge_ptr[sel + 1] - batch.edge_ptr[sel]
        incidences = concat_ranges(batch.edge_ptr[sel], counts)
        rows = batch.rows[: sel.size]
        row_positions = np.repeat(rows, counts)
        neighbor_ids = batch.neighbor_ids[incidences]
        refunds = batch.refunds[incidences]
        base = batch.base_costs[sel]
        chosen = members[sel]
    costs = base.copy()
    if neighbor_ids.size:
        keys = row_positions * k + assignment[neighbor_ids]
        costs -= np.bincount(
            keys, weights=refunds, minlength=len(chosen) * k
        ).reshape(len(chosen), k)
    current = assignment[chosen]
    best = costs.argmin(axis=1)
    improves = (
        costs[rows, best] < costs[rows, current] - dynamics.DEVIATION_TOLERANCE
    ) & (best != current)
    return chosen[improves], best[improves]


def _frontier_round(
    instance: RMGPInstance,
    batch: GroupBatch,
    assignment: np.ndarray,
    active: dynamics.ActiveSet,
    exact: Optional[ExactPayload],
) -> tuple:
    """Evaluate one group's dirty members; returns (deviations, examined).

    Members are pairwise non-adjacent, so all best responses are computed
    against the same profile and committed together, mirroring Figure
    4's "wait for all threads to finish".  With an ``exact`` payload the
    moves come from the Lemma 2 integer kernel, which reads the CSR
    arrays directly.
    """
    members = batch.members
    sel = np.flatnonzero(active.flags[members])
    if sel.size == 0:
        return 0, 0
    chosen = members if sel.size == len(members) else members[sel]
    if exact is None:
        movers, best = batch_moves(instance, batch, assignment, sel)
    else:
        movers, best = exact_batched_moves(instance, exact, assignment, chosen)
    active.clear(chosen)
    if movers.size:
        assignment[movers] = best
        active.mark(instance.neighbors_of(movers))
    return int(movers.size), int(sel.size)


class GroupRoundLoop(dynamics.RoundLoop):
    """Figure 4: rounds sweep the color groups' frontiers, one batch each
    (float, or Lemma 2 integer under ``exact``)."""

    coloring: Optional[Dict] = None
    #: Within-group sweep order (:func:`dynamics.player_order`); ``None``
    #: keeps coloring order.
    order: Optional[str] = None
    #: Figure 4's ``T`` for the model critical path; ``None`` omits it.
    threads: Optional[int] = None
    exact: Optional[ExactPayload] = None

    def init(self, span) -> None:
        if self.order is None:
            self.groups = groups_from_coloring(self.instance, self.coloring)
        else:
            self.groups = ordered_groups(
                self.instance, self.coloring,
                dynamics.player_order(self.instance, self.order, self.rng),
            )
        self.assignment = self.initial_assignment()
        with self.rec.span("build_batches"):
            self.batches = build_batches(self.instance, self.groups)
        if span is not None:
            span.attrs["num_groups"] = len(self.groups)

    def restore(self, state) -> None:
        # The coloring is checkpointed (a caller-supplied coloring or
        # greedy tie-breaks need not be rebuilt identically); batch
        # arrays are pure functions of (instance, groups).
        self.groups = checked_groups(state["groups"], self.instance)
        self.batches = build_batches(self.instance, self.groups)

    def state(self):
        return {"groups": [[int(p) for p in g] for g in self.groups]}

    def step(self):
        deviations = 0
        examined = 0
        for batch in self.batches:
            moved, seen = _frontier_round(
                self.instance, batch, self.assignment, self.active, self.exact
            )
            deviations += moved
            examined += seen
        return deviations, examined, examined * self.instance.k

    def extra(self):
        extra = {"num_groups": len(self.groups)}
        if self.threads is not None:
            n = self.instance.n
            critical_path = sum(
                math.ceil(len(g) / self.threads) for g in self.groups
            )
            extra.update(
                threads=self.threads,
                model_players_per_round=critical_path,
                sequential_players_per_round=n,
                model_speedup=(n / critical_path) if critical_path else 1.0,
            )
        if self.exact is not None:
            extra["exact_scale"] = self.exact.scale
        return extra
