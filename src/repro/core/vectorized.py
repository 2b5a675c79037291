"""RMGP_vec — numpy-vectorized best responses over color groups.

Semantically this is RMGP_is (Section 4.2): players of one color group
are pairwise non-adjacent, so their best responses against the current
profile are independent and may be computed *simultaneously*.  Instead of
threads (which CPython's GIL starves), the whole group is evaluated as
one batched numpy computation:

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
neighbor slice dirty.  Convergence and quality guarantees are exactly
RMGP_is's (same game, same schedule); only the constant factor changes —
this is the fastest pure-Python variant for large ``n``, and the
benchmark suite compares it against the scalar solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core import dynamics
from repro.core.independent_sets import checked_groups, groups_from_coloring
from repro.core.instance import RMGPInstance, concat_ranges
from repro.core.result import PartitionResult
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget


@dataclass


class _GroupBatch:
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


def _build_batches(
    instance: RMGPInstance, groups: List[List[int]]
) -> List[_GroupBatch]:
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
            _GroupBatch(
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


def _make_batches(
    instance: RMGPInstance, groups: List[List[int]], engine
) -> List:
    """Batches for the round loop: prebuilt incidence arrays on the pure
    path, bare member arrays when an engine runs the scatter (workers
    read the CSR arrays from shared memory, so prebuilding per-group
    incidence copies would be pure overhead)."""
    if engine is not None:
        return [np.asarray(group, dtype=np.int64) for group in groups]
    return _build_batches(instance, groups)


def _batch_frontier_round(
    instance: RMGPInstance,
    batch: _GroupBatch,
    assignment: np.ndarray,
    active: dynamics.ActiveSet,
    tol: float,
) -> tuple:
    """Evaluate one group's dirty members; returns (deviations, examined)."""
    k = instance.k
    members = batch.members
    sel = np.flatnonzero(active.flags[members])
    if sel.size == 0:
        return 0, 0
    if sel.size == len(members):
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
    improves = (costs[rows, best] < costs[rows, current] - tol) & (
        best != current
    )
    active.clear(chosen)
    moved = int(improves.sum())
    if moved:
        movers = chosen[improves]
        assignment[movers] = best[improves]
        active.mark(instance.neighbors_of(movers))
    return moved, int(sel.size)


def _engine_frontier_round(
    instance: RMGPInstance,
    members: np.ndarray,
    assignment: np.ndarray,
    active: dynamics.ActiveSet,
    engine,
) -> tuple:
    """One group's dirty members evaluated on a parallel backend.

    Same frontier selection and commit protocol as
    :func:`_batch_frontier_round`; only the batch evaluation moves to the
    engine, whose chunked scatter is byte-identical to the bincount path
    (chunk keys never mix rows).  No prebuilt ``_GroupBatch`` is needed —
    the workers read the CSR arrays from shared memory.
    """
    sel = np.flatnonzero(active.flags[members])
    if sel.size == 0:
        return 0, 0
    chosen = members if sel.size == len(members) else members[sel]
    movers, best = engine.batched_moves(assignment, chosen)
    active.clear(chosen)
    if movers.size:
        assignment[movers] = best
        active.mark(instance.neighbors_of(movers))
    return int(movers.size), int(sel.size)


def _solve_vectorized(
    instance: RMGPInstance,
    init: str = "closest",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    coloring: Optional[Dict] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    exact_scale: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run the vectorized group-batched dynamics.

    Parameters mirror the RMGP_is solver's;
    player ordering inside a group is irrelevant (the batch is committed
    atomically), so there is no ``order`` knob.  Checkpoints store only
    the groups: batch arrays and per-round costs are pure functions of
    (instance, groups), so a resume rebuilds them bit-identically.

    ``backend``/``workers`` select a parallel execution backend
    (byte-identical assignments; see :mod:`repro.parallel`) and
    ``exact_scale`` switches the scatter to Lemma 2 integer fixed point.
    """
    loop = _VectorizedLoop(
        "RMGP_vec", instance,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    loop.init_method, loop.warm_start, loop.coloring = init, warm_start, coloring
    loop.attach_engine(backend, workers, exact_scale)
    return loop.run()


class _VectorizedLoop(dynamics.RoundLoop):
    """Group-batched frontier rounds (pure numpy or a parallel engine)."""

    def init(self, span) -> None:
        self.groups = groups_from_coloring(self.instance, self.coloring)
        self.assignment = self.initial_assignment()
        with self.rec.span("build_batches"):
            self.batches = _make_batches(self.instance, self.groups, self.engine)
        if span is not None:
            span.attrs["num_groups"] = len(self.groups)

    def restore(self, state) -> None:
        self.groups = checked_groups(state["groups"], self.instance.n)
        self.batches = _make_batches(self.instance, self.groups, self.engine)

    def state(self):
        return {"groups": [[int(p) for p in g] for g in self.groups]}

    def step(self):
        instance, assignment, active = self.instance, self.assignment, self.active
        engine = self.engine
        tol = dynamics.DEVIATION_TOLERANCE
        deviations = 0
        examined = 0
        for batch in self.batches:
            if engine is not None:
                if batch.size == 0:
                    continue
                moved, seen = _engine_frontier_round(
                    instance, batch, assignment, active, engine
                )
            else:
                if batch.members.size == 0:
                    continue
                moved, seen = _batch_frontier_round(
                    instance, batch, assignment, active, tol
                )
            deviations += moved
            examined += seen
        return deviations, examined, examined * instance.k

    def extra(self):
        extra = {"num_groups": len(self.groups)}
        extra.update(self.backend_info)
        return extra
