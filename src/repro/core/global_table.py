"""RMGP_gt — scheduling with a global table (Section 4.3, Figure 5).

A ``|V| x k`` table holds, for every player, the current total cost of
every strategy.  The table is built in one shot from the instance's CSR
adjacency (a single ``np.bincount`` scatter of all edge refunds), and the
round loop runs on the shared dirty-frontier scheduler
(:class:`repro.core.dynamics.ActiveSet`): a round only examines dirty
players, and when a player deviates he notifies his friends — exactly two
of each friend's table entries change (the old and new class) — and
marks them dirty.  The per-round cost therefore shrinks as the game
approaches equilibrium (Figure 12(c)).  The solver's rounds run on
:class:`BulkRounds`, which keeps every row's minimum up to date so a best
response is a lookup; :func:`table_round`, the per-player argmin round
it reproduces exactly, drives :class:`~repro.core.incremental.IncrementalRMGP`.

The trade-off is O(|V|·k) memory; combined with strategy elimination the
table can be restricted to each player's reduced strategy space, which is
what :mod:`repro.core.combined` does.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.errors import DataError
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget


def build_global_table(
    instance: RMGPInstance, assignment: np.ndarray
) -> np.ndarray:
    """The ``|V| x k`` table ``GT[v][p] = C_v(p, π_v)`` (Figure 5 lines 3-5).

    One dense pass: ``α·C + maxSC[:, None]`` minus a single bincount
    scatter of every refund ``(1 − α)·½·w`` onto the linearized
    ``(owner, friend's class)`` keys — no per-player Python loop.
    """
    n, k = instance.n, instance.k
    table = instance.alpha * instance.cost.dense()
    table += instance.max_social_cost[:, None]
    if instance.indices.size:
        assignment = np.asarray(assignment, dtype=np.int64)
        refunds = (1.0 - instance.alpha) * instance.half_weights
        keys = instance.edge_owner * k + assignment[instance.indices]
        table -= np.bincount(keys, weights=refunds, minlength=n * k).reshape(
            n, k
        )
    return table


def happiness(table: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Boolean flags: player's current strategy is within tolerance of best."""
    n = table.shape[0]
    current = table[np.arange(n), assignment]
    return current <= table.min(axis=1) + dynamics.DEVIATION_TOLERANCE


def table_round(
    instance: RMGPInstance,
    table: np.ndarray,
    assignment: np.ndarray,
    active: dynamics.ActiveSet,
    sweep: Iterable[int],
) -> Tuple[int, int]:
    """One frontier round of table-driven best responses (Figure 5 lines 6-15).

    The round :class:`repro.core.incremental.IncrementalRMGP` runs;
    :class:`BulkRounds`, which RMGP_gt and RMGP_all run, reproduces it
    byte for byte.  Returns ``(deviations, players_examined)``.
    """
    deviations = 0
    examined = 0
    half = (1.0 - instance.alpha) * 0.5
    tol = dynamics.DEVIATION_TOLERANCE
    flags = active.flags
    indices, weights = instance.indices, instance.weights
    indptr = instance.indptr.tolist()
    for player in sweep:
        if not flags[player]:
            continue
        flags[player] = False
        examined += 1
        row = table[player]
        current = int(assignment[player])
        best = int(row.argmin())
        if row[best] >= row[current] - tol:
            continue
        # Deviate and notify friends (Figure 5 lines 10-15): two entries
        # of each friend's row move by ½·w, one vectorized update.
        assignment[player] = best
        deviations += 1
        slots = slice(indptr[player], indptr[player + 1])
        idx, deltas = indices[slots], half * weights[slots]
        table[idx, best] -= deltas
        table[idx, current] += deltas
        flags[idx] = True
    return deviations, examined


def checked_table(value, expected: np.ndarray) -> np.ndarray:
    """A private copy of a checkpointed table, refused (``DataError``)
    unless it is ``expected``, the table rebuilt from the checkpointed
    assignment: a ±inf entry must be the same infinity, any other within
    ``1e-9·(1 + |x|)``; NaN never matches.  An edited entry would steer
    every later argmin."""
    table = dynamics.checked_array(value, expected.shape, np.float64, "table")
    with np.errstate(invalid="ignore"):
        close = np.abs(table - expected) <= 1e-9 * (1.0 + np.abs(expected))
    if not np.where(np.isinf(expected), table == expected, close).all():
        raise DataError(
            "checkpoint table is not the table of the checkpointed assignment"
        )
    return table


class BulkRounds:
    """:func:`table_round`'s schedule, without a row argmin per player.

    ``table_round`` pays a row ``argmin`` and a handful of numpy scalar
    reads for every examined player, mover or not.  This kernel takes
    one ``argmin(axis=1)`` over the whole table when it is created and
    then *maintains* every row's first minimum (column and value) as
    moves write the table:

    * a move lowers ``table[f, new]`` and raises ``table[f, old]`` for
      each friend ``f``; the lowered entry becomes the row's first
      minimum when it is smaller, or equal at a smaller column; raising
      the entry that *was* the first minimum marks the row stale;
    * an examined player decides from its maintained minimum, and a
      stale row is rescanned with the per-row ``argmin`` first.

    The outcome is byte-identical to ``table_round``: the maintained
    pair is exactly what ``row.argmin()`` and ``row[best]`` return,
    since ``argmin`` returns the first minimum and no other entry of
    the row changed, and the decision is the same
    ``row[best] >= row[current] - tol`` comparison.  Moves write the
    same element-wise ``x - ½·(1 − α)·w`` and ``x + ½·(1 − α)·w``
    through a flat view of the table, with the per-graph linear keys
    ``indices·k`` (:meth:`RMGPInstance.slot_keys`).  The round walks
    the sweep with the flags in a ``bytearray`` and writes them back to
    the :class:`~repro.core.dynamics.ActiveSet` as it ends, so every
    round boundary sees the state ``table_round`` leaves.

    The table must change only through this kernel while it is in use.
    The comparisons assume every row minimum is finite; a table with a
    non-finite row minimum (overflowing inputs) runs on ``table_round``.
    """

    def __init__(
        self, instance: RMGPInstance, table: np.ndarray, sweep: Sequence[int]
    ) -> None:
        if not table.flags.c_contiguous:
            raise ValueError("the table must be C-contiguous")
        n = instance.n
        self.instance, self.table = instance, table
        self.flat = table.reshape(-1)  # a view: moves write through
        best = table.argmin(axis=1)
        #: Each row's minimum, ``table.min(axis=1)`` read through argmin.
        self.row_min = table[np.arange(n), best]
        self.finite = bool(np.isfinite(self.row_min).all())
        self.best, self.mins = best.tolist(), self.row_min.tolist()
        self.stale = bytearray(n)
        self.sweep = sweep
        self.indptr = instance.indptr.tolist()
        self.keys = instance.slot_keys()
        half = (1.0 - instance.alpha) * 0.5
        self.deltas = half * instance.weights

    def __call__(
        self, assignment: np.ndarray, active: dynamics.ActiveSet
    ) -> Tuple[int, int]:
        """One round; returns ``(deviations, players_examined)``."""
        table, flat = self.table, self.flat
        if not self.finite:
            return table_round(
                self.instance, table, assignment, active, self.sweep
            )
        # ``item`` reads an entry as a Python float: the same double,
        # cheaper arithmetic than a numpy scalar.
        entry = flat.item
        tol = dynamics.DEVIATION_TOLERANCE
        k = table.shape[1]
        best, mins, stale = self.best, self.mins, self.stale
        indptr, indices = self.indptr, self.instance.indices
        keys, deltas = self.keys, self.deltas
        flags = bytearray(active.flags)
        current_of = assignment.tolist()
        deviations = 0
        examined = 0
        for player in self.sweep:
            if not flags[player]:
                continue
            flags[player] = 0
            examined += 1
            if stale[player]:
                row = table[player]
                target = best[player] = int(row.argmin())
                mins[player] = row.item(target)
                stale[player] = 0
            else:
                target = best[player]
            current = current_of[player]
            # target == current: a finite minimum passes ``>= x - tol``.
            if target == current or (
                mins[player] >= entry(player * k + current) - tol
            ):
                continue
            current_of[player] = target
            assignment[player] = target
            deviations += 1
            lo, hi = indptr[player], indptr[player + 1]
            for friend, key, delta in zip(
                indices[lo:hi].tolist(), keys[lo:hi].tolist(),
                deltas[lo:hi].tolist(),
            ):
                lowered = entry(key + target) - delta
                flat[key + target] = lowered
                flat[key + current] = entry(key + current) + delta
                flags[friend] = 1
                if stale[friend]:
                    continue
                low = mins[friend]
                if lowered < low or (
                    lowered == low and target < best[friend]
                ):
                    best[friend], mins[friend] = target, lowered
                elif best[friend] == current:
                    stale[friend] = 1
        active.flags[:] = np.frombuffer(flags, dtype=bool)
        return deviations, examined


def _solve_global_table(
    instance: RMGPInstance,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run RMGP_gt on ``instance`` (Figure 5).

    The checkpoint serializes the global table itself: rebuilding it
    from the checkpointed assignment would sum the bincount scatter in
    a different order than the incremental ±½·w updates, and a last-ulp
    difference can flip a later argmin — resuming from the stored table
    keeps the trajectory byte-identical.
    """
    loop = _GlobalTableLoop(
        "RMGP_gt", instance,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    loop.init_method, loop.order, loop.warm_start = init, order, warm_start
    return loop.run()


class _GlobalTableLoop(dynamics.RoundLoop):
    """Figure 5: table-driven frontier rounds.  RMGP_all overrides the
    two hooks :meth:`make_sweep` and :meth:`make_table`."""

    def make_sweep(self, state=None) -> List[int]:
        """The sweep order: drawn in round 0, or the checkpoint's."""
        if state is None:
            return dynamics.player_order(self.instance, self.order, self.rng)
        return dynamics.checked_players(state["sweep"], self.instance.n, "sweep")

    def make_table(self) -> np.ndarray:
        """The table of ``self.assignment``."""
        return build_global_table(self.instance, self.assignment)

    def init(self, span) -> None:
        instance = self.instance
        self.assignment = self.initial_assignment()
        self.sweep = self.make_sweep()
        with self.rec.span("build_table"):
            self.table = self.make_table()
        self.rounds_kernel = BulkRounds(instance, self.table, self.sweep)
        # Initially dirty = not provably happy, matching Figure 5's first
        # pass: happiness()'s test, with the row minima the kernel read
        # through its one argmin.
        current = self.table[np.arange(instance.n), self.assignment]
        self.active = dynamics.ActiveSet(
            instance.n,
            dirty=~(
                current
                <= self.rounds_kernel.row_min + dynamics.DEVIATION_TOLERANCE
            ),
        )
        if span is not None:
            span.attrs["table_bytes"] = int(self.table.nbytes)

    def restore(self, state) -> None:
        self.sweep = self.make_sweep(state)
        # Kept, not rebuilt (see _solve_global_table), once checked.
        self.table = checked_table(state["table"], self.make_table())
        self.rounds_kernel = BulkRounds(self.instance, self.table, self.sweep)

    def start(self) -> None:
        super().start()
        self.rec.gauge(
            "solver.table_bytes", self.table.nbytes, solver=self.name
        )

    def state(self):
        return {
            "sweep": [int(p) for p in self.sweep],
            "table": self.table.copy(),
        }

    def step(self):
        deviations, examined = self.rounds_kernel(
            self.assignment, self.active
        )
        # A table lookup replaces the k-way Eq. 3 scan: one lookup per
        # examined player.
        return deviations, examined, examined

    def extra(self):
        return {"table_bytes": self.table.nbytes}
