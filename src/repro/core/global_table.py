"""RMGP_gt — scheduling with a global table (Section 4.3, Figure 5).

A ``|V| x k`` table holds, for every player, the current total cost of
every strategy.  The table is built in one shot from the instance's CSR
adjacency (a single ``np.bincount`` scatter of all edge refunds), and the
round loop runs on the shared dirty-frontier scheduler
(:class:`repro.core.dynamics.ActiveSet`): a round only examines dirty
players, and when a player deviates he notifies his friends — exactly two
of each friend's table entries change (the old and new class), one
vectorized fancy-index update per move — and marks them dirty.  The
per-round cost therefore shrinks as the game approaches equilibrium
(Figure 12(c)).

The trade-off is O(|V|·k) memory; combined with strategy elimination the
table can be restricted to each player's reduced strategy space, which is
what :mod:`repro.core.combined` does.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.obs.recorder import Recorder
from repro.parallel.engine import LocalEngine, ShmEngine
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

    Shared by the RMGP_gt solver and
    :class:`repro.core.incremental.IncrementalRMGP` — both maintain the
    same state (table + frontier) and must replay the same schedule.
    Returns ``(deviations, players_examined)``.
    """
    deviations = 0
    examined = 0
    half = (1.0 - instance.alpha) * 0.5
    tol = dynamics.DEVIATION_TOLERANCE
    flags = active.flags
    neighbor_views = instance.neighbor_indices
    weight_views = instance.neighbor_weights
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
        idx = neighbor_views[player]
        if idx.size:
            deltas = half * weight_views[player]
            table[idx, best] -= deltas
            table[idx, current] += deltas
            flags[idx] = True
    return deviations, examined


def _solve_global_table(
    instance: RMGPInstance,
    init: str = "closest",
    order: str = "degree",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
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

    ``backend``/``workers``: the ``shm`` backend parallelizes the table
    *build* (the per-row scatter chunks are byte-identical to the full
    scatter); the sweep itself is inherently sequential (each move edits
    friends' rows), so the pool is released right after the build.  The
    ``numba`` backend jits the sweep loop instead.  Either way the
    trajectory is byte-identical to the pure path.
    """
    loop = _GlobalTableLoop(
        "RMGP_gt", instance,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    loop.init_method, loop.order, loop.warm_start = init, order, warm_start
    loop.attach_engine(backend, workers, with_table=True)
    return loop.run()


class _GlobalTableLoop(dynamics.RoundLoop):
    """Figure 5: table-driven frontier rounds."""

    def init(self, span) -> None:
        instance = self.instance
        self.assignment = self.initial_assignment()
        self.sweep = dynamics.player_order(instance, self.order, self.rng)
        with self.rec.span("build_table"):
            if isinstance(self.engine, ShmEngine):
                self.table = self.engine.build_table(self.assignment)
                # The sweep is inherently serial; release the workers
                # (and the segment) right away.
                self.engine.shutdown()
            else:
                self.table = build_global_table(instance, self.assignment)
        # Initially dirty = not provably happy, matching Figure 5's first
        # pass.
        self.active = dynamics.ActiveSet(
            instance.n, dirty=~happiness(self.table, self.assignment)
        )
        if span is not None:
            span.attrs["table_bytes"] = int(self.table.nbytes)

    def restore(self, state) -> None:
        n, k = self.instance.n, self.instance.k
        self.sweep = dynamics.checked_players(state["sweep"], n, "sweep")
        self.table = dynamics.checked_array(
            state["table"], (n, k), np.float64, "table"
        )

    def start(self) -> None:
        super().start()
        self.rec.gauge(
            "solver.table_bytes", self.table.nbytes, solver=self.name
        )
        self.sweep_engine = (
            self.engine if isinstance(self.engine, LocalEngine) else None
        )
        if self.sweep_engine is not None:
            self.sweep_array = np.asarray(self.sweep, dtype=np.int64)

    def state(self):
        return {
            "sweep": [int(p) for p in self.sweep],
            "table": self.table.copy(),
        }

    def step(self):
        if self.sweep_engine is not None:
            deviations, examined = self.sweep_engine.table_sweep(
                self.table, self.assignment, self.active.flags,
                self.sweep_array,
            )
        else:
            deviations, examined = table_round(
                self.instance, self.table, self.assignment, self.active,
                self.sweep,
            )
        # A table lookup replaces the k-way Eq. 3 scan: one row argmin per
        # examined player.
        return deviations, examined, examined

    def extra(self):
        extra = {"table_bytes": self.table.nbytes}
        extra.update(self.backend_info)
        return extra
