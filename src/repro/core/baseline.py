"""RMGP_b — the baseline best-response algorithm (Figure 3).

Each round sweeps the *frontier* of players whose costs may have changed
and replaces each one's strategy with the class minimizing his Equation 3
cost against the *current* strategies of all other players; the algorithm
stops at the first round with no deviation, which by Theorem 1 is a pure
Nash equilibrium.  Round 1 examines everyone; afterwards only players
marked dirty by a friend's move are examined (see
:class:`repro.core.dynamics.ActiveSet` — the move sequence is provably
identical to the full sweep's).

The two heuristics evaluated in Section 6.3 are exposed as parameters:
``init="closest"`` is the ``+i`` variant and ``order="degree"`` adds the
``+o`` variant.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.core import dynamics
from repro.core.instance import RMGPInstance
from repro.core.objective import player_strategy_costs
from repro.core.result import PartitionResult
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint


def _solve_baseline(
    instance: RMGPInstance,
    init: str = "random",
    order: str = "random",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    reshuffle_each_round: bool = False,
    track_potential: bool = False,
    solver_name: Optional[str] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Union[None, str, SolveCheckpoint] = None,
) -> PartitionResult:
    """Run RMGP_b on ``instance``.

    Parameters
    ----------
    init:
        ``"random"`` (Figure 3 line 2) or ``"closest"`` (minimum
        assignment cost, the ``+i`` heuristic).
    order:
        Player sweep order per round: ``"random"``, ``"given"`` or
        ``"degree"`` (the ``+o`` heuristic).
    seed:
        Seeds both initialization and ordering randomness.
    warm_start:
        Previous solution used as the seed assignment (overrides
        ``init``), supporting the paper's repeated-execution scenario.
    reshuffle_each_round:
        When ``order="random"``, draw a fresh permutation every round
        instead of reusing the first one.
    track_potential:
        Record ``Φ(S)`` after every round (used by analysis and tests;
        costs one extra objective evaluation per round).
    recorder:
        Telemetry sink; ``None`` uses the ambient recorder (a no-op
        unless inside :func:`repro.obs.recording`).
    budget:
        Optional :class:`~repro.runtime.budget.RuntimeBudget` checked at
        every round boundary; on a trip the solve returns its current
        (valid, anytime) assignment with ``stop_reason`` set instead of
        raising.
    checkpoint_every / checkpoint_path:
        Write a resumable :class:`~repro.runtime.checkpoint.SolveCheckpoint`
        to ``checkpoint_path`` every N completed rounds and at any
        interrupt point.
    resume_from:
        A checkpoint (path or object) to continue from; the resumed
        trajectory is byte-identical to the uninterrupted run.

    Returns
    -------
    PartitionResult
        With one :class:`RoundStats` for initialization (round 0) and one
        per best-response round.
    """
    loop = _BaselineLoop(
        solver_name or _variant_name(init, order), instance,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    loop.init_method, loop.order, loop.warm_start = init, order, warm_start
    loop.reshuffle = reshuffle_each_round and order == "random"
    loop.track_potential = track_potential
    return loop.run()


class _BaselineLoop(dynamics.RoundLoop):
    """Figure 3 on the shared round driver: frontier sweeps in a fixed order."""

    def init(self, span) -> None:
        self.assignment = self.initial_assignment()
        self.sweep = dynamics.player_order(self.instance, self.order, self.rng)

    def restore(self, state) -> None:
        self.sweep = dynamics.checked_players(
            state["sweep"], self.instance.n, "sweep"
        )

    def state(self):
        return {"sweep": [int(p) for p in self.sweep]}

    def step(self):
        if self.reshuffle:
            self.sweep = dynamics.player_order(
                self.instance, self.order, self.rng
            )
        deviations, examined = _best_response_round(
            self.instance, self.assignment, self.sweep, self.active
        )
        return deviations, examined, examined * self.instance.k

    def extra(self):
        return {"init": self.init_method, "order": self.order}


def _best_response_round(
    instance: RMGPInstance,
    assignment: np.ndarray,
    sweep: List[int],
    active: dynamics.ActiveSet,
) -> tuple:
    """One frontier round of Figure 3 lines 5-13.

    Mutates ``assignment`` in place so later players in the sweep see the
    up-to-date strategies of earlier ones (sequential best response).
    Only dirty players are examined; a mover marks its CSR neighbor
    slice dirty (some of whom sit later in this very sweep, exactly as
    the full sweep would reach them).  Returns ``(deviations, examined)``.
    """
    deviations = 0
    examined = 0
    tol = dynamics.DEVIATION_TOLERANCE
    flags = active.flags
    indices = instance.indices
    indptr = instance.indptr.tolist()
    for player in sweep:
        if not flags[player]:
            continue
        flags[player] = False
        examined += 1
        costs = player_strategy_costs(instance, assignment, player)
        current = int(assignment[player])
        best = int(costs.argmin())
        if best != current and costs[best] < costs[current] - tol:
            assignment[player] = best
            deviations += 1
            flags[indices[indptr[player] : indptr[player + 1]]] = True
    return deviations, examined


def _variant_name(init: str, order: str) -> str:
    """Paper-style variant name: RMGP_b, RMGP_b+i, RMGP_b+i+o."""
    name = "RMGP_b"
    if init == "closest":
        name += "+i"
    if order == "degree":
        name += "+o"
    return name
