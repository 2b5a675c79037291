"""Simultaneous (synchronous) best-response dynamics — a cautionary ablation.

Section 4.2 warns that sequential updates are "a fundamental requirement
in best response dynamics: if multiple players change strategies
simultaneously their decisions may be based on 'outdated' information and
there is the chance that the overall potential function increases."
RMGP_is sidesteps this with independent sets; this module implements the
naive synchronous dynamics the warning is about, so the effect can be
measured (see ``benchmarks/bench_ablations.py``):

* ``partition(instance, solver="sync")`` — every player moves at once.  May
  oscillate (e.g. two friends swapping classes forever); terminates on a
  fixed point, a detected cycle, or the round budget, and reports whether
  the potential ever increased.
* ``damping`` — each deviating player actually moves only with
  probability ``damping``; for ``damping < 1`` oscillations break with
  probability 1 and the dynamics converge in practice.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import dynamics
from repro.core.independent_sets import batch_moves, build_batches
from repro.core.instance import RMGPInstance
from repro.core.objective import potential
from repro.core.result import PartitionResult
from repro.errors import ConfigurationError
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget


def _solve_simultaneous(
    instance: RMGPInstance,
    init: str = "closest",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = 200,
    damping: float = 1.0,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Synchronous best-response dynamics.

    Unlike every other solver in this package, **convergence is not
    guaranteed** for ``damping=1.0``; the result's ``converged`` flag and
    ``extra`` diagnostics (``potential_increases``, ``cycle_detected``)
    tell what happened.  This exists to validate the paper's argument
    for sequential/independent-set updates, not for production use.

    ``players_examined`` is genuinely ``n`` every round here: synchronous
    dynamics best-respond against a full snapshot, so every player is
    re-evaluated each round — it is not a full-sweep *assumption*, it is
    the algorithm.

    Because Φ is *not* monotone here, an interrupted solve reports the
    **best assignment by Φ seen so far** (round 0 included) rather than
    the current state — that is the strongest anytime guarantee the
    synchronous ablation can offer.  The checkpoint still stores the
    current state, so a resume replays the exact trajectory.
    """
    if not 0.0 < damping <= 1.0:
        raise ConfigurationError(f"damping must be in (0, 1], got {damping}")
    loop = _SimultaneousLoop(
        "RMGP_sync", instance,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    loop.init_method, loop.warm_start, loop.damping = init, warm_start, damping
    return loop.run(damping=damping)


class _SimultaneousLoop(dynamics.RoundLoop):
    """Every player best-responds to the same snapshot each round.

    Φ is not monotone here, so every round records it, an interrupted
    solve reports the best-by-Φ state, and ``max_rounds`` exhaustion
    (or a detected cycle) ends the solve instead of raising.
    """

    uses_frontier = False
    track_potential = True
    exhaust_quietly = True
    cycle_detected = False

    def init(self, span) -> None:
        self.assignment = self.initial_assignment()
        self.batch = self._snapshot_batch()
        self.phi = potential(self.instance, self.assignment)
        self.seen_states = {self.assignment.tobytes()}
        self.potential_increases = 0
        self.best_assignment = self.assignment.copy()
        self.best_potential = self.phi

    def _snapshot_batch(self):
        """All ``n`` players as one batch (rebuilt, never checkpointed)."""
        return build_batches(self.instance, [range(self.instance.n)])[0]

    def restore(self, state) -> None:
        n = self.instance.n
        self.batch = self._snapshot_batch()
        self.seen_states = {bytes.fromhex(h) for h in state["seen"]}
        self.potential_increases = int(state["potential_increases"])
        self.phi = float(state["last_potential"])
        self.best_assignment = dynamics.checked_array(
            state["best_assignment"], (n,), np.int64, "best_assignment"
        )
        self.instance.validate_assignment(self.best_assignment)
        self.best_potential = float(state["best_potential"])

    def state(self):
        return {
            "seen": [state.hex() for state in self.seen_states],
            "potential_increases": self.potential_increases,
            "last_potential": self.phi,
            "best_assignment": self.best_assignment.copy(),
            "best_potential": self.best_potential,
        }

    def potential(self) -> float:
        return self.phi

    def step(self):
        # "deviations" counts players who *want* to move; damping only
        # suppresses the execution, never the convergence test —
        # otherwise an unlucky round of coin flips would end the game at
        # a non-equilibrium.
        instance, rng, damping = self.instance, self.rng, self.damping
        movers, best = batch_moves(instance, self.batch, self.assignment)
        # One damping draw per would-be mover, in player-index order.
        moves = np.array([rng.random() < damping for _ in movers], dtype=bool)
        proposals = self.assignment.copy()
        proposals[movers[moves]] = best[moves]
        self.assignment = proposals
        self.previous_phi, self.phi = self.phi, potential(instance, proposals)
        return int(movers.size), instance.n, instance.n * instance.k

    def after_round(self, deviations: int) -> bool:
        phi = self.phi
        if phi > self.previous_phi + 1e-12:
            self.potential_increases += 1
            self.rec.event(
                "potential_increase", round=self.round_index,
                delta=phi - self.previous_phi,
            )
        if phi < self.best_potential:
            self.best_potential = phi
            self.best_assignment = self.assignment.copy()
        # Cycle detection only makes sense for deterministic (undamped)
        # dynamics; a damped walk may legitimately revisit states.
        if deviations == 0 or self.damping < 1.0:
            return False
        state = self.assignment.tobytes()
        if state in self.seen_states:
            self.cycle_detected = True
            self.rec.event("cycle_detected", round=self.round_index)
            return True
        self.seen_states.add(state)
        return False

    def final_assignment(self):
        # An interrupted solve reports the best-by-Φ state, not wherever
        # the oscillation was.
        if self.runtime is not None and self.runtime.interrupted:
            return self.best_assignment
        return self.assignment

    def extra(self):
        extra = {
            "potential_increases": self.potential_increases,
            "cycle_detected": self.cycle_detected,
            "damping": self.damping,
        }
        if self.runtime is not None and self.runtime.interrupted:
            extra["reported_best_potential"] = self.best_potential
        return extra
