"""RMGP_mg — max-gain (best-improvement) best-response dynamics.

The round-robin schedule of Figure 3 is one point in a design space;
another classic is *best-improvement* dynamics: always let the player
with the **largest available cost reduction** move next.  For exact
potential games this converges for the same reason (every move decreases
``Φ`` by the mover's gain), and each move takes the largest step
available, which often reduces the number of *moves* at the price of
maintaining a priority structure.

The implementation keeps the global table of RMGP_gt plus a max-heap of
per-player gains with lazy invalidation; it is included as an ablation
point (moves vs. wall time against the paper's schedules), not as a
replacement for them.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.core import dynamics
from repro.core.global_table import build_global_table, checked_table
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.errors import ConvergenceError, DataError
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget

#: Moves per reported round: best-improvement dynamics have no natural
#: round, so the trace (and the budget/checkpoint boundary) is a batch.
BATCH_MOVES = 1000


def _solve_max_gain(
    instance: RMGPInstance,
    init: str = "closest",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_moves: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run max-gain dynamics to a pure Nash equilibrium.

    ``max_moves`` bounds the total number of deviations (default
    ``n * k * 1000``, a generous multiple of anything observed); the
    result records every move in one round entry per *batch* of 1000
    moves so the usual round accounting stays meaningful.

    ``players_examined`` counts heap pops (gain re-evaluations), the
    real unit of work of best-improvement dynamics — there is no
    full-sweep round here.  Round 0's count is the heap build, which
    evaluates every player's gain once.

    The real-time layer treats a *batch* as the round unit: budget
    checks and checkpoints happen only at batch boundaries, keeping the
    hot pop-and-move loop free of per-move overhead.  Checkpoints
    serialize the table and the heap list verbatim (entry order is the
    binary-heap layout), so a resume pops in the exact same sequence.
    """
    loop = _MaxGainLoop(
        "RMGP_mg", instance,
        seed=seed, max_rounds=None, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    if max_moves is None:
        max_moves = max(1000, instance.n * instance.k * 1000)
    loop.init_method, loop.warm_start = init, warm_start
    loop.max_moves = max_moves
    return loop.run()


class _MaxGainLoop(dynamics.RoundLoop):
    """Best-improvement dynamics: one loop round per batch of moves.

    The heap replaces the frontier (checkpointed verbatim — entry order
    is the binary-heap layout, so a resume pops in the same sequence);
    the solve converges when the heap runs dry.
    """

    uses_frontier = False
    potential_telemetry = False
    round_spans = False

    def init(self, span) -> None:
        instance = self.instance
        self.assignment = self.initial_assignment()
        with self.rec.span("build_table"):
            self.table = build_global_table(instance, self.assignment)
        # Max-heap entries: (-gain, player).  Lazy invalidation: an entry
        # is acted on only if its gain still matches the player's current
        # gain.
        self.heap = []
        for player in range(instance.n):
            gain = self.gain_of(player)
            if gain > dynamics.DEVIATION_TOLERANCE:
                heapq.heappush(self.heap, (-gain, player))
        self.moves = 0
        # The heap build evaluates every player's gain once.
        self.init_examined = instance.n

    def restore(self, state) -> None:
        n = self.instance.n
        self.table = checked_table(
            state["table"], build_global_table(self.instance, self.assignment)
        )
        players = np.asarray(state["heap_players"], dtype=np.int64)
        keys = dynamics.checked_array(
            state["heap_keys"], players.shape, np.float64, "heap_keys"
        )
        if players.size and (players.min() < 0 or players.max() >= n):
            raise DataError(f"checkpoint heap players must lie in range({n})")
        self.heap = [
            (float(key), int(player)) for key, player in zip(keys, players)
        ]
        self.moves = int(state["moves"])

    def state(self):
        heap = self.heap
        return {
            "table": self.table.copy(),
            "heap_keys": np.array(
                [entry[0] for entry in heap], dtype=np.float64
            ),
            "heap_players": np.array(
                [entry[1] for entry in heap], dtype=np.int64
            ),
            "moves": self.moves,
        }

    def gain_of(self, player: int) -> float:
        row = self.table[player]
        return float(row[self.assignment[player]] - row.min())

    def frontier(self) -> int:
        return len(self.heap)

    def done(self, deviations: int) -> bool:
        return not self.heap

    def step(self):
        """Pop and move until a batch is full or the heap runs dry."""
        instance, table, assignment = self.instance, self.table, self.assignment
        heap, gain_of = self.heap, self.gain_of
        tol = dynamics.DEVIATION_TOLERANCE
        half = (1.0 - instance.alpha) * 0.5
        batch_moves = 0
        examined = 0
        indices, weights = instance.indices, instance.weights
        indptr = instance.indptr.tolist()
        while heap and batch_moves < BATCH_MOVES:
            negative_gain, player = heapq.heappop(heap)
            examined += 1
            current_gain = gain_of(player)
            if current_gain <= tol:
                continue
            if abs(-negative_gain - current_gain) > 1e-12:
                heapq.heappush(heap, (-current_gain, player))
                continue
            current = int(assignment[player])
            best = int(table[player].argmin())
            assignment[player] = best
            self.moves += 1
            batch_moves += 1
            if self.moves > self.max_moves:
                raise ConvergenceError(
                    f"RMGP_mg exceeded {self.max_moves} moves"
                )
            row = slice(indptr[player], indptr[player + 1])
            for friend, weight in zip(indices[row], weights[row]):
                delta = half * weight
                table[friend, best] -= delta
                table[friend, current] += delta
                friend_gain = gain_of(int(friend))
                if friend_gain > tol:
                    heapq.heappush(heap, (-friend_gain, int(friend)))
        return batch_moves, examined, examined

    def extra(self):
        return {"total_moves": self.moves}
