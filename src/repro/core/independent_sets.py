"""RMGP_is — parallelism with independent strategies (Section 4.2, Figure 4).

Players that share no edge cannot affect each other's best responses, so
the players are grouped by a proper graph coloring and each color group
is processed "simultaneously".  Processing a group concurrently is
semantically identical to processing it sequentially (no two members are
adjacent), so correctness and convergence are untouched; in the paper's
multi-threaded implementation the benefit is wall-clock parallelism.

Groups run one after another in-process; results report a *model*
critical path — the per-round work under ideal ``T``-way parallelism,
``Σ_groups ceil(|G_i| / T)`` players — which is the quantity the paper's
multi-threaded C++ implementation improves.  ``threads=T`` only sets
that model's ``T``; it starts no threads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import dynamics
from repro.core.exact import ExactPayload, exact_batched_moves, exact_payload
from repro.core.instance import RMGPInstance
from repro.core.objective import player_strategy_costs
from repro.core.result import PartitionResult
from repro.errors import ConfigurationError
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
    loop = _IndependentSetsLoop(
        "RMGP_is", instance,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    loop.order, loop.warm_start = order, warm_start
    loop.init_method, loop.coloring, loop.threads = init, coloring, threads
    loop.exact = (
        exact_payload(instance, exact_scale)
        if exact_scale is not None
        else None
    )
    return loop.run(threads=threads)


def ordered_groups(
    instance: RMGPInstance, coloring: Optional[Dict], sweep: List[int]
) -> List[List[int]]:
    """Color groups with each group's members kept in ``sweep`` order."""
    rank = {p: i for i, p in enumerate(sweep)}
    return [
        sorted(group, key=rank.__getitem__)
        for group in groups_from_coloring(instance, coloring)
    ]


class _IndependentSetsLoop(dynamics.RoundLoop):
    """Figure 4: rounds sweep the color groups' frontiers."""

    def init(self, span) -> None:
        # Within each group keep the requested ordering (degree/random).
        self.groups = ordered_groups(
            self.instance, self.coloring,
            dynamics.player_order(self.instance, self.order, self.rng),
        )
        self.assignment = self.initial_assignment()
        if span is not None:
            span.attrs["num_groups"] = len(self.groups)

    def restore(self, state) -> None:
        # The coloring is checkpointed (a caller-supplied coloring or
        # greedy tie-breaks need not be rebuilt identically).
        self.groups = checked_groups(state["groups"], self.instance.n)

    def state(self):
        return {"groups": [[int(p) for p in g] for g in self.groups]}

    def step(self):
        deviations = 0
        examined = 0
        flags = self.active.flags
        for group in self.groups:
            # Only the dirty members of the group can possibly move;
            # clean members' best responses are provably unchanged.
            pending = [p for p in group if flags[p]]
            if not pending:
                continue
            examined += len(pending)
            self.active.clear(pending)
            deviations += _process_group(
                self.instance, self.assignment, pending, self.active,
                self.exact,
            )
        return deviations, examined, examined * self.instance.k

    def extra(self):
        n = self.instance.n
        critical_path = sum(
            math.ceil(len(g) / self.threads) for g in self.groups
        )
        extra = {
            "num_groups": len(self.groups),
            "threads": self.threads,
            "model_players_per_round": critical_path,
            "sequential_players_per_round": n,
            "model_speedup": (n / critical_path) if critical_path else 1.0,
        }
        if self.exact is not None:
            extra["exact_scale"] = self.exact.scale
        return extra


def checked_groups(
    groups, n: int, count: Optional[int] = None
) -> List[List[int]]:
    """Checkpointed color groups, refused unless they partition the
    players (``count`` of them; default all ``n``)."""
    groups = [[int(p) for p in group] for group in groups]
    dynamics.checked_players(
        [p for group in groups for p in group], n, "groups", count
    )
    return groups


def _process_group(
    instance: RMGPInstance,
    assignment: np.ndarray,
    group: Sequence[int],
    active: dynamics.ActiveSet,
    exact: Optional[ExactPayload] = None,
) -> int:
    """Best responses for one color group's frontier; returns deviations.

    Members are pairwise non-adjacent, so all best responses are computed
    against the same effective context regardless of intra-group order;
    writes are committed after computation, mirroring Figure 4's
    "wait for all threads to finish".  Each committed move marks the
    mover's CSR neighbor slice dirty for the following groups/rounds.

    With an ``exact`` payload the group's deviating ``(player, best)``
    pairs come from the Lemma 2 integer kernel, in member order, and
    are committed by the same loop.
    """
    if exact is not None:
        players, bests = exact_batched_moves(
            instance, exact, assignment, np.asarray(group, dtype=np.int64)
        )
        moves = list(zip(players.tolist(), bests.tolist()))
    else:
        moves = _chunk_best_classes(instance, assignment, group)
    deviations = 0
    indptr = instance.indptr
    for player, best in moves:
        assignment[player] = best
        active.mark(instance.indices[indptr[player] : indptr[player + 1]])
        deviations += 1
    return deviations


def _chunk_best_classes(
    instance: RMGPInstance, assignment: np.ndarray, players: Sequence[int]
) -> List[tuple]:
    """Deviating (player, best class) pairs for non-adjacent players.

    No member reads another member's strategy (they are non-adjacent),
    and writes happen only after every best response is computed.
    """
    moves = []
    for player in players:
        best = _best_class(instance, assignment, player)
        if best != int(assignment[player]):
            moves.append((player, best))
    return moves


def _best_class(instance: RMGPInstance, assignment: np.ndarray, player: int) -> int:
    """Best-response class with the standard tie-keeps-current rule."""
    costs = player_strategy_costs(instance, assignment, player)
    current = int(assignment[player])
    best = int(costs.argmin())
    if costs[best] < costs[current] - dynamics.DEVIATION_TOLERANCE:
        return best
    return current
