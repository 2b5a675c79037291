"""RMGP_is — parallelism with independent strategies (Section 4.2, Figure 4).

Players that share no edge cannot affect each other's best responses, so
the players are grouped by a proper graph coloring and each color group
is processed "simultaneously".  Processing a group concurrently is
semantically identical to processing it sequentially (no two members are
adjacent), so correctness and convergence are untouched; the benefit is
wall-clock parallelism.

CPython's GIL limits the real speedup of the thread pool, so results also
report a *model* critical path — the per-round work under ideal ``T``-way
parallelism, ``Σ_groups ceil(|G_i| / T)`` players — which is the quantity
the paper's multi-threaded C++ implementation improves.  Benchmarks show
both numbers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import dynamics
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
    backend: Optional[str] = None,
    workers: Optional[int] = None,
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
        Maximum simultaneously running threads ``T`` (Figure 4).  With
        ``threads=1`` groups are processed sequentially — the result is
        identical, only wall time differs.  GIL-bound; superseded by
        ``backend=``/``workers=`` and mutually exclusive with them.
    backend / workers:
        Parallel execution backend (``"pure"``/``"shm"``/``"numba"``)
        and shm worker count; see :mod:`repro.parallel`.  Assignments
        stay byte-identical to the pure path for every backend.
    exact_scale:
        When set, best responses use Lemma 2 integer fixed-point
        arithmetic at this scale (exact, order-free; changes the
        trajectory vs. the float path but not across backends).
    coloring:
        Optional pre-computed proper coloring (user id -> color).
    recorder:
        Telemetry sink; ``None`` uses the ambient recorder.
    """
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")
    wants_engine = (
        backend is not None or workers is not None or exact_scale is not None
    )
    if wants_engine and threads > 1:
        raise ConfigurationError(
            "threads (the GIL-bound thread pool) cannot be combined with "
            "backend=/workers=/exact_scale=; use workers= for real "
            "parallelism"
        )
    loop = _IndependentSetsLoop(
        "RMGP_is", instance,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    loop.order, loop.warm_start = order, warm_start
    loop.init_method, loop.coloring, loop.threads = init, coloring, threads
    loop.attach_engine(backend, workers, exact_scale)
    loop.executor = (
        ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
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
                self.instance, self.assignment, pending, self.executor,
                self.threads, self.active, self.engine,
            )
        return deviations, examined, examined * self.instance.k

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True)
        super().close()

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
        extra.update(self.backend_info)
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
    executor: Optional[ThreadPoolExecutor],
    threads: int,
    active: dynamics.ActiveSet,
    engine=None,
) -> int:
    """Best responses for one color group's frontier; returns deviations.

    Members are pairwise non-adjacent, so all best responses are computed
    against the same effective context regardless of intra-group order;
    writes are committed after computation, mirroring Figure 4's
    "wait for all threads to finish".  Each committed move marks the
    mover's CSR neighbor slice dirty for the following groups/rounds.

    With an ``engine`` the same compute/commit split runs on the
    parallel backend: the engine returns the group's deviating
    ``(player, best)`` pairs in member order (chunks are merged in chunk
    order), so the commit loop below is untouched.
    """
    if engine is not None:
        players, bests = engine.scalar_moves(
            assignment, np.asarray(group, dtype=np.int64)
        )
        moves = list(zip(players.tolist(), bests.tolist()))
    elif executor is None or len(group) <= threads:
        moves = _chunk_best_classes(instance, assignment, group)
    else:
        chunk = math.ceil(len(group) / threads)
        chunks = [group[i : i + chunk] for i in range(0, len(group), chunk)]
        futures = [
            executor.submit(_chunk_best_classes, instance, assignment, c)
            for c in chunks
        ]
        moves = []
        for future in futures:
            moves.extend(future.result())
    deviations = 0
    for player, best in moves:
        assignment[player] = best
        active.mark(instance.neighbor_indices[player])
        deviations += 1
    return deviations


def _chunk_best_classes(
    instance: RMGPInstance, assignment: np.ndarray, players: Sequence[int]
) -> List[tuple]:
    """Deviating (player, best class) pairs for non-adjacent players.

    Safe to run concurrently with other chunks of the same group: no
    member reads another member's strategy (they are non-adjacent), and
    writes happen only after every chunk finishes.
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
