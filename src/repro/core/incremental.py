"""Incremental RMGP — maintaining an equilibrium across online updates.

The paper motivates RMGP as an on-line task: "locations of users may be
updated through check-ins, while new events may appear frequently"
(Section 1), and suggests seeding each execution with the previous
solution (Section 3.1).  :class:`IncrementalRMGP` takes this to its
logical end: it keeps the RMGP_gt state (global table + the shared
dirty-frontier :class:`~repro.core.dynamics.ActiveSet`) alive between
queries and supports *localized* updates —

* :meth:`update_player_costs` — a user checked in somewhere else (his
  cost row changed);
* :meth:`add_edge` / :meth:`remove_edge` — friendships form, dissolve,
  or change strength (an existing edge is re-weighted in place, no CSR
  rebuild);
* :meth:`add_vertex` / :meth:`remove_vertex` — users join or leave the
  query region;
* :meth:`set_alpha` — the preference parameter drifts;
* :meth:`resolve` — propagate best responses from the dirty players
  outward until the game is quiet again.

After a small perturbation only the affected neighborhood is touched, so
re-solving is orders of magnitude cheaper than from scratch.  The result
of :meth:`resolve` is always a fresh pure Nash equilibrium of the
*current* instance (same argument as RMGP_gt: every move strictly
decreases the exact potential of the updated game).

Batched churn
-------------
Structural mutations (edge/vertex add/remove) shift CSR slices, so each
one normally triggers an O(|V| + |E|) adjacency rebuild.  Under a
mutation feed that cost dominates; :meth:`batch` defers the rebuild so a
whole batch pays for exactly one::

    with engine.batch():
        for mutation in mutations:
            mutation.apply_to(engine)
    engine.resolve()

The global table and the dirty frontier are still patched per mutation
(those updates are O(k) / O(deg)), so correctness never depends on the
deferred rebuild — only :meth:`resolve`, :meth:`current_value`,
:meth:`seed_frontier` and :meth:`to_checkpoint` need fresh CSR arrays,
and each flushes the pending rebuild on entry.

Movement accounting
-------------------
SPAR's churn argument (PAPERS.md) is that under mutation streams the
metric that matters alongside Eq. 1 cost is *how many vertices change
shard per batch*.  Every :meth:`resolve` after the initial placement
reports ``vertices_moved`` / ``migration_cost`` in ``result.extra`` and
accumulates engine-lifetime totals (``moved_total``,
``migration_cost_total``), emitting ``churn.*`` counters through
:mod:`repro.obs`.  An optional ``movement_penalty`` adds a switching
cost to the objective: staying on the pre-resolve class is ``penalty``
cheaper, which is a constant shift of each player's own column — the
game stays an exact potential game and the drain converges to a Nash
equilibrium of the *penalized* game.  After the drain the penalty is
removed from the table and any players left strictly unhappy in the
unpenalized game re-enter the frontier (so the engine invariant
"frontier ⊇ potential movers" always holds for the real game).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core import dynamics
from repro.core.costs import MatrixCost
from repro.core.global_table import build_global_table, happiness, table_round
from repro.core.instance import RMGPInstance
from repro.core.objective import objective
from repro.core.result import PartitionResult, RoundStats
from repro.errors import ConfigurationError, DataError, GraphError
from repro.graph.social_graph import NodeId
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint
from repro.runtime.executor import load_resume


class IncrementalRMGP:
    """Long-lived RMGP state supporting online perturbations.

    Construction solves the instance once (via the global-table
    dynamics); afterwards, apply any number of updates and call
    :meth:`resolve` to re-converge.  Pass ``auto_resolve=False`` to skip
    the construction-time solve (the first explicit :meth:`resolve` then
    performs the initial placement), and ``warm_start`` to seed the
    initial assignment from a previous solution (Section 3.1).

    A ``recorder`` given at construction receives an event per online
    update and one ``resolve`` span (with per-round children) per
    :meth:`resolve` call; :meth:`resolve` also accepts a per-call
    recorder override.
    """

    def __init__(
        self,
        instance: RMGPInstance,
        init: str = "closest",
        seed: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        warm_start: Optional[np.ndarray] = None,
        auto_resolve: bool = True,
    ) -> None:
        self._recorder = recorder
        # Materialize the cost matrix: updates mutate it in place.
        self._matrix = instance.cost.dense()
        self.instance = instance.with_cost(MatrixCost(self._matrix))
        # MatrixCost copies; keep the live reference used by the solver.
        self._matrix = self.instance.cost._matrix  # type: ignore[attr-defined]
        import random

        rng = random.Random(seed)
        self.assignment = dynamics.initial_assignment(
            self.instance, init, rng, warm_start
        )
        self._table = build_global_table(self.instance, self.assignment)
        # The shared dirty-frontier scheduler every solver uses; online
        # updates mark the touched players, resolve() drains the frontier.
        self._active = dynamics.ActiveSet(
            self.instance.n,
            dirty=~happiness(self._table, self.assignment),
        )
        self.resolve_count = 0
        self.moved_total = 0
        self.migration_cost_total = 0.0
        self._batch_depth = 0
        self._adjacency_stale = False
        if auto_resolve:
            self.resolve()

    # ------------------------------------------------------------------
    # Batched mutation application
    # ------------------------------------------------------------------
    @contextmanager
    def batch(self):
        """Defer CSR rebuilds until the outermost batch exits.

        Inside the context every structural mutation patches the table
        and frontier immediately but leaves the instance's CSR adjacency
        stale; the single rebuild happens on exit (nesting is allowed —
        only the outermost exit flushes).  :meth:`resolve` also flushes,
        so forgetting the context can never produce wrong answers, only
        per-mutation rebuild cost.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._flush_adjacency()

    def _touch_adjacency(self) -> None:
        """Note a structural change; rebuild now unless inside a batch."""
        self._adjacency_stale = True
        if self._batch_depth == 0:
            self._flush_adjacency()

    def _flush_adjacency(self) -> None:
        if self._adjacency_stale:
            self.instance.rebuild_adjacency()
            self._adjacency_stale = False

    # ------------------------------------------------------------------
    # Online updates
    # ------------------------------------------------------------------
    def update_player_costs(self, node: NodeId, new_row: Sequence[float]) -> None:
        """Replace a user's assignment-cost row (e.g. after a check-in)."""
        player = self._index(node)
        row = np.asarray(new_row, dtype=np.float64)
        if row.shape != (self.instance.k,):
            raise ConfigurationError(
                f"cost row must have length {self.instance.k}"
            )
        if row.min() < 0 or not np.isfinite(row).all():
            raise ConfigurationError("costs must be finite and non-negative")
        delta = self.instance.alpha * (row - self._matrix[player])
        self._matrix[player] = row
        self._table[player] += delta
        self._active.mark([player])
        rec = active_recorder(self._recorder)
        rec.event("update_player_costs", player=player)
        rec.count("incremental.updates", 1, kind="costs")

    def add_edge(self, u: NodeId, v: NodeId, weight: float) -> None:
        """A friendship forms (or an existing one changes strength).

        Both endpoints must already be players of the instance — an
        unknown endpoint raises :class:`ConfigurationError` (use
        :meth:`add_vertex` to admit a new user; silently creating a
        graph node here would desynchronize the index space and fail
        later with an obscure dangling-edge error).  Overwriting an
        existing edge patches the CSR weight slots in place
        (:meth:`RMGPInstance.update_edge_weight`) — no layout rebuild.
        """
        self._index(u), self._index(v)
        graph = self.instance.graph
        if graph.has_edge(u, v):
            old = graph.weight(u, v)
            if self._adjacency_stale:
                # CSR slices are already stale inside this batch; the
                # flush will pick the new weight up from the graph.
                graph.add_edge(u, v, weight)
            else:
                self.instance.update_edge_weight(u, v, weight)
            self._apply_edge_delta(u, v, weight - old, sign=+1.0)
        else:
            graph.add_edge(u, v, weight)
            self._touch_adjacency()
            self._apply_edge_delta(u, v, weight, sign=+1.0)
        active_recorder(self._recorder).count(
            "incremental.updates", 1, kind="add_edge"
        )

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """A friendship dissolves."""
        weight = self.instance.graph.weight(u, v)
        self.instance.graph.remove_edge(u, v)
        self._touch_adjacency()
        self._apply_edge_delta(u, v, weight, sign=-1.0)
        active_recorder(self._recorder).count(
            "incremental.updates", 1, kind="remove_edge"
        )

    def add_vertex(
        self,
        node: NodeId,
        cost_row: Sequence[float],
        edges: Iterable[Tuple[NodeId, float]] = (),
    ) -> None:
        """Admit a new player with ``cost_row`` and optional friendships.

        The player is appended at index ``n`` (existing indices are
        stable), starts on its cheapest class ("closest" init), and
        enters the dirty frontier together with the endpoints of every
        new friendship; :meth:`resolve` then settles the neighborhood.
        """
        inst = self.instance
        if node in inst.index_of:
            raise ConfigurationError(f"user {node!r} already exists")
        row = np.asarray(cost_row, dtype=np.float64)
        if row.shape != (inst.k,):
            raise ConfigurationError(
                f"cost row must have length {inst.k}"
            )
        if row.min() < 0 or not np.isfinite(row).all():
            raise ConfigurationError("costs must be finite and non-negative")
        edges = [(friend, float(w)) for friend, w in edges]
        friends = [friend for friend, _ in edges]
        if len({repr(f) for f in friends}) != len(friends):
            raise ConfigurationError("duplicate friends in edges")
        for friend, w in edges:
            if friend == node:
                raise GraphError(f"self-loop on node {node!r}")
            if friend not in inst.index_of:
                raise ConfigurationError(f"unknown user {friend!r}")

        inst.graph.add_node(node)
        for friend, w in edges:
            inst.graph.add_edge(node, friend, w)
        inst.node_ids.append(node)
        inst.index_of[node] = inst.n - 1
        self._matrix = np.vstack([self._matrix, row[None, :]])
        inst.cost = MatrixCost(self._matrix)
        self._matrix = inst.cost._matrix  # type: ignore[attr-defined]
        # Friendless table row: α·c plus a zero maxSC ceiling; the edge
        # deltas below add each friendship's share.
        self._table = np.vstack([self._table, inst.alpha * row[None, :]])
        self.assignment = np.append(
            self.assignment, np.int64(row.argmin())
        )
        self._active = dynamics.ActiveSet(
            inst.n, dirty=np.append(self._active.flags, True)
        )
        self._touch_adjacency()
        for friend, w in edges:
            self._apply_edge_delta(node, friend, w, sign=+1.0)
        rec = active_recorder(self._recorder)
        rec.event("add_vertex", n=inst.n, degree=len(edges))
        rec.count("incremental.updates", 1, kind="add_vertex")

    def remove_vertex(self, node: NodeId) -> None:
        """A player leaves; its friendships dissolve with it.

        Indices above the departed player shift down by one (the dense
        index space stays gapless); its friends enter the dirty frontier
        via the per-edge refunds.  Two documented edge cases:

        * **Sole member of its part** — if the player was the only one
          assigned to class ``p``, the part simply becomes empty.
          Classes are query-time constants, not resources that require
          members, so the remaining players' equilibrium is untouched
          except for the social refunds of the dissolved friendships.
        * **Last player** — removing the final vertex leaves a valid
          empty engine (``n == 0``); :meth:`resolve` returns an empty
          converged result and later :meth:`add_vertex` calls repopulate
          it.
        """
        index = self._index(node)
        inst = self.instance
        for friend, w in list(inst.graph.neighbors(node).items()):
            self._apply_edge_delta(node, friend, w, sign=-1.0)
        inst.graph.remove_node(node)
        inst.node_ids.pop(index)
        inst.index_of = {nid: i for i, nid in enumerate(inst.node_ids)}
        self._matrix = np.delete(self._matrix, index, axis=0)
        inst.cost = MatrixCost(self._matrix)
        self._matrix = inst.cost._matrix  # type: ignore[attr-defined]
        self._table = np.delete(self._table, index, axis=0)
        self.assignment = np.delete(self.assignment, index)
        self._active = dynamics.ActiveSet(
            inst.n, dirty=np.delete(self._active.flags, index)
        )
        self._touch_adjacency()
        rec = active_recorder(self._recorder)
        rec.event("remove_vertex", n=inst.n)
        rec.count("incremental.updates", 1, kind="remove_vertex")

    def set_alpha(self, alpha: float) -> None:
        """α drift: re-weight assignment versus social cost.

        α scales *every* table entry, so this is the one mutation with
        no localized patch: the table is rebuilt from the (unchanged)
        CSR adjacency and every player left unhappy under the new
        trade-off re-enters the frontier.  O(|V|·k + |E|) — the same as
        one RMGP_gt table build.
        """
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        self._flush_adjacency()  # the table build reads the CSR arrays
        inst = self.instance
        inst.alpha = alpha
        inst.max_social_cost = (1.0 - alpha) * inst.half_strength
        self._table = build_global_table(inst, self.assignment)
        self._active.mark(
            np.flatnonzero(~happiness(self._table, self.assignment))
        )
        rec = active_recorder(self._recorder)
        rec.event("set_alpha", alpha=alpha)
        rec.count("incremental.updates", 1, kind="alpha")

    def seed_frontier(self, nodes: Iterable[NodeId]) -> None:
        """Mark ``nodes`` *and their graph neighborhoods* dirty.

        The per-mutation table patches already mark every player whose
        costs changed, which is sufficient for correctness; a mutation
        feed calls this afterwards to widen the frontier to the touched
        vertices' full neighborhoods (the ISSUE-6 seeding rule).  A
        superset frontier is always safe: clean-player examinations are
        provable no-ops (see :class:`~repro.core.dynamics.ActiveSet`).
        """
        players = np.array(
            [self._index(node) for node in nodes], dtype=np.int64
        )
        if players.size == 0:
            return
        self._flush_adjacency()
        self._active.mark(players)
        self._active.mark(self.instance.neighbors_of(players))

    # ------------------------------------------------------------------
    def resolve(
        self,
        max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
        recorder: Optional[Recorder] = None,
        budget: Optional[RuntimeBudget] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        movement_penalty: Optional[float] = None,
    ) -> PartitionResult:
        """Run localized best responses until the frontier is quiet.

        With a ``budget``, the drain stops at the first round boundary
        past the deadline (or once the token is cancelled) and returns
        the current — valid, partially re-converged — assignment with
        ``converged=False`` and ``stop_reason`` set; the dirty frontier
        survives in the engine, so a later :meth:`resolve` (or a
        :meth:`to_checkpoint` / :meth:`from_checkpoint` round trip)
        finishes the propagation exactly where it stopped.

        ``movement_penalty`` (>= 0) charges each player that amount for
        leaving its pre-resolve class: the drain converges to a Nash
        equilibrium of the switching-cost game, trading equilibrium
        quality for fewer shard moves (SPAR's trade-off).  Checkpoints
        written during a penalized resolve store the *unpenalized*
        table (with the frontier re-widened), so resuming them never
        bakes a stale penalty into the engine.

        Movement accounting: every resolve after the initial placement
        reports ``vertices_moved`` and ``migration_cost`` (the summed
        ``W_v`` of the movers — the social state that must be
        re-replicated on the new shard) in ``result.extra`` and
        accumulates the engine totals.
        """
        self._flush_adjacency()
        rec = active_recorder(
            recorder if recorder is not None else self._recorder
        )
        penalty = 0.0 if movement_penalty is None else float(movement_penalty)
        if penalty < 0 or not np.isfinite(penalty):
            raise ConfigurationError(
                f"movement_penalty must be finite and >= 0, got {penalty}"
            )
        loop = _ResolveLoop(
            self, penalty, max_rounds=max_rounds, recorder=rec,
            budget=budget, checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        baseline = loop.baseline
        rows = np.arange(self.instance.n)
        initial_placement = self.resolve_count == 0
        if penalty > 0.0:
            # Staying put becomes `penalty` cheaper — a constant shift
            # of each player's own column, so the exact-potential
            # argument (and hence termination) is untouched.  Happy
            # players only get happier: the frontier needs no re-seed.
            self._table[rows, baseline] -= penalty
        try:
            with rec.span(
                "resolve", solver="RMGP_incremental", n=self.instance.n,
                resolve_index=self.resolve_count,
            ) as resolve_span:
                if resolve_span is not None:
                    resolve_span.attrs["initial_frontier"] = (
                        self._active.count()
                    )
                loop.drive()
        finally:
            if penalty > 0.0:
                self._table[rows, baseline] += penalty
                # Un-patching can re-expose strictly better deviations:
                # restore the invariant "frontier ⊇ potential movers"
                # for the next (unpenalized) resolve.
                self._active.mark(
                    np.flatnonzero(~happiness(self._table, self.assignment))
                )
        self.resolve_count += 1
        moved_mask = self.assignment != baseline
        moved = int(np.count_nonzero(moved_mask))
        migration_cost = float(self.instance.half_strength[moved_mask].sum())
        extra = {"resolve_count": self.resolve_count}
        if not initial_placement:
            # The initial placement is not migration: SPAR-style
            # accounting starts once there is a previous shard to move
            # away from.
            self.moved_total += moved
            self.migration_cost_total += migration_cost
            extra["vertices_moved"] = moved
            extra["migration_cost"] = migration_cost
            extra["moved_total"] = self.moved_total
            extra["migration_cost_total"] = self.migration_cost_total
            rec.count("churn.vertices_moved", moved)
            rec.observe("churn.migration_cost", migration_cost)
        if penalty > 0.0:
            extra["movement_penalty"] = penalty
        return loop.result(extra)

    def current_value(self):
        """Equation 1 breakdown of the current assignment."""
        self._flush_adjacency()
        return objective(self.instance, self.assignment)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def to_checkpoint(self) -> SolveCheckpoint:
        """Snapshot the full engine state (serializable via
        :func:`repro.core.serialize.save_checkpoint`).

        The snapshot captures the solver state — assignment, global
        table, mutated cost matrix, dirty frontier, resolve counter —
        but **not** the graph topology: :meth:`from_checkpoint` must be
        given an instance whose graph matches the one the checkpoint was
        taken under (enforced via the fingerprint's CSR slot count).
        Mutations that arrived *after* the checkpoint therefore must be
        replayed against the restored engine, not baked into the
        instance handed to :meth:`from_checkpoint` — the fingerprint
        check turns the wrong order into a hard
        :class:`~repro.errors.DataError` instead of a silent divergence.
        """
        self._flush_adjacency()
        return SolveCheckpoint(
            solver="RMGP_incremental",
            round_index=self.resolve_count,
            assignment=self.assignment.copy(),
            frontier=self._active.flags.copy(),
            state={
                "table": self._table.copy(),
                "cost_matrix": self._matrix.copy(),
                "resolve_count": self.resolve_count,
            },
            fingerprint=SolveCheckpoint.fingerprint_of(self.instance),
        )

    @classmethod
    def from_checkpoint(
        cls,
        instance: RMGPInstance,
        checkpoint,
        recorder: Optional[Recorder] = None,
    ) -> "IncrementalRMGP":
        """Rebuild an engine from a checkpoint (path or object).

        The restored engine continues the interrupted trajectory
        byte-for-byte: same table, same frontier, same assignment.  The
        checkpoint's cost matrix (which accumulates every
        :meth:`update_player_costs`) overrides the instance's.  Movement
        accounting restarts from zero — migration totals are a property
        of one engine lifetime, not of the solve trajectory.
        """
        restored = load_resume(checkpoint, instance, "RMGP_incremental",
                               recorder)
        if restored is None:
            raise ConfigurationError("from_checkpoint() requires a checkpoint")
        n, k = instance.n, instance.k
        state = restored.state
        try:
            matrix = dynamics.checked_array(
                state["cost_matrix"], (n, k), np.float64, "cost_matrix"
            ).copy()
            table = dynamics.checked_array(
                state["table"], (n, k), np.float64, "table"
            ).copy()
            frontier = dynamics.checked_array(
                restored.frontier, (n,), bool, "frontier"
            )
            resolve_count = int(state["resolve_count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"malformed RMGP_incremental checkpoint: {exc!r}"
            ) from exc
        engine = cls.__new__(cls)
        engine._recorder = recorder
        engine.instance = instance.with_cost(MatrixCost(matrix))
        engine._matrix = engine.instance.cost._matrix  # type: ignore[attr-defined]
        engine.assignment = restored.assignment.copy()
        engine._table = table
        engine._active = dynamics.ActiveSet(n, dirty=frontier)
        engine.resolve_count = resolve_count
        engine.moved_total = 0
        engine.migration_cost_total = 0.0
        engine._batch_depth = 0
        engine._adjacency_stale = False
        return engine

    # ------------------------------------------------------------------
    def _index(self, node: NodeId) -> int:
        try:
            return self.instance.index_of[node]
        except KeyError as exc:
            raise ConfigurationError(f"unknown user {node!r}") from exc

    def _rebuild_adjacency(self, nodes: Iterable[NodeId]) -> None:
        """Refresh the instance's CSR adjacency after a graph mutation."""
        del nodes
        self._touch_adjacency()

    def _apply_edge_delta(
        self, u: NodeId, v: NodeId, weight: float, sign: float
    ) -> None:
        """Patch both endpoints' table rows for an edge change.

        Adding an edge (sign=+1) raises every class's cost by the new
        ``maxSC`` share except the friend's current class; removal is the
        exact inverse.  ``weight`` may also be a (possibly negative)
        weight *delta* for in-place overwrites — the patch is linear.
        """
        half = (1.0 - self.instance.alpha) * 0.5 * weight
        iu, iv = self._index(u), self._index(v)
        for me, other in ((iu, iv), (iv, iu)):
            self._table[me] += sign * half
            self._table[me, int(self.assignment[other])] -= sign * half
        self._active.mark([iu, iv])


class _ResolveLoop(dynamics.RoundLoop):
    """One :meth:`IncrementalRMGP.resolve` drain on the shared driver.

    The engine's live table and frontier are the loop state; rounds
    sweep in player order over the dirty frontier — the exact RMGP_gt
    schedule (same :func:`table_round`), so a fresh engine reproduces
    ``partition(instance, solver="gt", order="given")`` step for step.
    A quiet frontier needs no round at all.
    """

    potential_telemetry = False

    def __init__(self, engine: IncrementalRMGP, penalty: float, **kwargs):
        super().__init__("RMGP_incremental", engine.instance, **kwargs)
        self.engine_state = engine
        self.penalty = penalty
        self.assignment = engine.assignment
        self.active = engine._active
        self.table = engine._table
        self.sweep = range(engine.instance.n)
        self.baseline = engine.assignment.copy()
        self.rounds = [RoundStats(0, 0, self.clock.lap())]

    def quiet(self) -> bool:
        return not self.active.any_dirty()

    def step(self):
        deviations, examined = table_round(
            self.instance, self.table, self.assignment, self.active,
            self.sweep,
        )
        return deviations, examined, examined

    def checkpoint(self) -> SolveCheckpoint:
        checkpoint = self.engine_state.to_checkpoint()
        if self.penalty > 0.0:
            # Strip the in-flight penalty and re-widen the frontier so
            # the restored engine sees the real game.
            table = checkpoint.state["table"]
            table[np.arange(self.instance.n), self.baseline] += self.penalty
            checkpoint.frontier |= ~happiness(table, checkpoint.assignment)
        return checkpoint


def _solve_incremental(
    instance: RMGPInstance,
    init: str = "closest",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
    mutations: Optional[Sequence] = None,
    movement_penalty: Optional[float] = None,
) -> PartitionResult:
    """Registry entry point: a one-shot solve through a live engine.

    The ``partition(instance, solver="inc", ...)`` path.  ``mutations``
    is a sequence of objects exposing ``apply_to(engine)`` (the
    :mod:`repro.streaming` mutation algebra — core stays import-free of
    it via duck typing), applied in order *after* the initial placement
    (or after checkpoint restore) and *before* the final resolve, in one
    :meth:`IncrementalRMGP.batch`.

    Composition with the PR-4 machinery:

    * ``resume_from`` restores the engine against the **pre-mutation**
      instance (the checkpoint fingerprint pins its topology), then the
      mutations are replayed live — the documented semantics for
      "mutations arriving against a checkpointed/resumed solve".
    * ``budget`` / ``checkpoint_*`` thread straight into
      :meth:`IncrementalRMGP.resolve`, so deadlines, cancellation and
      periodic checkpoints apply to the post-mutation drain.
    """
    if resume_from is not None:
        engine = IncrementalRMGP.from_checkpoint(
            instance, resume_from, recorder=recorder
        )
    else:
        engine = IncrementalRMGP(
            instance, init=init, seed=seed, recorder=recorder,
            warm_start=warm_start, auto_resolve=False,
        )
        if mutations:
            # The pre-mutation equilibrium is the warm start the paper's
            # Section 3.1 suggests; without it the "incremental" solve
            # would just be RMGP_gt on the mutated instance.
            engine.resolve(max_rounds=max_rounds, recorder=recorder)
    if mutations:
        with engine.batch():
            for mutation in mutations:
                mutation.apply_to(engine)
    return engine.resolve(
        max_rounds=max_rounds,
        recorder=recorder,
        budget=budget,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        movement_penalty=movement_penalty,
    )
