"""Shared machinery for best-response dynamics (Figure 2).

Every RMGP variant follows the same skeleton: pick an initial strategy
profile, then sweep the players in rounds, replacing each player's
strategy by his best response, until a full round produces no deviation.
This module centralizes the two knobs the paper evaluates in Section 6.3:

* **Initialization** (Figure 3 line 2): ``"random"`` or ``"closest"``
  (minimum assignment cost — "the closest event"), or warm-starting from
  a previous solution ("the solution of the last execution can be used as
  the seed of the next one", Section 3.1).
* **Player ordering** (Figure 3 line 5): ``"random"``, ``"given"``
  (insertion order), or ``"degree"`` — decreasing degree, so "strategy
  changes of highly connected users (community leaders) will propagate
  fast" (Section 3.1).

It also hosts :class:`ActiveSet`, the dirty-frontier scheduler shared by
every best-response solver: rounds examine only players whose costs may
have changed since their last examination, which is equivalent to the
full sweep move for move (see the class docstring for the argument), and
:class:`RoundLoop`, the one round driver every solver runs on.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.instance import RMGPInstance
from repro.core.objective import potential
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.errors import ConfigurationError, ConvergenceError, DataError
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.checkpoint import SolveCheckpoint, rounds_to_payload
from repro.runtime.executor import SolveRuntime, load_resume

#: Safety valve for the round loop.  Lemma 2 bounds rounds by
#: ``max{C*, W*}``, which is finite but instance-dependent; this default is
#: far above anything observed in practice (the paper reports 5-17 rounds).
DEFAULT_MAX_ROUNDS = 10_000

#: Minimum strict improvement for a deviation; guards against
#: floating-point jitter breaking termination.
DEVIATION_TOLERANCE = 1e-12

INIT_METHODS = ("random", "closest")
ORDER_METHODS = ("random", "given", "degree")


def initial_assignment(
    instance: RMGPInstance,
    method: str = "random",
    rng: Optional[random.Random] = None,
    warm_start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Build the initial strategy vector.

    ``warm_start`` (a previous solve's assignment) overrides ``method``.
    """
    if warm_start is not None:
        instance.validate_assignment(warm_start)
        return np.asarray(warm_start, dtype=np.int64).copy()
    if method == "random":
        rng = rng or random.Random()
        return np.fromiter(
            (rng.randrange(instance.k) for _ in range(instance.n)),
            dtype=np.int64,
            count=instance.n,
        )
    if method == "closest":
        return instance.closest_classes()
    raise ConfigurationError(
        f"unknown init method {method!r}; expected one of {INIT_METHODS}"
    )


def player_order(
    instance: RMGPInstance,
    method: str = "random",
    rng: Optional[random.Random] = None,
) -> List[int]:
    """Order in which a round examines players."""
    if method == "degree":
        return instance.degree_order()
    players = list(range(instance.n))
    if method == "given":
        return players
    if method == "random":
        rng = rng or random.Random()
        rng.shuffle(players)
        return players
    raise ConfigurationError(
        f"unknown order method {method!r}; expected one of {ORDER_METHODS}"
    )


class ActiveSet:
    """Dirty-frontier scheduler for best-response rounds.

    The paper observes that "strategy changes ... propagate" outward from
    movers (§3.1): after the first round only a shrinking frontier of
    players can possibly improve.  ``ActiveSet`` tracks that frontier as
    a boolean dirty array — a round examines only dirty players, clears
    each flag at examination, and a player's *move* marks exactly its
    CSR neighbor slice dirty.

    Equivalence to the full sweep: a clean player's strategy costs are
    unchanged since he was last examined (none of his friends moved), so
    examining him is provably a no-op — skipping clean players reproduces
    the full-sweep move sequence *exactly*, and "frontier empty" implies
    a quiet full sweep (a pure Nash equilibrium, Theorem 1).
    """

    def __init__(self, n: int, dirty: Optional[np.ndarray] = None) -> None:
        if dirty is None:
            self.flags = np.ones(n, dtype=bool)
        else:
            self.flags = np.array(dirty, dtype=bool, copy=True)
            if self.flags.shape != (n,):
                raise ConfigurationError(
                    f"dirty flags have shape {self.flags.shape}, expected ({n},)"
                )

    def mark(self, players) -> None:
        """Flag ``players`` (array/list of indices) for re-examination."""
        self.flags[players] = True

    def clear(self, players) -> None:
        """Unflag ``players`` after their best responses were computed."""
        self.flags[players] = False

    def any_dirty(self) -> bool:
        """True while the frontier is non-empty (game may be unquiet)."""
        return bool(self.flags.any())

    def count(self) -> int:
        """Current frontier size (the accurate ``players_examined``)."""
        return int(self.flags.sum())


class RoundClock:
    """Tiny helper timing each round with ``time.perf_counter``."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._last = self._start

    def lap(self) -> float:
        """Seconds since the previous lap (or construction)."""
        now = time.perf_counter()
        elapsed = now - self._last
        self._last = now
        return elapsed

    def total(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start


def check_round_budget(round_index: int, max_rounds: int, solver: str) -> None:
    """Raise :class:`ConvergenceError` when the budget is exhausted."""
    if round_index > max_rounds:
        raise ConvergenceError(
            f"{solver} exceeded {max_rounds} rounds without reaching an "
            "equilibrium; this should be impossible for a correct exact "
            "potential game — check that costs are static across rounds"
        )


def checked_players(
    players: Sequence, n: int, what: str, count: Optional[int] = None
) -> List[int]:
    """Checkpointed player indices as ints, refusing corrupt ones.

    The indices must be distinct, lie in ``range(n)`` and number
    ``count`` (default ``n`` — a permutation of the players).
    """
    players = [int(p) for p in players]
    expected = n if count is None else count
    if (
        len(players) != expected
        or len(set(players)) != len(players)
        or any(p < 0 or p >= n for p in players)
    ):
        raise DataError(
            f"checkpoint {what} must hold {expected} distinct indices "
            f"from range({n})"
        )
    return players


def checked_array(
    value: Any, shape: Tuple[int, ...], dtype, what: str
) -> np.ndarray:
    """A checkpointed array, refused unless shape and dtype match.

    Returns a private C-contiguous copy: a resumed solve writes its
    state in place and must never write into the caller's checkpoint.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {what} is not an array: {exc!r}") from exc
    if array.shape != shape or array.dtype != np.dtype(dtype):
        raise DataError(
            f"checkpoint {what} has shape {array.shape} and dtype "
            f"{array.dtype}, expected {shape} and {np.dtype(dtype)}"
        )
    return array.copy()


class RoundLoop:
    """The best-response round driver every solver runs on (Figure 2).

    A solver subclasses this and supplies only its own parts:

    * :meth:`init` — round 0 (initial assignment, schedules, tables);
      runs inside the ``round`` span tagged ``phase="init"``;
    * :meth:`step` — one round, returning
      ``(deviations, examined, cost_evaluations)``;
    * :meth:`state` / :meth:`restore` — its checkpoint ``state`` dict,
      and the validating inverse used on resume;
    * optionally :meth:`frontier`, :meth:`extra`, :meth:`done`,
      :meth:`after_round` and :meth:`final_assignment`.

    The loop owns everything else: the ``solve`` and per-round spans,
    resume of the common checkpoint fields (assignment, frontier, RNG,
    round trace), the real-time budget check before every round, the
    ``max_rounds`` valve, ``rec.round_end`` telemetry, the
    :class:`RoundStats` trace, periodic and interrupt checkpoints, and
    the :class:`PartitionResult` with ``stop_reason`` and
    ``extra["remaining_frontier"]`` on every unconverged result.

    ``self.assignment`` and ``self.active`` (an :class:`ActiveSet`, or
    ``None`` when ``uses_frontier`` is false) are the shared state;
    ``self.rng`` is the seeded RNG whose state rides in checkpoints.
    ``checkpoint_as``/``stage_state`` let a composite solver label a
    stage's checkpoints with its own name and ride its outer state along
    in them (``minpart``).
    """

    #: Rounds are scheduled by a checkpointed :class:`ActiveSet`; full-
    #: sweep and heap solvers checkpoint an empty frontier instead.
    uses_frontier = True
    #: Record Φ on every :class:`RoundStats` entry, round 0 included.
    track_potential = False
    #: Attach Φ to each round's telemetry (evaluated only when traced).
    potential_telemetry = True
    #: Open a ``round`` span per round.
    round_spans = True
    #: ``max_rounds`` exhaustion ends the solve (``stop_reason=
    #: "max_rounds"``) instead of raising :class:`ConvergenceError`.
    exhaust_quietly = False
    #: ``players_examined`` of round 0.
    init_examined = 0
    #: Inputs of :meth:`initial_assignment` (``init`` method, warm start).
    init_method = "closest"
    warm_start: Optional[np.ndarray] = None

    def __init__(
        self,
        name: str,
        instance: RMGPInstance,
        *,
        seed: Optional[int] = None,
        max_rounds: Optional[int] = DEFAULT_MAX_ROUNDS,
        recorder: Optional[Recorder] = None,
        budget: Optional[RuntimeBudget] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        resume_from=None,
        checkpoint_as: Optional[str] = None,
        stage_state: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.instance = instance
        self.max_rounds = max_rounds
        self.rec = active_recorder(recorder)
        self.rng = random.Random(seed)
        self.clock = RoundClock()
        self.runtime = SolveRuntime.create(
            budget=budget,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            recorder=self.rec,
        )
        self.checkpoint_as = checkpoint_as or name
        self.stage_state = stage_state or {}
        self.restored = load_resume(
            resume_from, instance, self.checkpoint_as, self.rec
        )
        self.assignment: Optional[np.ndarray] = None
        self.active: Optional[ActiveSet] = (
            ActiveSet(instance.n) if self.uses_frontier else None
        )
        self.rounds: List[RoundStats] = []
        self.round_index = 0
        self.converged = False

    # -- solver hooks ---------------------------------------------------
    def init(self, span) -> None:
        """Round 0: set ``self.assignment`` (and the frontier)."""
        raise NotImplementedError

    def step(self) -> Tuple[int, int, int]:
        """One round: ``(deviations, examined, cost_evaluations)``."""
        raise NotImplementedError

    def state(self) -> Dict[str, Any]:
        """Solver-specific checkpoint state."""
        return {}

    def restore(self, state: Dict[str, Any]) -> None:
        """Validate and adopt :meth:`state` output on resume."""

    def initial_assignment(self) -> np.ndarray:
        return initial_assignment(
            self.instance, self.init_method, self.rng, self.warm_start
        )

    def frontier(self) -> int:
        """Players the next round would examine."""
        if self.active is not None:
            return self.active.count()
        return self.instance.n

    def potential(self) -> float:
        return potential(self.instance, self.assignment)

    def quiet(self) -> bool:
        """True when no round is needed at all (checked before each)."""
        return False

    def done(self, deviations: int) -> bool:
        """Convergence test after a round: a round without deviation."""
        return deviations == 0

    def after_round(self, deviations: int) -> bool:
        """Post-round bookkeeping; True stops the solve unconverged."""
        return False

    def extra(self) -> Dict[str, Any]:
        """Solver-specific ``PartitionResult.extra`` diagnostics."""
        return {}

    def final_assignment(self) -> np.ndarray:
        return self.assignment

    # -- driver ---------------------------------------------------------
    def run(self, **span_attrs: Any) -> PartitionResult:
        """Initialize or resume, drive rounds to a stop, build the result."""
        instance = self.instance
        with self.rec.span(
            "solve", solver=self.name, n=instance.n, k=instance.k,
            **span_attrs,
        ):
            self.start()
            self.drive()
        return self.result(self.extra())

    def start(self) -> None:
        """Round 0, or the resumed state of a checkpoint."""
        if self.restored is not None:
            self._resume(self.restored)
            return
        with self.rec.span("round", round=0, phase="init") as span:
            self.init(span)
        self.rounds = [
            RoundStats(
                round_index=0,
                deviations=0,
                seconds=self.clock.lap(),
                potential=self.potential() if self.track_potential else None,
                players_examined=self.init_examined,
            )
        ]

    def _resume(self, checkpoint: SolveCheckpoint) -> None:
        """Restore the common fields, then the solver's own state.

        Fails closed with :class:`DataError` before round 1 on any
        corrupt field.
        """
        n = self.instance.n
        expected = (n,) if self.uses_frontier else (0,)
        frontier = np.asarray(checkpoint.frontier)
        if frontier.shape != expected:
            raise DataError(
                f"checkpoint frontier has shape {frontier.shape}, expected "
                f"{expected}"
            )
        rounds = checkpoint.restored_rounds()
        if checkpoint.round_index < 0 or len(rounds) != (
            checkpoint.round_index + 1
        ):
            raise DataError(
                f"checkpoint round trace has {len(rounds)} entries for "
                f"round_index {checkpoint.round_index}"
            )
        self.assignment = checkpoint.assignment.copy()
        if self.active is not None:
            self.active = ActiveSet(n, dirty=frontier)
        try:
            if checkpoint.rng_state is not None:
                self.rng.setstate(checkpoint.rng_state)
            self.restore(checkpoint.state)
        except (
            ConfigurationError, IndexError, KeyError, OverflowError,
            TypeError, ValueError,
        ) as exc:
            raise DataError(
                f"malformed {self.checkpoint_as} checkpoint state: {exc!r}"
            ) from exc
        self.rounds = rounds
        self.round_index = checkpoint.round_index

    def drive(self) -> None:
        """The round loop: best-response rounds until a quiet round."""
        rec = self.rec
        runtime = self.runtime
        while True:
            if self.quiet():
                self.converged = True
                break
            if self.exhaust_quietly and self.round_index >= self.max_rounds:
                break
            if runtime is not None and runtime.check(self.round_index + 1):
                break
            self.round_index += 1
            if self.max_rounds is not None and not self.exhaust_quietly:
                check_round_budget(self.round_index, self.max_rounds, self.name)
            with (
                rec.span("round", round=self.round_index)
                if self.round_spans
                else nullcontext()
            ) as span:
                deviations, examined, evaluations = self.step()
            rec.round_end(
                span, self.name, self.round_index,
                deviations=deviations,
                examined=examined,
                cost_evaluations=evaluations,
                frontier_fn=self.frontier,
                potential_fn=(
                    self.potential if self.potential_telemetry else None
                ),
            )
            self.rounds.append(
                RoundStats(
                    round_index=self.round_index,
                    deviations=deviations,
                    seconds=self.clock.lap(),
                    potential=(
                        self.potential() if self.track_potential else None
                    ),
                    players_examined=examined,
                )
            )
            stop = self.after_round(deviations)
            if self.done(deviations):
                self.converged = True
                break
            if stop:
                break
            if runtime is not None:
                runtime.note_round(self.round_index, self.checkpoint)
        if runtime is not None:
            runtime.finalize(self.checkpoint)

    def checkpoint(self) -> SolveCheckpoint:
        """The resumable snapshot at the current round boundary."""
        state = self.state()
        state.update(self.stage_state)
        return SolveCheckpoint(
            solver=self.checkpoint_as,
            round_index=self.round_index,
            assignment=self.assignment.copy(),
            frontier=(
                self.active.flags.copy()
                if self.active is not None
                else np.zeros(0, dtype=bool)
            ),
            rng_state=self.rng.getstate(),
            rounds=rounds_to_payload(self.rounds),
            state=state,
            fingerprint=SolveCheckpoint.fingerprint_of(self.instance),
        )

    def result(self, extra: Dict[str, Any]) -> PartitionResult:
        if not self.converged:
            extra["remaining_frontier"] = self.frontier()
        return make_result(
            solver=self.name,
            instance=self.instance,
            assignment=self.final_assignment(),
            rounds=self.rounds,
            converged=self.converged,
            wall_seconds=self.clock.total(),
            extra=extra,
            stop_reason=(
                self.runtime.stop_reason if self.runtime is not None else None
            ),
        )
