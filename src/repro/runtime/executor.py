"""The per-solve runtime driver behind every solver's round loop.

:class:`SolveRuntime` bundles the three real-time concerns — budget
checks, periodic checkpoint writes, and observability — behind two calls
per round boundary, and :func:`SolveRuntime.create` returns ``None``
when no real-time option is set, so the default path costs the round
loop a single ``if runtime is not None`` per round (pinned by the perf
gates).

The one caller is :class:`repro.core.dynamics.RoundLoop`: it calls
:meth:`SolveRuntime.check` before every round (anytime: a trip keeps the
current assignment), :meth:`SolveRuntime.note_round` after every
unconverged round and :meth:`SolveRuntime.finalize` after the last,
passing its ``checkpoint`` method as the zero-argument snapshot builder.
The builder is only invoked when a write is actually due, so
uninterrupted solves without ``checkpoint_every`` never pay for snapshot
construction.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.recorder import Recorder, active_recorder
from repro.runtime.budget import RuntimeBudget, SolveInterrupted
from repro.runtime.checkpoint import SolveCheckpoint


class SolveRuntime:
    """Budget + checkpoint driver for one solve (or one composite solve).

    Created once per round loop via :meth:`create`; ``minpart`` hands
    one budget to all of its cancel-and-resolve stages so the deadline
    spans the whole composition.
    """

    @classmethod
    def create(
        cls,
        budget: Optional[RuntimeBudget] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        recorder: Optional[Recorder] = None,
    ) -> Optional["SolveRuntime"]:
        """Build a runtime, or ``None`` when no real-time option is set."""
        if budget is None and checkpoint_every is None and checkpoint_path is None:
            return None
        return cls(
            budget=budget,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            recorder=recorder,
        )

    def __init__(
        self,
        budget: Optional[RuntimeBudget] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ConfigurationError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_path is None:
                raise ConfigurationError(
                    "checkpoint_every requires checkpoint_path"
                )
        self.budget = budget
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.rec = active_recorder(recorder)
        self.interrupt: Optional[SolveInterrupted] = None
        if budget is not None:
            budget.start()

    # -- budget ---------------------------------------------------------
    @property
    def interrupted(self) -> bool:
        return self.interrupt is not None

    @property
    def stop_reason(self) -> Optional[str]:
        """``"deadline"``/``"cancelled"`` once tripped, else ``None``."""
        return self.interrupt.reason if self.interrupt is not None else None

    def check(self, next_round_index: int) -> bool:
        """Round-boundary budget check; True means "stop before this round".

        Once tripped the runtime stays tripped (``minpart`` relies on
        this to unwind its outer stage loop).
        """
        if self.interrupt is not None:
            return True
        if self.budget is None:
            return False
        interrupt = self.budget.check(next_round_index)
        if interrupt is None:
            return False
        self.interrupt = interrupt
        if interrupt.reason == "cancelled":
            self.rec.count("solver.cancellations")
        else:
            self.rec.count("solver.deadline_hits")
        self.rec.event(
            "solver.interrupted",
            reason=interrupt.reason,
            round_index=interrupt.round_index,
            elapsed_seconds=interrupt.elapsed_seconds,
        )
        return True

    # -- checkpoints ----------------------------------------------------
    def note_round(
        self,
        round_index: int,
        make_checkpoint: Callable[[], SolveCheckpoint],
    ) -> None:
        """Periodic checkpointing: write every ``checkpoint_every`` rounds."""
        if (
            self.checkpoint_every is not None
            and round_index >= 1
            and round_index % self.checkpoint_every == 0
        ):
            self.save(make_checkpoint())

    def finalize(
        self, make_checkpoint: Callable[[], SolveCheckpoint]
    ) -> None:
        """Post-loop hook: persist the interrupt point for later resume.

        Writes only when the solve was interrupted *and* a checkpoint
        path is configured — converged solves need no resume point, and
        periodic snapshots (``note_round``) already cover crash
        recovery for long uninterrupted solves.
        """
        if self.interrupt is not None and self.checkpoint_path is not None:
            self.save(make_checkpoint())

    def save(self, checkpoint: SolveCheckpoint) -> None:
        """Write one checkpoint to ``checkpoint_path``."""
        if self.checkpoint_path is None:
            raise ConfigurationError(
                "cannot save a checkpoint without checkpoint_path"
            )
        from repro.core.serialize import save_checkpoint

        with self.rec.span("runtime.checkpoint_write"):
            save_checkpoint(checkpoint, self.checkpoint_path)
        self.rec.count("solver.checkpoint_writes")
        self.rec.event(
            "solver.checkpoint_written",
            path=self.checkpoint_path,
            round_index=checkpoint.round_index,
        )


def load_resume(
    resume_from: Union[None, str, SolveCheckpoint],
    instance,
    solver: str,
    recorder: Optional[Recorder] = None,
) -> Optional[SolveCheckpoint]:
    """Resolve a kernel's ``resume_from`` argument into a checkpoint.

    Accepts a path (loaded via :func:`repro.core.serialize.load_checkpoint`)
    or an in-memory :class:`SolveCheckpoint`; either way the checkpoint is
    validated against the instance and the solver variant before the
    kernel touches it.  Returns ``None`` when ``resume_from`` is ``None``.
    """
    if resume_from is None:
        return None
    rec = active_recorder(recorder)
    if isinstance(resume_from, SolveCheckpoint):
        checkpoint = resume_from
    else:
        from repro.core.serialize import load_checkpoint

        checkpoint = load_checkpoint(resume_from)
    checkpoint.validate_for(instance, solver)
    rec.count("solver.checkpoint_restores")
    rec.event(
        "solver.checkpoint_restored",
        solver=solver,
        round_index=checkpoint.round_index,
    )
    return checkpoint
