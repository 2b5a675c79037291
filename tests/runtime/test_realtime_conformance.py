"""Real-time conformance suite over every registry solver.

Pins the three guarantees of the execution layer (ISSUE 4):

* **Resumability** — interrupting a solve at round ``r`` and resuming
  from its checkpoint reproduces the uninterrupted trajectory
  byte-identically (same assignment, same round count) for every solver
  in the registry.
* **stop_reason semantics** — ``"converged"`` on a finished solve,
  ``"cancelled"`` on a token interrupt, ``"deadline"`` on budget expiry,
  ``"max_rounds"`` for the synchronous ablation's non-raising exhaustion.
* **Anytime degradation** — a deadline expiry on a manual clock (no
  wall-clock involved) returns a *valid* assignment whose potential is
  no worse than the initial one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolveOptions, partition
from repro.core.objective import potential
from repro.obs import recording
from repro.runtime import (
    CancelToken,
    CountdownToken,
    RuntimeBudget,
    SteppingClock,
)
from tests.core.conftest import random_instance

#: registry name -> required solver kwargs (sync is damped so the
#: dynamics converge; cap/minpart need their constraint arguments).
SOLVER_CASES = {
    "b": {},
    "se": {},
    "is": {},
    "gt": {},
    "all": {},
    "vec": {},
    "mg": {},
    "sync": {"damping": 0.7},
    "cap": {"capacities": [12] * 4},
    "minpart": {"min_participants": 2},
}

#: solvers whose kernels accept a warm start (cap/minpart do not).
WARM_START_SOLVERS = [
    name for name in SOLVER_CASES if name not in ("cap", "minpart")
]

SEED = 3


def counter_total(recorder, name):
    return sum(m.value for m in recorder.metrics if m.name == name)


@pytest.mark.parametrize("name", sorted(SOLVER_CASES))
@pytest.mark.parametrize("interrupt_round", [0, 1, 2])
def test_interrupt_resume_byte_identical(tmp_path, name, interrupt_round):
    """Interrupt-at-round-r + resume == uninterrupted, byte for byte."""
    instance = random_instance()
    extra = SOLVER_CASES[name]
    reference = partition(instance, solver=name, seed=SEED, **extra)

    path = str(tmp_path / "solve.ckpt.json")
    token = CountdownToken(interrupt_round)
    partial = partition(
        instance, solver=name, seed=SEED, cancel_token=token,
        checkpoint_path=path, **extra,
    )
    if partial.converged:
        # The solve finished before the token fired (few round
        # boundaries on this small instance) — nothing to resume.
        assert np.array_equal(partial.assignment, reference.assignment)
        return
    assert partial.stop_reason == "cancelled"
    instance.validate_assignment(partial.assignment)
    resumed = partition(
        instance, solver=name, seed=SEED, resume_from=path, **extra,
    )
    assert np.array_equal(resumed.assignment, reference.assignment)
    assert resumed.num_rounds == reference.num_rounds
    assert resumed.converged == reference.converged
    assert resumed.stop_reason == reference.stop_reason


def test_minpart_multi_stage_interrupt_resume(tmp_path):
    """Resume across minpart's cancel-and-resolve stage boundaries."""
    instance = random_instance(num_players=40, num_classes=8, seed=1)
    kwargs = dict(min_participants=8, seed=4)
    reference = partition(instance, solver="minpart", **kwargs)
    assert reference.extra["canceled"], "config must cancel classes"

    for interrupt_round in (1, 4, 7):
        path = str(tmp_path / f"minpart{interrupt_round}.ckpt.json")
        token = CountdownToken(interrupt_round)
        partial = partition(
            instance, solver="minpart", cancel_token=token,
            checkpoint_path=path, **kwargs,
        )
        assert not partial.converged
        assert partial.stop_reason == "cancelled"
        resumed = partition(
            instance, solver="minpart", resume_from=path, **kwargs,
        )
        assert np.array_equal(resumed.assignment, reference.assignment)
        assert resumed.extra["canceled"] == reference.extra["canceled"]
        assert resumed.extra["rounds_total"] == reference.extra["rounds_total"]


@pytest.mark.parametrize("name", sorted(SOLVER_CASES))
def test_stop_reason_converged_without_budget(name):
    result = partition(
        instance := random_instance(), solver=name, seed=SEED,
        **SOLVER_CASES[name],
    )
    assert result.stop_reason == "converged"
    assert result.converged
    instance.validate_assignment(result.assignment)


@pytest.mark.parametrize("name", sorted(SOLVER_CASES))
def test_cancel_before_first_round(name):
    instance = random_instance()
    token = CancelToken()
    token.cancel()
    result = partition(
        instance, solver=name, seed=SEED, cancel_token=token,
        **SOLVER_CASES[name],
    )
    assert not result.converged
    assert result.stop_reason == "cancelled"
    instance.validate_assignment(result.assignment)
    # The shared result contract: players the next round would examine.
    assert 0 < result.extra["remaining_frontier"] <= instance.n


def test_sync_max_rounds_exhaustion_reports_stop_reason():
    instance = random_instance()
    result = partition(
        instance, solver="sync", seed=SEED, max_rounds=1, damping=0.7
    )
    assert not result.converged
    assert result.stop_reason == "max_rounds"


@pytest.mark.parametrize("name", WARM_START_SOLVERS)
def test_deadline_on_manual_clock_is_anytime(name):
    """Deadline expiry yields a valid assignment with Phi <= initial Phi.

    The SteppingClock makes every round boundary cost one simulated
    second, so a 1.5s deadline admits exactly one round — no wall clock
    involved, the test is fully deterministic.
    """
    instance = random_instance()
    warm = (np.arange(instance.n, dtype=np.int64) * 3) % instance.k
    initial_phi = potential(instance, warm)
    budget = RuntimeBudget(deadline_seconds=1.5, clock=SteppingClock())
    result = partition(
        instance, solver=name, seed=SEED, warm_start=warm.copy(),
        options=SolveOptions(budget=budget), **SOLVER_CASES[name],
    )
    instance.validate_assignment(result.assignment)
    if result.converged:
        assert result.stop_reason == "converged"
    else:
        assert result.stop_reason == "deadline"
        assert 0 <= result.extra["remaining_frontier"] <= instance.n
    assert potential(instance, result.assignment) <= initial_phi + 1e-9


@pytest.mark.parametrize("name", ["cap", "minpart"])
def test_deadline_on_manual_clock_constrained_solvers(name):
    instance = random_instance()
    budget = RuntimeBudget(deadline_seconds=1.5, clock=SteppingClock())
    result = partition(
        instance, solver=name, seed=SEED,
        options=SolveOptions(budget=budget), **SOLVER_CASES[name],
    )
    instance.validate_assignment(result.assignment)
    assert result.stop_reason in ("converged", "deadline")
    assert result.converged == (result.stop_reason == "converged")


def test_periodic_checkpoints_written(tmp_path):
    from repro.core.serialize import load_checkpoint

    path = str(tmp_path / "periodic.ckpt.json")
    instance = random_instance()
    result = partition(
        instance, solver="gt", seed=SEED, checkpoint_every=1,
        checkpoint_path=path,
    )
    assert result.converged
    checkpoint = load_checkpoint(path)
    checkpoint.validate_for(instance, "RMGP_gt")
    assert checkpoint.round_index >= 1


def test_checkpoint_every_requires_path():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        partition(random_instance(), solver="gt", seed=SEED,
                  checkpoint_every=2)


def test_obs_counters_for_interrupt_and_checkpoint(tmp_path):
    path = str(tmp_path / "obs.ckpt.json")
    instance = random_instance()
    with recording() as recorder:
        partition(
            instance, solver="gt", seed=SEED,
            cancel_token=CountdownToken(1), checkpoint_path=path,
        )
    assert counter_total(recorder, "solver.cancellations") == 1
    assert counter_total(recorder, "solver.checkpoint_writes") >= 1

    with recording() as recorder:
        partition(instance, solver="gt", seed=SEED, resume_from=path)
    assert counter_total(recorder, "solver.checkpoint_restores") == 1

    budget = RuntimeBudget(deadline_seconds=1.5, clock=SteppingClock())
    with recording() as recorder:
        result = partition(
            instance, solver="b", seed=SEED,
            options=SolveOptions(budget=budget),
        )
    assert not result.converged
    assert counter_total(recorder, "solver.deadline_hits") == 1


def test_no_budget_solve_is_byte_identical_to_plain():
    """The runtime layer must be invisible when no knob is set."""
    instance = random_instance()
    plain = partition(instance, solver="gt", seed=SEED)
    again = partition(instance, solver="gt", seed=SEED)
    assert np.array_equal(plain.assignment, again.assignment)
    assert plain.stop_reason == again.stop_reason == "converged"


class TestWarmStartValidation:
    """Satellite: partition() validates warm starts before dispatch."""

    def test_wrong_shape(self):
        from repro.errors import ConfigurationError

        instance = random_instance()
        with pytest.raises(ConfigurationError, match="shape"):
            partition(instance, solver="gt",
                      warm_start=np.zeros(instance.n + 1, dtype=np.int64))

    def test_float_dtype_rejected(self):
        from repro.errors import ConfigurationError

        instance = random_instance()
        with pytest.raises(ConfigurationError, match="integer"):
            partition(instance, solver="gt",
                      warm_start=np.zeros(instance.n))

    def test_out_of_range_classes(self):
        from repro.errors import ConfigurationError

        instance = random_instance()
        bad = np.zeros(instance.n, dtype=np.int64)
        bad[-1] = instance.k
        with pytest.raises(ConfigurationError, match=r"\[0, "):
            partition(instance, solver="gt", warm_start=bad)
        bad[-1] = -1
        with pytest.raises(ConfigurationError, match=r"\[0, "):
            partition(instance, solver="gt", warm_start=bad)

    def test_valid_warm_start_accepted_via_options(self):
        instance = random_instance()
        warm = np.zeros(instance.n, dtype=np.int64)
        result = partition(instance, solver="gt", seed=SEED,
                           options=SolveOptions(warm_start=warm))
        assert result.converged
