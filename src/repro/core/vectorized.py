"""RMGP_vec — RMGP_is's group-batched rounds without a sweep order.

Players of one color group are pairwise non-adjacent, so their best
responses against the current profile are independent and the whole
group is evaluated as one batched numpy computation (Section 4.2; see
:mod:`repro.core.independent_sets` for the kernel).  RMGP_vec runs those
same rounds over the groups in coloring order: player ordering inside a
group is irrelevant (the batch is committed atomically), so there is no
``order`` knob and the RNG is drawn only for a random initial profile.
Convergence and quality guarantees are exactly RMGP_is's (same game,
same schedule).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core import dynamics
from repro.core.independent_sets import solve_group_rounds
from repro.core.instance import RMGPInstance
from repro.core.result import PartitionResult
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget


def _solve_vectorized(
    instance: RMGPInstance,
    init: str = "closest",
    seed: Optional[int] = None,
    warm_start: Optional[np.ndarray] = None,
    max_rounds: int = dynamics.DEFAULT_MAX_ROUNDS,
    coloring: Optional[Dict] = None,
    exact_scale: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    budget: Optional[RuntimeBudget] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from=None,
) -> PartitionResult:
    """Run the vectorized group-batched dynamics.

    Parameters mirror the RMGP_is solver's, without ``order`` and
    ``threads``.  Checkpoints store only the groups: batch arrays and
    per-round costs are pure functions of (instance, groups), so a
    resume rebuilds them bit-identically.

    ``exact_scale`` switches the scatter to Lemma 2 integer fixed point
    (:mod:`repro.core.exact`).
    """
    return solve_group_rounds(
        "RMGP_vec", instance,
        init=init, order=None, warm_start=warm_start, coloring=coloring,
        threads=None, exact_scale=exact_scale,
        seed=seed, max_rounds=max_rounds, recorder=recorder, budget=budget,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
