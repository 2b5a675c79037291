"""UML_lp — the Kleinberg–Tardos LP relaxation with randomized rounding.

RMGP is an instance of Uniform Metric Labeling (Section 2.1).  The
classic 2-approximation relaxes the ILP

    min  α·Σ_v Σ_p c(v,p)·x_vp + (1−α)·Σ_e w_e · ½·Σ_p z_ep
    s.t. Σ_p x_vp = 1                    ∀ v
         z_ep ≥ x_up − x_vp              ∀ e=(u,v), p
         z_ep ≥ x_vp − x_up              ∀ e=(u,v), p
         x, z ≥ 0

(``½·Σ_p |x_up − x_vp|`` is the variation distance, which equals the cut
indicator on integral solutions) and rounds the fractional solution with
Kleinberg–Tardos ball rounding: repeatedly draw a class ``p`` and a
threshold ``θ ∈ (0, 1]`` and assign every still-unassigned user with
``x_vp ≥ θ`` to ``p``.

The paper solved this LP with CVX; we use ``scipy.optimize.linprog``
(HiGHS), which is an equivalent simplex/IPM solver.  As the paper notes,
"in most settings the linear relaxation gave integral solutions", in
which case rounding is a no-op and the output is optimal.
"""

from __future__ import annotations

import random
import time
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.core.instance import RMGPInstance
from repro.core.objective import objective
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.errors import SolverError

#: Values this close to 0/1 are treated as integral.
INTEGRALITY_TOLERANCE = 1e-6


def solve_uml_lp(
    instance: RMGPInstance,
    seed: Optional[int] = None,
    rounding_trials: int = 25,
) -> PartitionResult:
    """Run UML_lp on ``instance``.

    ``rounding_trials`` independent KT roundings are drawn and the best
    (by the true Equation 1 objective) is kept — a standard derandomizing
    practice that can only improve on a single draw.

    The result's ``extra`` records the LP lower bound (``lp_value``),
    whether the relaxation was integral, and the rounded/LP gap.
    """
    start = time.perf_counter()
    fractional, lp_value = _solve_relaxation(instance)

    integral = bool(
        np.all(
            (fractional < INTEGRALITY_TOLERANCE)
            | (fractional > 1.0 - INTEGRALITY_TOLERANCE)
        )
    )
    if integral:
        assignment = fractional.argmax(axis=1).astype(np.int64)
    else:
        assignment = _best_rounding(instance, fractional, seed, rounding_trials)

    elapsed = time.perf_counter() - start
    result = make_result(
        solver="UML_lp",
        instance=instance,
        assignment=assignment,
        rounds=[RoundStats(round_index=0, deviations=0, seconds=elapsed)],
        converged=True,
        wall_seconds=elapsed,
        extra={
            "lp_value": lp_value,
            "lp_integral": integral,
            "approximation_ratio_bound": 2.0,
        },
    )
    result.extra["rounding_gap"] = (
        result.value.total / lp_value if lp_value > 0 else 1.0
    )
    return result


def lp_lower_bound(instance: RMGPInstance) -> float:
    """The LP optimum — a certified lower bound on any labeling's cost."""
    _, value = _solve_relaxation(instance)
    return value


def _solve_relaxation(instance: RMGPInstance) -> "tuple[np.ndarray, float]":
    """Solve the KT relaxation; returns ``(x as n x k matrix, LP value)``."""
    n, k = instance.n, instance.k
    alpha = instance.alpha
    edges = list(instance.graph.edges())
    m = len(edges)
    index_of = instance.index_of

    num_x = n * k
    num_z = m * k
    num_vars = num_x + num_z

    # Objective coefficients.
    c = np.zeros(num_vars, dtype=np.float64)
    c[:num_x] = alpha * instance.cost.view().ravel()
    for e, (_, _, w) in enumerate(edges):
        c[num_x + e * k : num_x + (e + 1) * k] = (1.0 - alpha) * 0.5 * w

    # Equality constraints: sum_p x_vp = 1 per node.
    eq_rows = np.repeat(np.arange(n), k)
    eq_cols = np.arange(num_x)
    a_eq = coo_matrix(
        (np.ones(num_x), (eq_rows, eq_cols)), shape=(n, num_vars)
    )
    b_eq = np.ones(n)

    # Inequalities: x_up - x_vp - z_ep <= 0 and x_vp - x_up - z_ep <= 0.
    rows, cols, vals = [], [], []
    row = 0
    for e, (u_id, v_id, _) in enumerate(edges):
        u, v = index_of[u_id], index_of[v_id]
        for p in range(k):
            xu = u * k + p
            xv = v * k + p
            z = num_x + e * k + p
            rows += [row, row, row]
            cols += [xu, xv, z]
            vals += [1.0, -1.0, -1.0]
            row += 1
            rows += [row, row, row]
            cols += [xv, xu, z]
            vals += [1.0, -1.0, -1.0]
            row += 1
    a_ub = coo_matrix((vals, (rows, cols)), shape=(row, num_vars))
    b_ub = np.zeros(row)

    bounds = [(0.0, 1.0)] * num_x + [(0.0, 1.0)] * num_z
    outcome = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not outcome.success:
        raise SolverError(f"LP relaxation failed: {outcome.message}")
    fractional = outcome.x[:num_x].reshape(n, k)
    # Clean tiny negatives from the solver.
    np.clip(fractional, 0.0, 1.0, out=fractional)
    return fractional, float(outcome.fun)


def _best_rounding(
    instance: RMGPInstance,
    fractional: np.ndarray,
    seed: Optional[int],
    trials: int,
) -> np.ndarray:
    """Best of ``trials`` independent KT ball roundings."""
    rng = random.Random(seed)
    best_assignment: Optional[np.ndarray] = None
    best_value = float("inf")
    for _ in range(max(1, trials)):
        assignment = _kt_rounding(instance, fractional, rng)
        value = objective(instance, assignment).total
        if value < best_value:
            best_value = value
            best_assignment = assignment
    assert best_assignment is not None
    return best_assignment


def _kt_rounding(
    instance: RMGPInstance, fractional: np.ndarray, rng: random.Random
) -> np.ndarray:
    """One Kleinberg–Tardos rounding pass."""
    n, k = fractional.shape
    assignment = np.full(n, -1, dtype=np.int64)
    remaining = n
    # Guard against pathological fractional mass (all-zero rows would
    # loop forever); fall back to argmax for such rows.
    degenerate = fractional.max(axis=1) <= 0
    for v in np.flatnonzero(degenerate):
        assignment[v] = 0
        remaining -= 1
    while remaining:
        p = rng.randrange(k)
        theta = rng.random()
        hit = (assignment < 0) & (fractional[:, p] >= theta) & (fractional[:, p] > 0)
        count = int(hit.sum())
        if count:
            assignment[hit] = p
            remaining -= count
    return assignment
