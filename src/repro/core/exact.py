"""Lemma 2 integer scaling: exact fixed-point best responses.

``exact_scale=N`` on ``is``/``vec`` quantizes the instance once to
``int64`` fixed point (:func:`exact_payload`); after that a strategy's
cost is an exact integer, accumulation is associative, and no evaluation
order can perturb an equilibrium.  Comparisons are strict (no float
tolerance): a player deviates iff some class is cheaper by at least one
fixed-point unit (1/scale in Equation 3 cost units).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.instance import RMGPInstance, concat_ranges
from repro.errors import ConfigurationError


@dataclass
class ExactPayload:
    """Integer fixed-point quantization of one instance (Lemma 2).

    ``int_cost[v][p] = rint(α·c(v,p)·scale)`` and
    ``int_refund[e] = rint((1−α)·½·w_e·scale)``; ``int_maxsc`` is the
    *integer* per-player refund sum, so a strategy's cost is an exact
    ``int64``.
    """

    int_cost: np.ndarray
    int_refund: np.ndarray
    int_maxsc: np.ndarray
    scale: int


def exact_payload(instance: RMGPInstance, scale: int) -> ExactPayload:
    """Quantize ``instance`` at ``scale`` fixed-point units per cost unit."""

    if isinstance(scale, bool) or not isinstance(scale, int) or scale < 1:
        raise ConfigurationError(
            f"exact_scale must be an int >= 1, got {scale!r}"
        )
    alpha = instance.alpha
    float_cost = alpha * instance.cost.dense() * float(scale)
    float_refund = (1.0 - alpha) * instance.half_weights * float(scale)
    float_maxsc = np.zeros(instance.n, dtype=np.float64)
    if float_refund.size:
        np.add.at(float_maxsc, instance.edge_owner, float_refund)
    # Guard BEFORE the int64 cast: a cast or accumulate that wraps would
    # corrupt the very numbers the guard inspects.  Floats cannot wrap,
    # and the 2**62 threshold leaves a full headroom bit against the
    # real 2**63 limit, so float rounding cannot mask an overflow.
    bound = float(np.abs(float_cost).max(initial=0.0)) + float(
        float_maxsc.max(initial=0.0)
    )
    if not np.isfinite(bound) or bound >= 2.0**62:
        raise ConfigurationError(
            f"exact_scale={scale} overflows int64 fixed point for this "
            f"instance (magnitude bound {bound:.3g}); use a smaller scale"
        )
    int_cost = np.rint(float_cost).astype(np.int64)
    int_refund = np.rint(float_refund).astype(np.int64)
    int_maxsc = np.zeros(instance.n, dtype=np.int64)
    if int_refund.size:
        np.add.at(int_maxsc, instance.edge_owner, int_refund)
    return ExactPayload(
        int_cost=int_cost,
        int_refund=int_refund,
        int_maxsc=int_maxsc,
        scale=scale,
    )


def exact_batched_moves(
    instance: RMGPInstance,
    payload: ExactPayload,
    assignment: np.ndarray,
    members: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integer best responses of pairwise non-adjacent ``members``.

    Returns ``(players, bests)`` for the members that deviate, in
    ``members`` order; ties keep the current class.
    """

    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    indptr, k = instance.indptr, instance.k
    counts = indptr[members + 1] - indptr[members]
    slots = concat_ranges(indptr[members], counts)
    rows = np.arange(members.size, dtype=np.int64)
    costs = payload.int_cost[members] + payload.int_maxsc[members][:, None]
    if slots.size:
        keys = (
            np.repeat(rows, counts) * k + assignment[instance.indices[slots]]
        )
        acc = np.zeros(members.size * k, dtype=np.int64)
        np.add.at(acc, keys, payload.int_refund[slots])
        costs -= acc.reshape(members.size, k)
    current = assignment[members]
    best = costs.argmin(axis=1)
    improves = (costs[rows, best] < costs[rows, current]) & (best != current)
    return members[improves], best[improves]
