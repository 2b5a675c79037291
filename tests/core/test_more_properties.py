"""Additional property-based tests: normalization, capacities, warm starts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import partition
from repro.core import (
    RMGPInstance,
    estimate_cn,
    is_capacitated_equilibrium,
    normalize,
)
from repro.core.capacitated import capacity_violations
from repro.graph import SocialGraph


@st.composite
def small_instances(draw):
    n = draw(st.integers(3, 9))
    k = draw(st.integers(2, 4))
    alpha = draw(st.floats(0.1, 0.9))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    graph = SocialGraph(range(n))
    for u, v in chosen:
        graph.add_edge(u, v, draw(st.floats(0.1, 3.0)))
    cost = np.array(
        draw(
            st.lists(st.floats(0.01, 5.0), min_size=n * k, max_size=n * k)
        )
    ).reshape(n, k)
    return RMGPInstance(graph, list(range(k)), cost, alpha=alpha)


@settings(max_examples=40, deadline=None)
@given(small_instances(), st.floats(0.01, 100.0))
def test_normalization_undoes_uniform_cost_scaling(instance, scale):
    """normalize(scale * C) equals scale-invariant effective costs.

    The pessimistic C_N is inversely proportional to the cost scale, so
    the normalized effective matrices C_N·C agree and deterministic
    dynamics land on identical assignments.
    """
    scaled = RMGPInstance(
        instance.graph,
        instance.classes,
        instance.cost.dense() * scale,
        alpha=instance.alpha,
    )
    base_norm, base_est = normalize(instance, "pessimistic")
    scaled_norm, scaled_est = normalize(scaled, "pessimistic")
    # Degenerate instances (no edges / zero median cost) fall back to the
    # identity scaling, where the inverse relation does not apply.
    assume(instance.graph.num_edges > 0 and base_est.avg_median_cost > 0)
    assert scaled_est.cn * scale == pytest.approx(base_est.cn, rel=1e-9)
    a = partition(base_norm, solver="b", init="closest", order="given")
    b = partition(scaled_norm, solver="b", init="closest", order="given")
    # The effective games are identical up to float rounding.  Rounding
    # can flip exact argmin ties, sending the deterministic dynamics to
    # different (equally valid) equilibria — so assert the transferable
    # property: each result is a Nash equilibrium of the *other's*
    # normalized instance.
    from repro.core import is_nash_equilibrium

    assert is_nash_equilibrium(base_norm, b.assignment, tolerance=1e-6)
    assert is_nash_equilibrium(scaled_norm, a.assignment, tolerance=1e-6)


@settings(max_examples=40, deadline=None)
@given(small_instances())
def test_optimistic_vs_pessimistic_ratio(instance):
    """Both estimates are positive; their ratio follows the formulas."""
    optimistic = estimate_cn(instance, "optimistic")
    pessimistic = estimate_cn(instance, "pessimistic")
    assert optimistic.cn > 0
    assert pessimistic.cn > 0
    if (
        instance.graph.num_edges > 0
        and optimistic.avg_min_cost > 0
        and pessimistic.avg_median_cost > 0
    ):
        k = instance.k
        expected_ratio = (
            (1.0 / (optimistic.avg_min_cost * k**0.5))
            / ((k - 1) / (pessimistic.avg_median_cost * k))
        )
        assert optimistic.cn / pessimistic.cn == pytest.approx(
            expected_ratio, rel=1e-9
        )


@settings(max_examples=30, deadline=None)
@given(small_instances(), st.integers(0, 3))
def test_capacitated_always_feasible_and_stable(instance, seed):
    """Capacities hold throughout and the result is a constrained
    equilibrium, for the tightest uniform capacity that fits."""
    per_class = -(-instance.n // instance.k)  # ceil division
    caps = [per_class] * instance.k
    result = partition(instance, solver="cap", capacities=caps, seed=seed)
    assert not capacity_violations(result.assignment, caps)
    assert is_capacitated_equilibrium(instance, result.assignment, caps)


@settings(max_examples=30, deadline=None)
@given(small_instances(), st.integers(0, 3))
def test_warm_start_idempotence_across_solvers(instance, seed):
    """Any solver warm-started at another's equilibrium stays there."""
    first = partition(instance, solver="b", seed=seed)
    second = partition(instance, solver="vec", warm_start=first.assignment)
    assert second.total_deviations == 0
    np.testing.assert_array_equal(first.assignment, second.assignment)
