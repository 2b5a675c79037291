"""``BulkRounds`` against ``table_round``, from the same mid-solve state.

RMGP_gt runs on :class:`repro.core.global_table.BulkRounds`, which keeps
every row's first minimum up to date instead of taking a row argmin per
examined player; the incremental engine still runs ``table_round``.
Both must take every decision the same way and write the same floats:
from one random state (assignment, dirty flags, sweep and a table from
``build_global_table``) each round must leave byte-equal assignments,
tables and flags, and report the same deviations and players examined.
Integer costs and weights with α = ½ or ¼ make exact ties common, so the
first-minimum rule is exercised; isolated players, k = 1 and n ≤ 1 are
in the space.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RMGPInstance, dynamics
from repro.core.global_table import BulkRounds, build_global_table, table_round
from repro.graph import SocialGraph


@st.composite
def mid_solve_states(draw):
    n = draw(st.integers(0, 12))
    k = draw(st.integers(1, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [
        (u, v, float(draw(st.integers(1, 4))))
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True))
    ] if pairs else []
    graph = SocialGraph.from_edges(edges, nodes=range(n))
    cost = np.array(
        draw(st.lists(
            st.lists(st.integers(0, 3), min_size=k, max_size=k),
            min_size=n, max_size=n,
        )),
        dtype=np.float64,
    ).reshape(n, k)
    alpha = draw(st.sampled_from([0.25, 0.5, 0.3]))
    instance = RMGPInstance(graph, list(range(k)), cost, alpha=alpha)
    assignment = np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    dirty = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    sweep = draw(st.permutations(range(n)))
    return instance, assignment, dirty, list(sweep)


@settings(max_examples=300, deadline=None)
@given(mid_solve_states())
def test_bulk_rounds_match_table_round(state):
    instance, assignment, dirty, sweep = state
    reference = (
        build_global_table(instance, assignment), assignment.copy(),
        dynamics.ActiveSet(instance.n, dirty=dirty),
    )
    bulk = (
        build_global_table(instance, assignment), assignment.copy(),
        dynamics.ActiveSet(instance.n, dirty=dirty),
    )
    kernel = BulkRounds(instance, bulk[0], sweep)
    for _ in range(50):
        expected = table_round(
            instance, reference[0], reference[1], reference[2], sweep
        )
        got = kernel(bulk[1], bulk[2])
        assert got == expected
        assert bulk[1].tobytes() == reference[1].tobytes()
        assert bulk[0].tobytes() == reference[0].tobytes()
        assert bulk[2].flags.tobytes() == reference[2].flags.tobytes()
        if expected[0] == 0:
            break


def test_non_finite_row_minimum_runs_table_round():
    """A NaN row would break the maintained minima: the kernel defers."""
    graph = SocialGraph.from_edges([(0, 1, 1.0)])
    instance = RMGPInstance(graph, ["a", "b"], np.zeros((2, 2)), alpha=0.5)
    assignment = np.zeros(2, dtype=np.int64)
    table = build_global_table(instance, assignment)
    table[0] = np.nan
    kernel = BulkRounds(instance, table, [0, 1])
    assert not kernel.finite
    reference = table.copy()
    ref_assignment = assignment.copy()
    ref_active = dynamics.ActiveSet(2)
    active = dynamics.ActiveSet(2)
    expected = table_round(
        instance, reference, ref_assignment, ref_active, [0, 1]
    )
    assert kernel(assignment, active) == expected
    assert table.tobytes() == reference.tobytes()
    assert assignment.tobytes() == ref_assignment.tobytes()


@pytest.mark.parametrize(
    "mover_costs,friend_costs",
    [
        # The mover's move lowers the friend's column 0 to tie its
        # minimum at column 2: the first minimum moves to column 0.
        ([0.0, 3.0, 3.0], [1.0, 3.0, 0.0]),
        # The move lowers column 2 to tie the minimum at column 0: the
        # first minimum stays at column 0.
        ([3.0, 3.0, 0.0], [0.0, 3.0, 1.0]),
    ],
    ids=["tie-below", "tie-above"],
)
def test_ties_keep_the_first_minimum(mover_costs, friend_costs):
    """Two friends on class 1; the friend moves after the mover, to
    the first of two equal minima."""
    graph = SocialGraph.from_edges([(0, 1, 2.0)])
    cost = np.array([mover_costs, friend_costs])
    instance = RMGPInstance(graph, ["a", "b", "c"], cost, alpha=0.5)
    assignment = np.ones(2, dtype=np.int64)
    reference = build_global_table(instance, assignment)
    table = reference.copy()
    ref_assignment, ref_active = assignment.copy(), dynamics.ActiveSet(2)
    active = dynamics.ActiveSet(2)
    expected = table_round(
        instance, reference, ref_assignment, ref_active, [0, 1]
    )
    assert expected == (2, 2)
    assert ref_assignment[1] == 0
    assert BulkRounds(instance, table, [0, 1])(assignment, active) == expected
    assert assignment.tobytes() == ref_assignment.tobytes()
    assert table.tobytes() == reference.tobytes()
