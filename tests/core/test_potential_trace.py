"""Theorem 1 / Eq. 4 on the recorded round trace.

Every round a traced solver reports the exact potential Φ of its
assignment.  On any instance, each round with deviations must lower Φ
strictly (the players that move are best-responding and, within one
batch, never friends), and each recorded Φ must be bit-equal to Φ
gathered independently from a ``dense()`` copy of the costs at that
round's assignment, replayed with a :class:`CountdownToken`.

Costs, weights and α are dyadic, so every Φ is exact in float64 and a
strict decrease cannot be rounded away.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import partition
from repro.core import RMGPInstance
from repro.graph import SocialGraph
from repro.obs import TraceRecorder
from repro.runtime import CountdownToken


@st.composite
def dyadic_instances(draw):
    n = draw(st.integers(2, 14))
    k = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from([0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    graph = SocialGraph(range(n))
    for u, v in edges:
        graph.add_edge(u, v, draw(st.integers(1, 16)) / 4.0)
    costs = draw(st.lists(st.integers(0, 64), min_size=n * k, max_size=n * k))
    cost = np.array(costs, dtype=np.float64).reshape(n, k) / 8.0
    return RMGPInstance(graph, list(range(k)), cost, alpha=alpha)


def dense_potential(instance: RMGPInstance, assignment: np.ndarray) -> float:
    """Eq. 4 from a private copy of the costs, not the read-only view."""
    costs = instance.cost.dense()
    assigned = float(costs[np.arange(instance.n), assignment].sum())
    crossing = assignment[instance.indices] != assignment[instance.edge_owner]
    social = float(instance.half_weights[crossing].sum())
    return instance.alpha * assigned + (1.0 - instance.alpha) * 0.5 * social


@settings(max_examples=60, deadline=None)
@given(
    dyadic_instances(),
    st.sampled_from(["gt", "all", "is", "vec"]),
    st.integers(0, 2**16),
)
def test_recorded_potential_falls_and_matches_a_dense_gather(
    instance, solver, seed
):
    recorder = TraceRecorder()
    result = partition(
        instance, solver=solver, init="random", seed=seed, recorder=recorder
    )
    rounds = [
        span.attrs for span in recorder.all_spans() if span.name == "round"
    ]
    assert [r["round"] for r in rounds] == list(range(result.num_rounds + 1))
    # Φ after round r (round 0: the initial assignment), gathered from a
    # replay stopped at that round boundary.
    phis = [
        dense_potential(
            instance,
            partition(
                instance, solver=solver, init="random", seed=seed,
                cancel_token=CountdownToken(r),
            ).assignment,
        )
        for r in range(len(rounds))
    ]
    for r, stats in enumerate(rounds[1:], start=1):
        assert stats["potential"] == phis[r]
        if stats["deviations"]:
            assert phis[r] < phis[r - 1]
        else:
            assert phis[r] == phis[r - 1]
