"""Figure 8: RMGP_b vs MH vs UML_lp vs UML_gr as |V| grows (k fixed at 7).

The paper caps |V| at 300 "because otherwise UML_lp and UML_gr would be
too slow" — the same cap applies here (quick mode stops at 200).
"""

from __future__ import annotations

import pytest

from repro import partition
from repro.baselines import solve_uml_lp
from repro.bench import run_fig8, small_uml_dataset
from repro.bench.harness import full_scale
from repro.bench.workloads import instance_for
from repro.core.normalization import normalize

NODE_COUNTS = [100, 150, 200, 250, 300] if full_scale() else [80, 120, 160]
NUM_EVENTS = 7


@pytest.fixture(scope="module")
def fig8_largest_instance():
    dataset = small_uml_dataset(NODE_COUNTS[-1], NUM_EVENTS, seed=0)
    instance, _ = normalize(instance_for(dataset, alpha=0.5), "pessimistic")
    return instance


def test_fig8_rmgp_b_speed_largest(benchmark, fig8_largest_instance):
    result = benchmark(
        lambda: partition(
            fig8_largest_instance, solver="b", init="random", order="random",
            seed=0,
        )
    )
    assert result.converged


def test_fig8_uml_lp_speed_largest(benchmark, fig8_largest_instance):
    result = benchmark.pedantic(
        lambda: solve_uml_lp(fig8_largest_instance, seed=0),
        rounds=1,
        iterations=1,
    )
    assert result.converged


def test_fig8_table(benchmark, emit):
    """Emit the full Figure 8 sweep and check the paper's orderings."""
    table = benchmark.pedantic(
        lambda: run_fig8(node_counts=NODE_COUNTS, seed=0),
        rounds=1,
        iterations=1,
    )
    emit(table)
    for row in table.rows:
        assert row["UML_lp_cost"] <= row["RMGP_b_cost"] + 1e-6
        assert row["RMGP_b_ms"] < row["UML_lp_ms"]
    # Quality cost grows with the graph (more users to assign).
    lp_costs = table.column("UML_lp_cost")
    assert lp_costs[-1] > lp_costs[0]
