"""Figure 7: RMGP_b vs MH vs UML_lp vs UML_gr as k grows (|V| fixed).

Regenerates both panels: (a) execution time per method, (b) solution
quality.  Individual pytest-benchmark cases time each method at the
figure's midpoint (k = 5) so regressions in any single competitor are
visible; the table case emits the full sweep.
"""

from __future__ import annotations

import pytest

from repro import partition
from repro.baselines import solve_metis_hungarian, solve_uml_greedy, solve_uml_lp
from repro.bench import run_fig7, small_uml_dataset
from repro.bench.harness import full_scale
from repro.bench.workloads import instance_for
from repro.core.normalization import normalize

NUM_USERS = 200 if full_scale() else 120
MID_K = 5


@pytest.fixture(scope="module")
def fig7_instance():
    dataset = small_uml_dataset(NUM_USERS, MID_K, seed=0)
    instance, _ = normalize(instance_for(dataset, alpha=0.5), "pessimistic")
    return instance


def test_fig7_rmgp_b_speed(benchmark, fig7_instance):
    result = benchmark(
        lambda: partition(
            fig7_instance, solver="b", init="random", order="random", seed=0
        )
    )
    assert result.converged


def test_fig7_mh_speed(benchmark, fig7_instance):
    result = benchmark(lambda: solve_metis_hungarian(fig7_instance, seed=0))
    assert result.converged


def test_fig7_uml_lp_speed(benchmark, fig7_instance):
    result = benchmark(lambda: solve_uml_lp(fig7_instance, seed=0))
    assert result.converged


def test_fig7_uml_greedy_speed(benchmark, fig7_instance):
    result = benchmark(lambda: solve_uml_greedy(fig7_instance))
    assert result.converged


def test_fig7_table(benchmark, emit):
    """Emit the full Figure 7 sweep and check the paper's orderings."""
    table = benchmark.pedantic(
        lambda: run_fig7(num_users=NUM_USERS, seed=0),
        rounds=1,
        iterations=1,
    )
    emit(table)
    for row in table.rows:
        # Quality: the LP (2-approx, usually integral/optimal) is best.
        assert row["UML_lp_cost"] <= row["RMGP_b_cost"] + 1e-6
        assert row["UML_lp_cost"] <= row["MH_cost"] + 1e-6
        # MH optimizes the cut only; its total cost is clearly worse.
        assert row["MH_cost"] > row["UML_lp_cost"]
        # Time: the game beats the LP decisively.
        assert row["RMGP_b_ms"] < row["UML_lp_ms"]
