"""Figure 11: effect of alpha on the RMGP_b variants at k = 32."""

from __future__ import annotations

import pytest

from repro import partition
from repro.bench import gowalla_dataset, run_fig11
from repro.bench.workloads import instance_for
from repro.core.normalization import normalize


@pytest.fixture(scope="module", params=[0.1, 0.9], ids=["alpha=0.1", "alpha=0.9"])
def fig11_instance(request):
    dataset = gowalla_dataset(seed=0)
    instance = instance_for(dataset, num_events=32, alpha=request.param, seed=0)
    normalized, _ = normalize(instance, "pessimistic")
    return normalized


def test_fig11_b_i_o_speed(benchmark, fig11_instance):
    result = benchmark(
        lambda: partition(
            fig11_instance, solver="b", init="closest", order="degree", seed=0
        )
    )
    assert result.converged


def test_fig11_table(benchmark, emit):
    table = benchmark.pedantic(lambda: run_fig11(seed=0), rounds=1, iterations=1)
    emit(table)
    rows = [r for r in table.rows if r["variant"] == "RMGP_b+i+o"]
    # The fundamental alpha trade-off (the direction behind Fig. 11(b)):
    # as alpha grows the *raw* assignment cost falls (users move toward
    # their closest events) and the raw social cut rises.  The exact
    # weighted-component shares of the paper's plot depend on dataset
    # geometry we only approximate — see EXPERIMENTS.md.
    low = min(rows, key=lambda r: r["alpha"])
    high = max(rows, key=lambda r: r["alpha"])
    raw_ac = lambda r: r["assignment_cost"] / r["alpha"]
    raw_sc = lambda r: r["social_cost"] / (1 - r["alpha"])
    assert raw_ac(high) < raw_ac(low)
    # The cut side of the trade-off is flatter (the homophilous graph
    # has a cut floor normalization keeps balanced at every alpha), so
    # only assert it does not *improve* materially as alpha de-weights it.
    assert raw_sc(high) > 0.8 * raw_sc(low)
    # Heuristic variants converge within the paper's 5-8 round ballpark.
    assert all(r["rounds"] <= 20 for r in rows)
