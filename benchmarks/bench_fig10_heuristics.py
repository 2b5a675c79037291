"""Figure 10: RMGP_b vs RMGP_b+i vs RMGP_b+i+o across k (alpha = 0.5)."""

from __future__ import annotations

import pytest

from repro import partition
from repro.bench import gowalla_dataset, run_fig10
from repro.bench.workloads import instance_for
from repro.core.normalization import normalize


@pytest.fixture(scope="module")
def fig10_instance():
    dataset = gowalla_dataset(seed=0)
    instance = instance_for(dataset, num_events=32, seed=0)
    normalized, _ = normalize(instance, "pessimistic")
    return normalized


def test_fig10_b_speed(benchmark, fig10_instance):
    result = benchmark(
        lambda: partition(
            fig10_instance, solver="b", init="random", order="random", seed=0
        )
    )
    assert result.converged


def test_fig10_b_i_speed(benchmark, fig10_instance):
    result = benchmark(
        lambda: partition(
            fig10_instance, solver="b", init="closest", order="random", seed=0
        )
    )
    assert result.converged


def test_fig10_b_i_o_speed(benchmark, fig10_instance):
    result = benchmark(
        lambda: partition(
            fig10_instance, solver="b", init="closest", order="degree", seed=0
        )
    )
    assert result.converged


def test_fig10_table(benchmark, emit):
    table = benchmark.pedantic(lambda: run_fig10(seed=0), rounds=1, iterations=1)
    emit(table)
    by_k = {}
    for row in table.rows:
        by_k.setdefault(row["k"], {})[row["variant"]] = row
    for k, variants in by_k.items():
        # Closest-event initialization needs fewer rounds than random.
        assert (
            variants["RMGP_b+i"]["rounds"] <= variants["RMGP_b"]["rounds"]
        ), (k, variants)
        # The +i variants reach at least as good solutions (total cost).
        total = lambda row: row["assignment_cost"] + row["social_cost"]
        assert total(variants["RMGP_b+i"]) <= total(variants["RMGP_b"]) * 1.15
