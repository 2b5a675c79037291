"""Figure 9: raw RMGP vs optimistic/pessimistic RMGP_N on Gowalla.

Checks the paper's headline findings: without normalization the
(distance) assignment cost dwarfs the social cost and few users move
away from their closest event; pessimistic normalization balances the
two components at alpha = 0.5 and re-assigns many more users.
"""

from __future__ import annotations

import pytest

from repro import partition
from repro.bench import gowalla_dataset, run_fig9, run_fig9_cn_values
from repro.bench.workloads import instance_for
from repro.core.normalization import normalize


@pytest.fixture(scope="module")
def normalized_instance():
    dataset = gowalla_dataset(seed=0)
    instance = instance_for(dataset, num_events=8, seed=0)
    normalized, _ = normalize(instance, "pessimistic")
    return normalized


def test_fig9_normalized_solve_speed(benchmark, normalized_instance):
    result = benchmark(
        lambda: partition(
            normalized_instance, solver="b", init="closest", order="given",
            seed=0,
        )
    )
    assert result.converged


def test_fig9_table(benchmark, emit):
    table = benchmark.pedantic(lambda: run_fig9(seed=0), rounds=1, iterations=1)
    emit(table)
    by_variant = {}
    for row in table.rows:
        by_variant.setdefault(row["variant"], []).append(row)
    # Raw: distance dominates for every k (the paper's Figure 9(a); the
    # margin shrinks with k as more nearby events appear, but dominance
    # never flips).
    for row in by_variant["raw"]:
        assert row["balance_ratio"] > 3.0, row
    # Pessimistic: components within a small factor of each other.
    for row in by_variant["pessimistic"]:
        assert 0.2 < row["balance_ratio"] < 5.0, row
    # Re-assignments: raw < optimistic and raw < pessimistic per k.
    for raw, opt, pess in zip(
        by_variant["raw"], by_variant["optimistic"], by_variant["pessimistic"]
    ):
        assert raw["users_moved"] <= opt["users_moved"], (raw, opt)
        assert raw["users_moved"] <= pess["users_moved"], (raw, pess)


def test_fig9_cn_annotations(benchmark, emit):
    table = benchmark.pedantic(
        lambda: run_fig9_cn_values(seed=0), rounds=1, iterations=1
    )
    emit(table)
    assert all(cn > 0 for cn in table.column("cn_optimistic"))
    assert all(cn > 0 for cn in table.column("cn_pessimistic"))
