"""Empirical quality-of-equilibrium study (Theorem 2 in practice).

The paper proves PoS <= 2 and an instance-dependent PoA bound, and argues
empirically (Figures 7-8) that the reached equilibria sit close to the LP
optimum.  This suite measures the actual gaps on ensembles of small
instances where the exact optimum is computable:

* equilibrium/OPT ratio distribution across seeds and alphas,
* how far OPT-warm-started dynamics drift (the constructive PoS <= 2
  argument), and
* the LP lower bound's tightness against the true optimum.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import partition
from repro.baselines import lp_lower_bound, solve_alpha_expansion, solve_exact
from repro.bench.harness import Table
from repro.core import RMGPInstance, price_of_anarchy_bound
from repro.graph import erdos_renyi

NUM_INSTANCES = 12


def _ensemble(alpha: float):
    instances = []
    for seed in range(NUM_INSTANCES):
        graph = erdos_renyi(9, 0.35, random.Random(seed))
        cost = np.random.default_rng(seed).uniform(0.05, 1.0, (9, 3))
        instances.append(RMGPInstance(graph, list(range(3)), cost, alpha=alpha))
    return instances


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_equilibrium_vs_optimal_ratios(benchmark, emit, alpha):
    def run():
        table = Table(
            title=f"Quality study: equilibrium/OPT ratios (alpha={alpha})",
            columns=["seed", "opt", "equilibrium", "ratio", "poa_bound",
                     "warm_ratio", "alpha_exp_ratio"],
        )
        for seed, instance in enumerate(_ensemble(alpha)):
            exact = solve_exact(instance)
            equilibrium = partition(instance, solver="b", seed=seed)
            warm = partition(
                instance, solver="b", warm_start=exact.assignment, seed=seed
            )
            expansion = solve_alpha_expansion(instance, seed=seed)
            opt = exact.value.total
            table.add_row(
                seed=seed,
                opt=opt,
                equilibrium=equilibrium.value.total,
                ratio=equilibrium.value.total / opt if opt > 0 else 1.0,
                poa_bound=price_of_anarchy_bound(instance),
                warm_ratio=warm.value.total / opt if opt > 0 else 1.0,
                alpha_exp_ratio=(
                    expansion.value.total / opt if opt > 0 else 1.0
                ),
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    ratios = table.column("ratio")
    bounds = table.column("poa_bound")
    warm_ratios = table.column("warm_ratio")
    # Theorem 2's guarantees, instance by instance.
    for ratio, bound in zip(ratios, bounds):
        assert ratio <= bound + 1e-9
    for warm in warm_ratios:
        assert warm <= 2.0 + 1e-9  # the constructive PoS argument
    # The empirical story of Figures 7-8: equilibria are *much* closer to
    # optimal than the worst-case bounds suggest.
    assert float(np.median(ratios)) < 1.5
    # Alpha-expansion stays within its own factor-2 guarantee.
    for ratio in table.column("alpha_exp_ratio"):
        assert ratio <= 2.0 + 1e-9


def test_lp_bound_tightness(benchmark, emit):
    def run():
        table = Table(
            title="LP relaxation vs true optimum (tiny ensemble)",
            columns=["seed", "lp_bound", "opt", "gap"],
        )
        for seed, instance in enumerate(_ensemble(0.5)[:8]):
            bound = lp_lower_bound(instance)
            opt = solve_exact(instance).value.total
            table.add_row(
                seed=seed,
                lp_bound=bound,
                opt=opt,
                gap=(opt / bound) if bound > 0 else 1.0,
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    gaps = table.column("gap")
    for gap in gaps:
        assert gap >= 1.0 - 1e-9  # the LP is a valid lower bound
    # "In most settings the linear relaxation gave integral solutions":
    # the LP should match OPT on the majority of instances.
    integral = sum(1 for gap in gaps if gap < 1.0 + 1e-6)
    assert integral >= len(gaps) // 2
