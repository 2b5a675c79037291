"""Unit tests for the alpha-expansion baseline."""

import numpy as np
import pytest

from repro import partition
from repro.baselines import lp_lower_bound, optimal_value
from repro.baselines.alpha_expansion import _expansion_move, solve_alpha_expansion
from repro.core import objective

from tests.core.conftest import random_instance, tiny_instance


class TestExpansionMove:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_move_is_optimal_among_expansions(self, seed):
        """The min-cut expansion beats every brute-force expansion of a.

        An expansion of class ``a`` from labeling L is any labeling where
        each node either keeps L's label or takes ``a``; on tiny
        instances we enumerate all 2^n of them.
        """
        instance = random_instance(
            num_players=7, num_classes=3, edge_probability=0.5, seed=seed
        )
        rng = np.random.default_rng(seed)
        labeling = rng.integers(0, instance.k, instance.n)
        for klass in range(instance.k):
            candidate = _expansion_move(instance, labeling, klass)
            best = float("inf")
            for mask in range(2**instance.n):
                trial = labeling.copy()
                for v in range(instance.n):
                    if mask >> v & 1:
                        trial[v] = klass
                best = min(best, objective(instance, trial).total)
            assert objective(instance, candidate).total == pytest.approx(
                best, abs=1e-9
            )

    def test_move_never_worsens(self):
        instance = random_instance(seed=10)
        rng = np.random.default_rng(0)
        labeling = rng.integers(0, instance.k, instance.n)
        before = objective(instance, labeling).total
        for klass in range(instance.k):
            candidate = _expansion_move(instance, labeling, klass)
            assert objective(instance, candidate).total <= before + 1e-9

    def test_nodes_with_label_keep_it(self):
        instance = random_instance(seed=11)
        rng = np.random.default_rng(1)
        labeling = rng.integers(0, instance.k, instance.n)
        klass = 0
        candidate = _expansion_move(instance, labeling, klass)
        for v in range(instance.n):
            if labeling[v] == klass:
                assert candidate[v] == klass


class TestSolver:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_valid_and_bounded(self, seed):
        instance = tiny_instance(seed=seed)
        result = solve_alpha_expansion(instance, seed=seed)
        instance.validate_assignment(result.assignment)
        assert result.converged
        opt = optimal_value(instance)
        assert result.value.total <= 2.0 * opt + 1e-9
        assert result.value.total >= lp_lower_bound(instance) - 1e-6

    def test_quality_competitive_with_game(self):
        instance = tiny_instance(seed=5)
        expansion = solve_alpha_expansion(instance, seed=0)
        game = partition(instance, solver="b", init="closest", order="given")
        # Expansion moves are strictly stronger than single-player moves,
        # so from the same landscape it should be at least comparable.
        assert expansion.value.total <= 1.2 * game.value.total + 1e-9

    def test_diagnostics(self):
        instance = random_instance(seed=12)
        result = solve_alpha_expansion(instance, seed=0)
        assert result.extra["sweeps"] >= 1
        assert result.extra["cuts_solved"] >= instance.k
        assert result.extra["approximation_ratio_bound"] == 2.0
