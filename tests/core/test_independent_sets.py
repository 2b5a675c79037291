"""Unit tests for RMGP_is (Section 4.2)."""

import numpy as np
import pytest

from repro import partition
from repro.core import groups_from_coloring, is_nash_equilibrium
from repro.errors import ConfigurationError
from repro.graph import greedy_coloring

from tests.core.conftest import random_instance


class TestGroups:
    def test_groups_cover_all_players(self, instance):
        groups = groups_from_coloring(instance)
        flattened = sorted(p for group in groups for p in group)
        assert flattened == list(range(instance.n))

    def test_groups_are_independent(self, instance):
        groups = groups_from_coloring(instance)
        for group in groups:
            members = set(group)
            for player in group:
                row = slice(
                    instance.indptr[player], instance.indptr[player + 1]
                )
                neighbors = set(instance.indices[row].tolist())
                assert not (neighbors & members)

    def test_accepts_explicit_coloring(self, instance):
        coloring = greedy_coloring(instance.graph)
        groups = groups_from_coloring(instance, coloring)
        assert sum(len(g) for g in groups) == instance.n

    def test_rejects_improper_coloring(self, instance):
        bad = {node: 0 for node in instance.graph.nodes()}
        with pytest.raises(ConfigurationError):
            groups_from_coloring(instance, bad)


class TestSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reaches_nash_equilibrium(self, seed):
        instance = random_instance(seed=seed)
        result = partition(instance, solver="is", seed=seed)
        assert result.converged
        assert is_nash_equilibrium(instance, result.assignment)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_match_sequential(self, threads, instance):
        sequential = partition(instance, solver="is", seed=5, threads=1)
        threaded = partition(instance, solver="is", seed=5, threads=threads)
        np.testing.assert_array_equal(sequential.assignment, threaded.assignment)

    def test_rejects_bad_threads(self, instance):
        with pytest.raises(ConfigurationError):
            partition(instance, solver="is", threads=0)

    def test_model_speedup_reported(self, instance):
        result = partition(instance, solver="is", seed=0, threads=4)
        extra = result.extra
        assert extra["threads"] == 4
        assert extra["model_players_per_round"] <= instance.n
        assert extra["model_speedup"] >= 1.0
        assert extra["num_groups"] >= 1

    def test_single_thread_model_is_sequential(self, instance):
        result = partition(instance, solver="is", seed=0, threads=1)
        assert result.extra["model_players_per_round"] == instance.n
        assert result.extra["model_speedup"] == pytest.approx(1.0)

    def test_explicit_coloring_used(self, instance):
        coloring = greedy_coloring(instance.graph)
        result = partition(instance, solver="is", seed=0, coloring=coloring)
        assert result.converged
        assert result.extra["num_groups"] == len(set(coloring.values()))
