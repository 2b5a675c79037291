"""End-to-end integration tests across packages."""

import numpy as np
import pytest

from repro import partition
from repro.apps import Event, LAGPTask, Rectangle
from repro.baselines import solve_exact, solve_metis_hungarian, solve_uml_lp
from repro.core import RMGPInstance, is_nash_equilibrium, objective
from repro.core.normalization import normalize_with_constant
from repro.datasets import gowalla_like
from repro.distributed import DGQuery, build_cluster, hash_partition, run_fae

from tests.core.conftest import tiny_instance


class TestLAGPPipeline:
    """Dataset -> task -> repeated real-time queries."""

    @pytest.fixture(scope="class")
    def task(self):
        return gowalla_like(num_users=600, num_events=16, seed=23).lagp_task()

    def test_citywide_then_area_then_warm(self, task):
        citywide = task.query(method="all", seed=0)
        assert citywide.partition.converged
        assert len(citywide.recommendation) == 600

        area = Rectangle(-80.0, -80.0, 80.0, 80.0)
        local = task.query(area=area, method="all", seed=0)
        assert 0 < len(local.participants) < 600

        warm = task.query(
            method="all", seed=0, warm_start=citywide.partition.assignment
        )
        assert warm.partition.total_deviations == 0

    def test_all_methods_agree_on_equilibrium_validity(self, task):
        game, _, _ = task.build_game(alpha=0.5)
        for method in ("baseline", "se", "is", "gt", "all"):
            result = game.solve(method=method, seed=1)
            assert game.verify(result).is_equilibrium, method


class TestSolverCrossValidation:
    """All five variants against the exact optimum on tiny instances."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equilibria_within_two_of_optimal_from_opt_start(self, seed):
        instance = tiny_instance(seed=seed)
        exact = solve_exact(instance)
        for solver in ("b", "all"):
            result = partition(
                instance, solver=solver, warm_start=exact.assignment,
                seed=seed,
            )
            assert result.value.total <= 2.0 * exact.value.total + 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_game_quality_close_to_lp(self, seed):
        """Paper §6.1: the game's quality is comparable to UML_lp."""
        instance = tiny_instance(seed=seed)
        lp = solve_uml_lp(instance, seed=seed)
        game = partition(
            instance, solver="b", init="closest", order="degree", seed=seed
        )
        assert game.value.total <= 2.5 * lp.extra["lp_value"] + 1e-9

    def test_mh_runs_on_game_instances(self):
        instance = tiny_instance(seed=3)
        mh = solve_metis_hungarian(instance, seed=0)
        instance.validate_assignment(mh.assignment)


class TestDecentralizedEquivalence:
    def test_dg_fae_and_centralized_all_nash(self):
        dataset = gowalla_like(num_users=300, num_events=8, seed=31)
        query = DGQuery(events=dataset.events, alpha=0.5, seed=2)
        shards = hash_partition(dataset.graph.nodes(), 2)

        cluster = build_cluster(dataset, num_slaves=2, shards=shards)
        dg = cluster.game.run(query)
        fae = run_fae(dataset.graph, dataset.checkins, shards, query, seed=2)

        base = RMGPInstance(
            dataset.graph, dataset.event_ids, dataset.cost_matrix(), 0.5
        )
        instance = normalize_with_constant(base, dg.cn)
        dg_assignment = np.array(
            [dg.assignment[u] for u in dataset.graph.nodes()]
        )
        assert is_nash_equilibrium(instance, dg_assignment)
        assert is_nash_equilibrium(instance, fae.partition.assignment)

        centralized = partition(instance, solver="all", seed=2)
        assert is_nash_equilibrium(instance, centralized.assignment)

        # All three equilibria have the same order-of-magnitude quality.
        values = [
            objective(instance, dg_assignment).total,
            objective(instance, fae.partition.assignment).total,
            centralized.value.total,
        ]
        assert max(values) <= 1.5 * min(values)


class TestWarmStartAcrossCheckins:
    def test_incremental_requery(self):
        """The repeated-execution scenario of Section 3.1."""
        dataset = gowalla_like(num_users=300, num_events=8, seed=37)
        task = dataset.lagp_task()
        first = task.query(method="all", seed=0)
        # A handful of users move slightly.
        import random

        rng = random.Random(0)
        for user in rng.sample(dataset.graph.nodes(), 10):
            x, y = task.checkins[user]
            task.check_in(user, (x + 1.0, y - 1.0))
        second = task.query(
            method="all", seed=0, warm_start=first.partition.assignment
        )
        assert second.partition.converged
        # Warm start converges in very few rounds after a small update.
        assert second.partition.num_rounds <= first.partition.num_rounds + 1
