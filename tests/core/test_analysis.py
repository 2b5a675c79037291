"""Unit tests for the dynamics-analysis helpers."""

import numpy as np
import pytest

from repro import partition
from repro.core import potential
from repro.core.analysis import (
    assignment_diff,
    class_profiles,
    convergence_report,
    potential_trace,
    quality_summary,
)

from tests.core.conftest import random_instance


class TestPotentialTrace:
    def test_strictly_decreasing(self, instance):
        events = potential_trace(instance, seed=0)
        values = [e.potential_after for e in events]
        for before, after in zip(values, values[1:]):
            assert after < before + 1e-12

    def test_improvements_positive(self, instance):
        events = potential_trace(instance, seed=1)
        assert all(e.improvement > 0 for e in events)

    def test_incremental_phi_matches_direct(self, instance):
        """The O(1) potential updates agree with a full re-evaluation."""
        import random

        from repro.core import dynamics

        rng = random.Random(2)
        assignment = dynamics.initial_assignment(instance, "random", rng)
        events = potential_trace(instance, init="random", seed=2)
        # Replay the moves on the same initial assignment.
        for event in events:
            assignment[event.player] = event.to_class
        assert potential(instance, assignment) == pytest.approx(
            events[-1].potential_after, abs=1e-9
        )

    def test_steps_and_rounds_monotone(self, instance):
        events = potential_trace(instance, seed=3)
        steps = [e.step for e in events]
        assert steps == sorted(steps)
        rounds = [e.round_index for e in events]
        assert rounds == sorted(rounds)


class TestConvergenceReport:
    def test_report_fields(self, instance):
        result = partition(instance, solver="b", seed=0, track_potential=True)
        report = convergence_report(instance, result)
        assert report.rounds == result.num_rounds
        assert report.total_deviations == result.total_deviations
        assert len(report.deviations_per_round) == result.num_rounds
        assert report.final_potential == pytest.approx(
            potential(instance, result.assignment)
        )
        assert report.potential_drop >= -1e-9

    def test_far_below_lemma2_ceiling(self, instance):
        result = partition(instance, solver="b", seed=0, track_potential=True)
        report = convergence_report(instance, result)
        assert report.rounds <= report.lemma2_ceiling
        assert report.ceiling_utilization < 0.01


class TestAssignmentDiff:
    def test_no_change(self, instance):
        assignment = np.zeros(instance.n, dtype=np.int64)
        assert assignment_diff(instance, assignment, assignment) == {}

    def test_reports_moves_with_labels(self, instance):
        before = np.zeros(instance.n, dtype=np.int64)
        after = before.copy()
        after[2] = 1
        diff = assignment_diff(instance, before, after)
        node = instance.node_ids[2]
        assert diff == {node: (instance.classes[0], instance.classes[1])}


class TestClassProfiles:
    def test_members_sum_to_n(self, instance):
        result = partition(instance, solver="b", seed=0)
        profiles = class_profiles(instance, result.assignment)
        assert sum(p.members for p in profiles) == instance.n
        assert len(profiles) == instance.k

    def test_internal_external_consistent_with_cut(self, instance):
        from repro.core import social_cost_sum

        result = partition(instance, solver="b", seed=0)
        profiles = class_profiles(instance, result.assignment)
        external = sum(p.external_weight for p in profiles)
        # Every crossing edge is external for both endpoints.
        assert external == pytest.approx(
            2.0 * social_cost_sum(instance, result.assignment)
        )
        internal = sum(p.internal_weight for p in profiles)
        assert internal + external / 2.0 == pytest.approx(
            instance.graph.total_edge_weight()
        )

    def test_assignment_costs_sum(self, instance):
        from repro.core import assignment_cost_sum

        result = partition(instance, solver="b", seed=0)
        profiles = class_profiles(instance, result.assignment)
        assert sum(p.assignment_cost for p in profiles) == pytest.approx(
            assignment_cost_sum(instance, result.assignment)
        )

    def test_cohesion_range(self, instance):
        result = partition(instance, solver="b", seed=0)
        for profile in class_profiles(instance, result.assignment):
            assert 0.0 <= profile.cohesion <= 1.0


class TestQualitySummary:
    def test_keys_and_consistency(self, instance):
        result = partition(instance, solver="b", seed=0)
        summary = quality_summary(instance, result.assignment)
        assert summary["total"] == pytest.approx(result.value.total)
        assert summary["classes_used"] <= instance.k
        assert summary["largest_class"] <= instance.n
        assert 0.0 <= summary["mean_cohesion"] <= 1.0
