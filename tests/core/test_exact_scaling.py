"""Lemma 2 integer scaling: exact fixed-point agreement, no tolerance.

Floats need a byte-identity *argument* (same operation sequence, same
rounding); integers need none — int64 addition is associative, so any
evaluation order produces the same numbers.  These tests assert **exact
equality** (``array_equal``, ``tobytes``) under ``exact_scale`` — there
is no ``atol`` anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import SolveOptions
from repro.errors import ConfigurationError
from repro.core.exact import exact_payload

from tests.streaming.conftest import INSTANCE_FAMILIES

SCALE = 10**9


def _curated_instance():
    # The curated family for the acceptance criterion: community
    # structure plus uniform random costs — ties and near-ties occur, so
    # the exact comparison is doing real work.
    return INSTANCE_FAMILIES["planted_partition"](seed=2)


class TestExactPayload:
    def test_quantization_is_deterministic(self):
        instance = _curated_instance()
        a = exact_payload(instance, SCALE)
        b = exact_payload(instance, SCALE)
        assert np.array_equal(a.int_cost, b.int_cost)
        assert np.array_equal(a.int_refund, b.int_refund)
        assert np.array_equal(a.int_maxsc, b.int_maxsc)
        assert a.int_cost.dtype == np.int64

    def test_maxsc_is_exact_row_sum_of_refunds(self):
        instance = _curated_instance()
        payload = exact_payload(instance, SCALE)
        manual = np.zeros(instance.n, dtype=np.int64)
        np.add.at(manual, instance.edge_owner, payload.int_refund)
        assert np.array_equal(payload.int_maxsc, manual)

    @pytest.mark.parametrize("bad", [0, -1, 0.5])
    def test_scale_must_be_positive_integer(self, bad):
        with pytest.raises(ConfigurationError):
            exact_payload(_curated_instance(), bad)

    def test_overflow_guard(self):
        with pytest.raises(ConfigurationError, match="overflow"):
            exact_payload(_curated_instance(), 10**19)

    def test_overflow_guard_fires_before_wraparound(self):
        # The guard must inspect pre-cast float magnitudes: at extreme
        # scales an int64 accumulate wraps and could land back under the
        # threshold, silently producing garbage payloads.
        with pytest.raises(ConfigurationError, match="overflow"):
            exact_payload(_curated_instance(), 10**25)


class TestSolveOptionsValidation:
    @pytest.mark.parametrize("bad", [0, -5, 1.5, True])
    def test_exact_scale_must_be_positive_int(self, bad):
        with pytest.raises(ConfigurationError, match="exact_scale"):
            SolveOptions(exact_scale=bad)

    def test_valid_options_construct(self):
        options = SolveOptions(exact_scale=10**9)
        assert options.solver_kwargs() == {"exact_scale": 10**9}


@pytest.mark.parametrize("solver", ["is", "vec"])
class TestExactAgreement:
    def test_exact_result_is_an_equilibrium_of_the_float_game(self, solver):
        # A sufficiently fine scale preserves every strict preference, so
        # the integer fixed point is a Nash equilibrium of the original
        # float game too.
        from repro.core.objective import player_strategy_costs

        instance = _curated_instance()
        result = repro.partition(
            instance, solver=solver,
            options=SolveOptions(seed=7, exact_scale=SCALE),
        )
        assert result.converged
        for player in range(instance.n):
            costs = player_strategy_costs(
                instance, result.assignment, player
            )
            current = costs[result.assignment[player]]
            assert current <= costs.min() + 1e-9


def test_is_and_vec_reach_the_same_exact_fixed_point():
    # Same game, same color groups, same integer kernel: the two
    # schedules agree exactly, as their float paths do.
    instance = _curated_instance()
    results = [
        repro.partition(
            instance, solver=solver,
            options=SolveOptions(seed=7, exact_scale=SCALE),
        )
        for solver in ("is", "vec")
    ]
    assert results[0].assignment.tobytes() == results[1].assignment.tobytes()
    assert results[0].num_rounds == results[1].num_rounds
    for result in results:
        assert result.extra["exact_scale"] == SCALE
