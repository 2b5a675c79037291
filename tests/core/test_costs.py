"""Unit tests for the cost-provider layer."""

import numpy as np
import pytest

from repro.core import (
    CombinedCost,
    FunctionCost,
    MatrixCost,
    ScaledCost,
    as_cost_provider,
)
from repro.errors import ConfigurationError


class TestMatrixCost:
    def test_row_is_a_copy(self):
        matrix = np.ones((2, 3))
        cost = MatrixCost(matrix)
        row = cost.row(0)
        row[0] = 99.0
        assert cost.cost(0, 0) == 1.0

    def test_cost_entry(self):
        cost = MatrixCost(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert cost.cost(1, 0) == 3.0
        assert cost.num_players == 2
        assert cost.num_classes == 2

    def test_dense_is_a_copy(self):
        cost = MatrixCost(np.ones((2, 2)))
        dense = cost.dense()
        dense[0, 0] = 5.0
        assert cost.cost(0, 0) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MatrixCost(np.array([[-1.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            MatrixCost(np.array([[np.inf, 0.0]]))

    def test_rejects_wrong_dims(self):
        with pytest.raises(ConfigurationError):
            MatrixCost(np.zeros(3))


class TestFunctionCost:
    def test_computes_rows_on_demand(self):
        cost = FunctionCost(lambda v: [float(v), float(v + 1)], 3, 2)
        assert cost.cost(2, 1) == 3.0
        np.testing.assert_allclose(cost.row(1), [1.0, 2.0])

    def test_materialized(self):
        cost = FunctionCost(lambda v: [float(v)] * 2, 3, 2)
        dense = cost.materialized()
        assert isinstance(dense, MatrixCost)
        np.testing.assert_allclose(dense.dense(), [[0, 0], [1, 1], [2, 2]])

    def test_rejects_wrong_row_shape(self):
        cost = FunctionCost(lambda v: [1.0], 2, 3)
        with pytest.raises(ConfigurationError):
            cost.row(0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            FunctionCost(lambda v: [1.0], 2, 0)


class TestScaledCost:
    def test_scales_rows_and_entries(self):
        base = MatrixCost(np.array([[1.0, 2.0]]))
        scaled = ScaledCost(base, 2.5)
        np.testing.assert_allclose(scaled.row(0), [2.5, 5.0])
        assert scaled.cost(0, 1) == 5.0

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("inf")])
    def test_rejects_bad_factor(self, factor):
        base = MatrixCost(np.ones((1, 1)))
        with pytest.raises(ConfigurationError):
            ScaledCost(base, factor)


class TestCombinedCost:
    def test_default_weights_average(self):
        a = MatrixCost(np.array([[2.0, 0.0]]))
        b = MatrixCost(np.array([[0.0, 2.0]]))
        combined = CombinedCost([a, b])
        np.testing.assert_allclose(combined.row(0), [1.0, 1.0])

    def test_explicit_weights(self):
        a = MatrixCost(np.array([[1.0, 1.0]]))
        b = MatrixCost(np.array([[1.0, 0.0]]))
        combined = CombinedCost([a, b], weights=[1.0, 3.0])
        np.testing.assert_allclose(combined.row(0), [4.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            CombinedCost([])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            CombinedCost([MatrixCost(np.ones((1, 2))), MatrixCost(np.ones((2, 2)))])

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            CombinedCost([MatrixCost(np.ones((1, 2)))], weights=[1.0, 2.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(ConfigurationError):
            CombinedCost([MatrixCost(np.ones((1, 2)))], weights=[-1.0])


class TestCoercion:
    def test_passthrough_provider(self):
        provider = MatrixCost(np.ones((1, 1)))
        assert as_cost_provider(provider) is provider

    def test_matrix_coerced(self):
        provider = as_cost_provider(np.ones((2, 3)))
        assert provider.num_players == 2
        assert provider.num_classes == 3

    def test_callable_needs_dims(self):
        with pytest.raises(ConfigurationError):
            as_cost_provider(lambda v: [1.0])

    def test_callable_with_dims(self):
        provider = as_cost_provider(lambda v: [1.0, 2.0], 4, 2)
        assert provider.cost(0, 1) == 2.0


class TestView:
    """``view()``: the costs for reading, sharing storage where it can."""

    @staticmethod
    def _matrix(seed=0, shape=(6, 4)):
        return np.random.default_rng(seed).uniform(0.0, 3.0, shape)

    def test_matrix_view_shares_storage_and_refuses_writes(self):
        matrix = self._matrix()
        cost = MatrixCost(matrix)
        view = cost.view()
        assert np.shares_memory(view, matrix)
        assert view.tobytes() == matrix.tobytes()
        with pytest.raises(ValueError):
            view[0, 0] = 5.0
        # The provider's own matrix stays writeable: only the view is
        # frozen, and dense() is still a private, writeable copy.
        assert not cost.read_only
        dense = cost.dense()
        assert not np.shares_memory(dense, matrix)
        dense[0, 0] = 5.0
        assert cost.cost(0, 0) == matrix[0, 0]

    def test_scaled_and_combined_views_equal_their_rows(self):
        a = MatrixCost(self._matrix(1))
        b = FunctionCost(lambda v: self._matrix(2)[v], 6, 4)
        for provider in (
            ScaledCost(a, 0.37),
            ScaledCost(ScaledCost(b, 3.1), 0.7),
            CombinedCost([a, b], weights=[0.3, 0.0]),
            CombinedCost([ScaledCost(a, 1.9), b], weights=[0.25, 0.75]),
        ):
            rows = np.vstack([provider.row(v) for v in range(6)])
            view = provider.view()
            assert view.shape == (6, 4)
            assert view.tobytes() == rows.tobytes()
            assert provider.dense().tobytes() == rows.tobytes()
            assert not np.shares_memory(view, a.view())

    def test_default_view_is_dense(self):
        cost = FunctionCost(lambda v: [float(v), 1.0], 3, 2)
        assert cost.view().tobytes() == cost.dense().tobytes()
        empty = FunctionCost(lambda v: [1.0], 0, 1)
        assert empty.view().shape == (0, 1)
