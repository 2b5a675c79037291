"""Served reads never copy the cost matrix, and result labels are lazy.

A served solve reads the costs for Φ after every round (Eq. 4), for the
Eq. 1 objective of its result and for the table or batch build; each of
those reads :meth:`CostProvider.view`, which for the store's frozen
:class:`MatrixCost` is the resident matrix itself.  ``result.labels`` is
a read-only mapping built on first read, so a reply that only serializes
the result never builds it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import partition
from repro.api import SolveOptions
from repro.core import MatrixCost, RMGPInstance, ScaledCost
from repro.core.incremental import IncrementalRMGP
from repro.core.result import _Labels
from repro.obs import TraceRecorder
from repro.serve import EmbeddedServer, ServeConfig
from repro.serve.store import _build
from repro.serve.wire import InstanceSpec

from tests.core.conftest import random_instance

SERVED_SOLVERS = ("gt", "all", "is", "vec")


@pytest.fixture(scope="module")
def resident():
    """A store-built 3,000 x 128 instance, its init memo already filled."""
    instance = _build(InstanceSpec(dataset="gowalla", users=3000, events=128))
    assert instance.cost.read_only
    partition(instance, solver="gt")  # closest_classes' one dense() call
    return instance


class TestServedReadsDoNotCopy:
    @pytest.mark.parametrize("solver", SERVED_SOLVERS)
    def test_traced_solve_never_calls_dense(self, resident, solver, monkeypatch):
        def no_copy(self):
            raise AssertionError("a served read copied the cost matrix")

        monkeypatch.setattr(MatrixCost, "dense", no_copy)
        recorder = TraceRecorder()
        result = partition(
            resident, solver=solver,
            options=SolveOptions(alpha=0.3, recorder=recorder),
        )
        payload = result.to_dict()
        assert payload["n"] == 3000 and result.converged
        potentials = [
            span.attrs["potential"]
            for span in recorder.all_spans()
            if span.name == "round" and "potential" in span.attrs
        ]
        assert len(potentials) >= 2

    def test_view_is_the_resident_matrix(self, resident):
        view = resident.cost.view()
        assert np.shares_memory(view, resident.with_alpha(0.3).cost.view())
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


class TestColumnMajorCosts:
    """A column-major cost matrix solves as its row-major copy does.

    ``MatrixCost`` stores the matrix row-major, so the tables built from
    its view are row-major too, as the round loops require.
    """

    @staticmethod
    def _layouts(cost):
        yield "fortran", np.asfortranarray(cost)
        yield "transposed", np.ascontiguousarray(cost.T).T
        yield "scaled", ScaledCost(MatrixCost(np.asfortranarray(cost)), 2.5)

    @pytest.mark.parametrize("solver", ["gt", "all", "is", "vec", "inc"])
    def test_same_solve_as_row_major(self, solver):
        base = random_instance(num_players=60, num_classes=5, seed=6)
        cost = base.cost.dense()
        for name, layout in self._layouts(cost):
            reference_cost = (
                ScaledCost(MatrixCost(cost), 2.5) if name == "scaled" else cost
            )
            reference = partition(
                RMGPInstance(base.graph, base.classes, reference_cost),
                solver=solver, seed=4,
            )
            result = partition(
                RMGPInstance(base.graph, base.classes, layout),
                solver=solver, seed=4,
            )
            assert result.assignment.tobytes() == reference.assignment.tobytes()
            assert len(result.rounds) == len(reference.rounds)
            assert result.value == reference.value

    def test_matrix_cost_stores_row_major(self):
        cost = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        view = MatrixCost(cost).view()
        assert view.flags.c_contiguous
        assert view.tobytes() == np.ascontiguousarray(cost).tobytes()


def _labels_poisoned(monkeypatch):
    def never(*args):
        raise AssertionError("the labels mapping was built")

    monkeypatch.setattr(_Labels, "_labels", never)
    monkeypatch.setattr(RMGPInstance, "assignment_to_labels", never)


class TestLazyLabels:
    @pytest.mark.parametrize("solver", ["gt", "b", "mg"])
    def test_equals_assignment_to_labels_in_order(self, solver):
        instance = random_instance(num_players=30, seed=5)
        result = partition(instance, solver=solver)
        expected = instance.assignment_to_labels(result.assignment)
        # assignment_to_labels against an element-by-element build.
        assert list(expected.items()) == [
            (instance.node_ids[i], instance.classes[result.assignment[i]])
            for i in range(instance.n)
        ]
        assert list(result.labels.items()) == list(expected.items())
        assert result.labels == expected and expected == result.labels
        assert len(result.labels) == instance.n
        assert result.labels[instance.node_ids[7]] == expected[
            instance.node_ids[7]
        ]
        assert dict(result.labels) == expected
        assert repr(result.labels) == repr(expected)

    def test_read_only(self):
        result = partition(random_instance(seed=1), solver="gt")
        with pytest.raises(TypeError):
            result.labels[0] = 99  # type: ignore[index]

    def test_writing_the_assignment_leaves_the_labels(self):
        instance = random_instance(seed=2)
        result = partition(instance, solver="gt")
        expected = instance.assignment_to_labels(result.assignment)
        result.assignment[:] = (result.assignment + 1) % instance.k
        assert result.labels == expected

    def test_survives_engine_add_and_remove(self):
        engine = IncrementalRMGP(random_instance(num_players=25, seed=3))
        instance = engine.instance
        before = engine.resolve()
        expected = instance.assignment_to_labels(before.assignment)
        # A row that makes player 1 move: the engine's next resolve
        # writes its assignment in place.
        moved = instance.node_ids[1]
        row = np.full(instance.k, 9.0)
        row[(before.assignment[1] + 1) % instance.k] = 0.0
        engine.update_player_costs(moved, row)
        assert engine.resolve().extra["vertices_moved"] >= 1
        engine.add_vertex("newcomer", [0.0] * instance.k, [(0, 1.0)])
        after_add = engine.resolve()
        expected_add = instance.assignment_to_labels(after_add.assignment)
        engine.remove_vertex(instance.node_ids[0])
        engine.remove_vertex("newcomer")
        engine.resolve()
        assert instance.n == 24
        assert list(before.labels.items()) == list(expected.items())
        assert list(after_add.labels.items()) == list(expected_add.items())
        assert len(after_add.labels) == 26 and "newcomer" in after_add.labels

    def test_to_dict_and_a_json_reply_do_not_build_it(self, monkeypatch):
        _labels_poisoned(monkeypatch)
        result = partition(random_instance(seed=4), solver="gt")
        json.dumps(result.to_dict(include_assignment=True))
        with EmbeddedServer(ServeConfig(port=0, pool_size=1)) as client:
            reply = client.solve(
                {"instance": {"dataset": "paper"}, "solver": "gt"}
            )
        assert reply["state"] == "done"
        assert reply["result"]["schema"] == "repro-result/v1"
