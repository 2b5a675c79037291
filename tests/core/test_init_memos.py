"""The α-independent solver init, memoized per resident graph.

``RMGPInstance`` keeps the closest-class argmin of C, the degree order and
the CSR slot keys in a memo that its ``with_alpha`` / ``with_cost``
clones share.  A memo must never outlive a write to its inputs: the
incremental engine rewrites its cost matrix in place, a rebuild replaces
the degrees, and a cost clone has costs of its own.  After each of those
a ``gt`` solve must equal the same solve on a freshly built instance.
"""

from __future__ import annotations

import numpy as np

from repro.api import partition
from repro.core import MatrixCost, RMGPInstance
from repro.core.incremental import IncrementalRMGP
from repro.serve.store import InstanceStore
from repro.serve.wire import InstanceSpec

from tests.core.conftest import random_instance


def frozen(instance: RMGPInstance, matrix=None) -> RMGPInstance:
    """``instance`` with a read-only cost matrix, as the store builds it."""
    matrix = instance.cost.dense() if matrix is None else matrix.copy()
    matrix.flags.writeable = False
    return RMGPInstance(
        instance.graph, instance.classes, matrix, alpha=instance.alpha
    )


def fresh(instance: RMGPInstance, graph=None) -> RMGPInstance:
    """A new instance of the same graph, costs and α: no memo at all."""
    return RMGPInstance(
        (instance.graph if graph is None else graph).copy(),
        instance.classes, instance.cost.dense(), alpha=instance.alpha,
    )


def assert_same_solve(instance: RMGPInstance, reference: RMGPInstance):
    got = partition(instance, solver="gt")
    expected = partition(reference, solver="gt")
    assert got.assignment.tobytes() == expected.assignment.tobytes()
    assert [r.deviations for r in got.rounds] == [
        r.deviations for r in expected.rounds
    ]
    assert [r.players_examined for r in got.rounds] == [
        r.players_examined for r in expected.rounds
    ]


def test_after_update_player_costs():
    engine = IncrementalRMGP(random_instance(num_players=40, seed=3))
    instance = engine.instance
    partition(instance, solver="gt")
    closest = instance.closest_classes()
    node = instance.node_ids[0]
    row = np.full(instance.k, 5.0)
    row[(closest[0] + 1) % instance.k] = 0.0
    engine.update_player_costs(node, row)
    assert instance.closest_classes()[0] == (closest[0] + 1) % instance.k
    assert_same_solve(instance, fresh(instance))


def test_after_a_rebuild_that_changes_degrees():
    instance = random_instance(num_players=40, seed=4)
    clone = instance.with_alpha(0.3)
    before = instance.graph.copy()
    partition(instance, solver="gt")
    partition(clone, solver="gt")
    order = instance.degree_order()
    # Tie the last player in degree order to everyone it does not know:
    # it becomes the most connected player.
    last = instance.node_ids[order[-1]]
    for node in instance.node_ids:
        if node != last and not instance.graph.has_edge(last, node):
            instance.graph.add_edge(last, node, 1.0)
    instance.rebuild_adjacency()
    assert instance.degree_order()[0] == order[-1]
    assert_same_solve(instance, fresh(instance))
    # The clone keeps the CSR (and so the degrees) of its last build.
    assert clone.degree_order() == order
    assert_same_solve(clone, fresh(clone, graph=before))


def test_on_a_with_cost_clone():
    base = random_instance(num_players=40, seed=5)
    instance = frozen(base)
    partition(instance, solver="gt")
    other = np.ascontiguousarray(instance.cost.dense()[:, ::-1])
    other.flags.writeable = False
    clone = instance.with_cost(MatrixCost(other))
    assert clone.cost.read_only
    assert not np.array_equal(
        clone.closest_classes(), instance.closest_classes()
    )
    assert_same_solve(clone, fresh(clone))
    assert_same_solve(instance, fresh(instance))


def test_alpha_clones_share_one_closest_argmin(monkeypatch):
    instance = frozen(random_instance(num_players=40, seed=6))
    calls = []
    dense = instance.cost.dense
    monkeypatch.setattr(
        instance.cost, "dense", lambda: calls.append(1) or dense()
    )
    clones = [instance.with_alpha(alpha) for alpha in (0.2, 0.4, 0.6)]
    results = [clone.closest_classes() for clone in clones]
    assert len(calls) == 1
    for result in results:
        assert result.tobytes() == results[0].tobytes()
    # Callers own what they get: writing it leaves the memo intact.
    results[0][:] = -1
    assert (clones[1].closest_classes() >= 0).all()
    order = clones[0].degree_order()
    order.reverse()
    assert clones[1].degree_order() == order[::-1]


def test_writable_costs_are_never_memoized(monkeypatch):
    instance = random_instance(num_players=40, seed=6)
    assert not instance.cost.read_only
    calls = []
    dense = instance.cost.dense
    monkeypatch.setattr(
        instance.cost, "dense", lambda: calls.append(1) or dense()
    )
    instance.closest_classes()
    instance.closest_classes()
    assert len(calls) == 2


def test_store_freezes_resident_costs():
    instance, hit = InstanceStore().get(
        InstanceSpec(dataset="gowalla", users=60, events=4, seed=2)
    )
    assert not hit
    assert instance.cost.read_only
