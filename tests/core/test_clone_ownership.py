"""Ownership of the graph-derived arrays that α and cost clones share.

``with_alpha`` / ``with_cost`` build their clone from the parent's CSR
instead of rebuilding it.  Shared arrays are read-only on both sides, and
a rebuild or an edge-weight update on either side allocates private
arrays first, so neither side ever sees the other's write.  Every test
first checks that the clone really shares memory with its parent;
otherwise the isolation checks would pass vacuously.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import partition
from repro.core import RMGPInstance, ScaledCost
from repro.core.incremental import IncrementalRMGP
from repro.errors import ConfigurationError
from repro.streaming import MutationFeed, random_mutation_stream

from tests.core.conftest import random_instance
from tests.streaming.conftest import as_batches

SHARED = (
    "indptr", "indices", "weights", "half_weights", "edge_owner",
    "_degrees", "_half_strength",
)
ARRAYS = SHARED + ("max_social_cost",)


def snapshot(instance: RMGPInstance) -> dict:
    """Every byte a solve reads from ``instance``."""
    state = {name: getattr(instance, name).tobytes() for name in ARRAYS}
    state["node_ids"] = list(instance.node_ids)
    state["index_of"] = dict(instance.index_of)
    state["alpha"] = instance.alpha
    state["cost"] = instance.cost.dense().tobytes()
    return state


def clone_of(parent: RMGPInstance, kind: str) -> RMGPInstance:
    if kind == "alpha":
        return parent.with_alpha(0.8)
    return parent.with_cost(ScaledCost(parent.cost, 2.0))


def assert_shares(parent: RMGPInstance, clone: RMGPInstance) -> None:
    for name in SHARED:
        assert np.shares_memory(getattr(parent, name), getattr(clone, name)), name
    assert clone.node_ids is parent.node_ids
    assert clone.index_of is parent.index_of


def an_edge(instance: RMGPInstance):
    owner = int(instance.edge_owner[0])
    friend = int(instance.indices[0])
    return instance.node_ids[owner], instance.node_ids[friend]


KINDS = ["alpha", "cost"]


class TestCloneEquivalence:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
    def test_with_alpha_matches_a_fresh_build(self, alpha):
        parent = random_instance(num_players=30, seed=3)
        clone = parent.with_alpha(alpha)
        fresh = RMGPInstance(parent.graph, parent.classes, parent.cost, alpha)
        assert snapshot(clone) == snapshot(fresh)
        ours = partition(clone, solver="gt", seed=1)
        theirs = partition(fresh, solver="gt", seed=1)
        np.testing.assert_array_equal(ours.assignment, theirs.assignment)
        assert ours.value == theirs.value

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0, float("nan")])
    def test_with_alpha_rejects_bad_alpha(self, alpha):
        with pytest.raises(ConfigurationError):
            random_instance().with_alpha(alpha)

    def test_with_cost_checks_the_shape(self):
        parent = random_instance(num_players=10, num_classes=3)
        with pytest.raises(ConfigurationError):
            parent.with_cost(np.zeros((9, 3)))
        with pytest.raises(ConfigurationError):
            parent.with_cost(np.zeros((10, 4)))


class TestSharedArraysAreReadOnly:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", SHARED)
    def test_writes_raise_on_both_sides(self, kind, name):
        parent = random_instance()
        clone = clone_of(parent, kind)
        assert_shares(parent, clone)
        for side in (clone, parent):
            with pytest.raises(ValueError):
                getattr(side, name)[0] = 1

    def test_with_cost_shares_max_social_cost_read_only(self):
        parent = random_instance()
        clone = parent.with_cost(ScaledCost(parent.cost, 2.0))
        assert clone.max_social_cost is parent.max_social_cost
        with pytest.raises(ValueError):
            clone.max_social_cost[0] = 1.0

    def test_with_alpha_owns_its_max_social_cost(self):
        parent = random_instance()
        clone = parent.with_alpha(0.8)
        assert not np.shares_memory(clone.max_social_cost, parent.max_social_cost)
        np.testing.assert_array_equal(
            clone.max_social_cost, (1.0 - 0.8) * parent.half_strength
        )


class TestWritesStayPrivate:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("writer", ["parent", "clone"])
    def test_rebuild(self, kind, writer):
        parent = random_instance(num_players=30, seed=4)
        clone = clone_of(parent, kind)
        assert_shares(parent, clone)
        sides = {"parent": parent, "clone": clone}
        side = sides[writer]
        other = sides["clone" if writer == "parent" else "parent"]
        before = snapshot(other)
        # The graph object is shared (as it always was); removing an edge
        # shifts every CSR slice after it once ``side`` rebuilds.
        side.graph.remove_edge(*an_edge(side))
        side.rebuild_adjacency()
        assert snapshot(other) == before
        assert side.indices.size == other.indices.size - 2
        assert side.indices.flags.writeable

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("writer", ["parent", "clone"])
    def test_update_edge_weight(self, kind, writer):
        parent = random_instance(num_players=30, seed=5)
        clone = clone_of(parent, kind)
        assert_shares(parent, clone)
        sides = {"parent": parent, "clone": clone}
        side = sides[writer]
        other = sides["clone" if writer == "parent" else "parent"]
        before = snapshot(other)
        u, v = an_edge(side)
        side.update_edge_weight(u, v, side.graph.weight(u, v) + 1.5)
        assert snapshot(other) == before
        assert side.weights.sum() == pytest.approx(other.weights.sum() + 3.0)

    def test_repeated_rebuilds_after_cloning_stay_private(self):
        parent = random_instance(num_players=30, seed=6)
        clone = parent.with_alpha(0.7)
        assert_shares(parent, clone)
        before = snapshot(clone)
        u, v = an_edge(parent)
        parent.graph.remove_edge(u, v)
        parent.rebuild_adjacency()
        parent.graph.add_edge(u, v, 2.0)
        parent.rebuild_adjacency()  # reuses the parent's fresh scratch
        assert snapshot(clone) == before


def test_engine_on_a_clone_leaves_parent_and_clone_unchanged():
    parent = random_instance(num_players=30, seed=7)
    clone = parent.with_alpha(0.7)
    assert_shares(parent, clone)
    before = (snapshot(parent), snapshot(clone))
    edges = sorted(parent.graph.edges(), key=repr)
    engine = IncrementalRMGP(clone, seed=7)
    feed = MutationFeed(engine)
    stream = random_mutation_stream(engine.instance, 40, seed=7)
    for batch in as_batches(stream, 8):
        feed.apply(batch)
        engine.set_alpha(0.4)
    assert snapshot(engine.instance) != snapshot(clone)
    assert (snapshot(parent), snapshot(clone)) == before
    assert sorted(parent.graph.edges(), key=repr) == edges
