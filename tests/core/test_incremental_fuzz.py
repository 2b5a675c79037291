"""Property-based stress test: the incremental engine never drifts.

After *any* interleaving of cost updates, edge insertions, edge removals
and resolves, the engine's cached global table must equal a from-scratch
rebuild, and resolving must land on a Nash equilibrium of the mutated
instance.  This is the invariant that makes the online scenario safe.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IncrementalRMGP,
    build_global_table,
    is_nash_equilibrium,
)

from tests.core.conftest import random_instance


@st.composite
def update_scripts(draw):
    """A list of update operations against a 12-player instance."""
    operations = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["cost", "add_edge", "remove_edge", "resolve"]))
        if kind == "cost":
            operations.append(
                (
                    "cost",
                    draw(st.integers(0, 11)),
                    [draw(st.floats(0.0, 5.0)) for _ in range(3)],
                )
            )
        elif kind == "add_edge":
            u = draw(st.integers(0, 11))
            v = draw(st.integers(0, 11).filter(lambda x: True))
            operations.append(("add_edge", u, v, draw(st.floats(0.1, 4.0))))
        elif kind == "remove_edge":
            operations.append(("remove_edge", draw(st.integers(0, 200))))
        else:
            operations.append(("resolve",))
    return operations


@settings(max_examples=40, deadline=None)
@given(update_scripts(), st.integers(0, 5))
def test_incremental_consistency_under_any_script(script, seed):
    instance = random_instance(
        num_players=12, num_classes=3, edge_probability=0.3, seed=seed
    )
    engine = IncrementalRMGP(instance, seed=0)
    for operation in script:
        if operation[0] == "cost":
            _, player, row = operation
            node = engine.instance.node_ids[player]
            engine.update_player_costs(node, row)
        elif operation[0] == "add_edge":
            _, u, v, weight = operation
            nu = engine.instance.node_ids[u % 12]
            nv = engine.instance.node_ids[v % 12]
            if nu != nv:
                engine.add_edge(nu, nv, weight)
        elif operation[0] == "remove_edge":
            edges = list(engine.instance.graph.edges())
            if edges:
                u, v, _ = edges[operation[1] % len(edges)]
                engine.remove_edge(u, v)
        else:
            engine.resolve()

    engine.resolve()
    # Invariant 1: the cached table matches a from-scratch rebuild.
    rebuilt = build_global_table(engine.instance, engine.assignment)
    np.testing.assert_allclose(engine._table, rebuilt, atol=1e-9)
    # Invariant 2: the final state is a Nash equilibrium.
    assert is_nash_equilibrium(engine.instance, engine.assignment)
    # Invariant 3: adjacency caches agree with the mutated graph.
    indptr = engine.instance.indptr
    for player, node in enumerate(engine.instance.node_ids):
        neighbors = engine.instance.graph.neighbors(node)
        row = engine.instance.indices[indptr[player] : indptr[player + 1]]
        cached = {engine.instance.node_ids[int(i)] for i in row}
        assert cached == set(neighbors)
        assert engine.instance.half_strength[player] == pytest.approx(
            0.5 * sum(neighbors.values())
        )
