"""DG <-> centralized equivalence: the distributed protocol computes the
*same game* as RMGP_all.

With identical inputs — same coloring, same closest-event initialization,
same normalization constant — a DG round (per color: all unhappy players
of that color best-respond against the current global vector, then the
changes are applied) is exactly one RMGP_all round (sweep the color
groups, members are non-adjacent so batch == sequential).  Hence the two
must produce identical assignments, not merely equally good ones.
"""

import numpy as np
import pytest

from repro import partition
from repro.core import RMGPInstance
from repro.core.normalization import normalize_with_constant
from repro.datasets import gowalla_like
from repro.distributed import DGQuery, build_cluster, hash_partition
from repro.graph import greedy_coloring


@pytest.mark.parametrize("num_slaves", [1, 2, 3])
def test_dg_matches_centralized_all(num_slaves):
    dataset = gowalla_like(num_users=300, num_events=8, seed=101)
    coloring = greedy_coloring(dataset.graph)
    shards = hash_partition(dataset.graph.nodes(), num_slaves)

    cluster = build_cluster(
        dataset,
        num_slaves=num_slaves,
        shards=shards,
        use_distributed_coloring=False,  # share the exact same coloring
    )
    # build_cluster computes its own greedy coloring over the same graph
    # in the same node order -> identical to `coloring`.
    assert cluster.coloring == coloring

    query = DGQuery(events=dataset.events, alpha=0.5, init="closest")
    dg = cluster.game.run(query)

    base = RMGPInstance(
        dataset.graph, dataset.event_ids, dataset.cost_matrix(), 0.5
    )
    instance = normalize_with_constant(base, dg.cn)
    centralized = partition(
        instance, solver="all", init="closest", order="given",
        coloring=coloring,
    )

    dg_assignment = np.array(
        [dg.assignment[u] for u in dataset.graph.nodes()]
    )
    np.testing.assert_array_equal(dg_assignment, centralized.assignment)
    assert dg.num_rounds == centralized.num_rounds


def test_peer_matches_centralized_too():
    dataset = gowalla_like(num_users=250, num_events=6, seed=103)
    coloring = greedy_coloring(dataset.graph)
    cluster = build_cluster(
        dataset, num_slaves=2, protocol="peer", use_distributed_coloring=False
    )
    query = DGQuery(events=dataset.events, alpha=0.5, init="closest")
    dg = cluster.game.run(query)
    base = RMGPInstance(
        dataset.graph, dataset.event_ids, dataset.cost_matrix(), 0.5
    )
    instance = normalize_with_constant(base, dg.cn)
    centralized = partition(
        instance, solver="all", init="closest", order="given",
        coloring=coloring,
    )
    dg_assignment = np.array(
        [dg.assignment[u] for u in dataset.graph.nodes()]
    )
    np.testing.assert_array_equal(dg_assignment, centralized.assignment)
