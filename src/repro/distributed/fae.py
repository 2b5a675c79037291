"""FaE — fetch-and-execute (Section 5, the DG comparison point).

"One could perform RMGP on a distributed social graph by fetching the
data over the network through the API to a master processing unit and
executing the algorithm locally."  FaE therefore:

1. transfers every remote shard (users, check-ins, adjacency lists) to
   the processing server — a query-independent bulk move accounted at
   exact wire size over the simulated 100 Mbps link (the gray bars of
   Figure 13), and
2. runs the best centralized algorithm (RMGP_all) locally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.api import partition
from repro.apps.spatial import Point, distance_matrix
from repro.core.instance import RMGPInstance
from repro.core.normalization import normalize
from repro.core.result import PartitionResult
from repro.distributed.messages import HEADER_BYTES, graph_shard_bytes
from repro.distributed.network import SimulatedNetwork
from repro.distributed.query import DGQuery
from repro.errors import ProtocolError
from repro.graph.social_graph import NodeId, SocialGraph


@dataclass
class FaEResult:
    """Outcome of a fetch-and-execute run, split as in Figure 13."""

    partition: PartitionResult
    transfer_seconds: float
    execution_seconds: float
    transfer_bytes: int
    extra: Dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Transfer plus local execution (the full Figure 13 column)."""
        return self.transfer_seconds + self.execution_seconds


def run_fae(
    graph: SocialGraph,
    checkins: Dict[NodeId, Point],
    shards: Sequence[Sequence[NodeId]],
    query: DGQuery,
    network: Optional[SimulatedNetwork] = None,
    local_shard: int = -1,
    seed: Optional[int] = None,
) -> FaEResult:
    """Fetch all remote shards, then solve the query locally.

    ``local_shard`` marks a shard already resident at the processing
    server (no transfer); the default ``-1`` means the server starts
    empty — the paper's setup, where a third server receives everything.
    """
    network = network or SimulatedNetwork()

    # ---- Phase 1: bulk transfer (query-independent) -------------------
    network.begin_round(0)
    transfer_seconds = 0.0
    transfer_bytes = 0
    shard_sets = [set(s) for s in shards]
    for index, shard in enumerate(shard_sets):
        if index == local_shard:
            continue
        internal_edges = 0
        for user in shard:
            internal_edges += len(graph.neighbors(user))
        # Adjacency lists ship as stored, one list per user; the count
        # above already totals directed entries, so halve the edge term.
        size = graph_shard_bytes(len(shard), internal_edges // 2) + HEADER_BYTES
        transfer_seconds += network.transfer_seconds(size)
        transfer_bytes += size

    # ---- Phase 2: local execution --------------------------------------
    start = time.perf_counter()
    if query.area is None:
        participants = graph.nodes()
    else:
        participants = [
            user for user in graph if query.area.contains(checkins[user])
        ]
    if not participants:
        raise ProtocolError("no participants inside the area of interest")
    subgraph = graph if query.area is None else graph.subgraph(participants)

    user_points = [checkins[u] for u in subgraph.nodes()]
    event_points = [e.location for e in query.events]
    cost = distance_matrix(user_points, event_points)
    instance = RMGPInstance(
        subgraph,
        classes=[e.event_id for e in query.events],
        cost=cost,
        alpha=query.alpha,
    )
    cn = 1.0
    if query.normalize is not None:
        instance, estimate = normalize(instance, query.normalize)
        cn = estimate.cn
    result = partition(instance, solver="all", init=query.init, seed=seed)
    execution_seconds = time.perf_counter() - start

    return FaEResult(
        partition=result,
        transfer_seconds=transfer_seconds,
        execution_seconds=execution_seconds,
        transfer_bytes=transfer_bytes,
        extra={"cn": cn, "num_participants": len(participants)},
    )
