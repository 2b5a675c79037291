"""Decentralized RMGP: the DG framework, FaE, and the simulated cluster."""

from repro.distributed.cluster import Cluster, build_cluster
from repro.distributed.coloring import (
    DistributedColoringStats,
    distributed_coloring,
)
from repro.distributed.fae import FaEResult, run_fae
from repro.distributed.faults import (
    CrashEvent,
    DeliveryOutcome,
    FaultPlan,
    FaultyNetwork,
    InjectedFault,
)
from repro.distributed.master import (
    ChannelState,
    DecentralizedGame,
    DGResult,
    DGRoundStats,
    ReliableTransport,
    RetryPolicy,
    estimate_cn_from_reports,
)
from repro.distributed.peer import PeerToPeerGame
from repro.distributed.messages import (
    Message,
    MessageType,
    graph_shard_bytes,
)
from repro.distributed.network import RoundLedger, SimulatedNetwork
from repro.distributed.partitioner import (
    cross_shard_edges,
    hash_partition,
    locality_partition,
    range_partition,
    shard_of_map,
)
from repro.distributed.query import DGQuery
from repro.distributed.slave import SlaveInitReport, SlaveNode

__all__ = [
    "ChannelState",
    "Cluster",
    "CrashEvent",
    "DGQuery",
    "DGResult",
    "DGRoundStats",
    "DecentralizedGame",
    "DeliveryOutcome",
    "DistributedColoringStats",
    "FaEResult",
    "FaultPlan",
    "FaultyNetwork",
    "InjectedFault",
    "Message",
    "MessageType",
    "PeerToPeerGame",
    "ReliableTransport",
    "RetryPolicy",
    "estimate_cn_from_reports",
    "RoundLedger",
    "SimulatedNetwork",
    "SlaveInitReport",
    "SlaveNode",
    "build_cluster",
    "cross_shard_edges",
    "distributed_coloring",
    "graph_shard_bytes",
    "hash_partition",
    "locality_partition",
    "range_partition",
    "run_fae",
    "shard_of_map",
]
