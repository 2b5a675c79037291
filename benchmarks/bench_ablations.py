"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not paper figures — these quantify the internal choices the paper
describes qualitatively: coloring algorithm (Section 4.2), player
ordering (Section 3.1), warm starts for repeated execution (Section 3.1),
sequential vs simultaneous updates (Section 4.2's warning), sharding
scheme and relayed-vs-peer coordination (Section 5).
"""

from __future__ import annotations

import random

import pytest

from repro import partition
from repro.bench import gowalla_dataset
from repro.bench.harness import Table
from repro.bench.workloads import instance_for
from repro.core import IncrementalRMGP
from repro.core.normalization import normalize
from repro.datasets import gowalla_like
from repro.distributed import (
    DGQuery,
    build_cluster,
    cross_shard_edges,
    hash_partition,
    locality_partition,
    range_partition,
)
from repro.graph import (
    dsatur_coloring,
    greedy_coloring,
    num_colors,
    welsh_powell_coloring,
)


@pytest.fixture(scope="module")
def instance():
    dataset = gowalla_dataset(seed=0)
    normalized, _ = normalize(
        instance_for(dataset, num_events=16, seed=0), "pessimistic"
    )
    return normalized


@pytest.fixture(scope="module")
def small_dataset():
    return gowalla_like(num_users=600, num_events=16, seed=51)


class TestColoringAblation:
    def test_coloring_choice(self, benchmark, emit, instance):
        """Fewer colors = fewer synchronization barriers for RMGP_is."""

        def run():
            table = Table(
                title="Ablation: coloring algorithm for RMGP_is",
                columns=["algorithm", "colors", "model_speedup_T8"],
            )
            for name, algorithm in (
                ("greedy", greedy_coloring),
                ("welsh_powell", welsh_powell_coloring),
                ("dsatur", dsatur_coloring),
            ):
                coloring = algorithm(instance.graph)
                result = partition(
                    instance, solver="is", seed=0, coloring=coloring, threads=8
                )
                table.add_row(
                    algorithm=name,
                    colors=num_colors(coloring),
                    model_speedup_T8=result.extra["model_speedup"],
                )
            return table

        table = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(table)
        colors = dict(zip(table.column("algorithm"), table.column("colors")))
        # The smarter orderings never use more colors than plain greedy
        # (allow one color of slack for tie-breaking noise).
        assert colors["dsatur"] <= colors["greedy"] + 1
        assert colors["welsh_powell"] <= colors["greedy"] + 1


class TestOrderingAblation:
    def test_player_ordering(self, benchmark, emit, instance):
        def run():
            table = Table(
                title="Ablation: player ordering (closest init)",
                columns=["order", "rounds", "ms", "objective"],
            )
            for order in ("random", "given", "degree"):
                result = partition(
                    instance, solver="b", init="closest", order=order, seed=0
                )
                table.add_row(
                    order=order,
                    rounds=result.num_rounds,
                    ms=result.wall_seconds * 1e3,
                    objective=result.value.total,
                )
            return table

        table = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(table)
        rounds = dict(zip(table.column("order"), table.column("rounds")))
        # Degree ordering should not need more rounds than random order
        # ("community leaders first" propagates changes fast).
        assert rounds["degree"] <= rounds["random"] + 1


class TestWarmStartAblation:
    def test_cold_vs_warm_vs_incremental(self, benchmark, emit, instance):
        """The repeated-execution scenario: cold solve vs warm-started
        solve vs the incremental engine after a 1% perturbation."""

        def run():
            table = Table(
                title="Ablation: repeated execution after a small update",
                columns=["strategy", "rounds", "deviations"],
            )
            cold = partition(
                instance, solver="b", init="closest", order="degree", seed=0
            )
            table.add_row(
                strategy="cold", rounds=cold.num_rounds,
                deviations=cold.total_deviations,
            )
            warm = partition(
                instance, solver="b", order="degree", seed=0,
                warm_start=cold.assignment,
            )
            table.add_row(
                strategy="warm", rounds=warm.num_rounds,
                deviations=warm.total_deviations,
            )
            engine = IncrementalRMGP(instance, seed=0)
            rng = random.Random(0)
            import numpy as np

            noise = np.random.default_rng(0)
            for _ in range(max(1, instance.n // 100)):
                node = instance.node_ids[rng.randrange(instance.n)]
                # A genuine relocation: the user's distances to the events
                # are reshuffled (mild jitter alone rarely breaks an
                # equilibrium — they are robust to small perturbations).
                row = engine._matrix[instance.index_of[node]]
                engine.update_player_costs(node, noise.permutation(row))
            incremental = engine.resolve()
            table.add_row(
                strategy="incremental(1% moved)",
                rounds=incremental.num_rounds,
                deviations=incremental.total_deviations,
            )
            return table

        table = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(table)
        rows = {r["strategy"]: r for r in table.rows}
        assert rows["warm"]["deviations"] == 0
        assert (
            rows["incremental(1% moved)"]["deviations"]
            <= rows["cold"]["deviations"]
        )


class TestSchedulingAblation:
    def test_round_robin_vs_max_gain(self, benchmark, emit, instance):
        """Best-improvement vs the paper's round-robin schedule."""

        def run():
            table = Table(
                title="Ablation: round-robin vs max-gain scheduling",
                columns=["schedule", "moves", "ms", "objective"],
            )
            round_robin = partition(
                instance, solver="b", init="closest", order="given"
            )
            table.add_row(
                schedule="round-robin",
                moves=round_robin.total_deviations,
                ms=round_robin.wall_seconds * 1e3,
                objective=round_robin.value.total,
            )
            max_gain = partition(instance, solver="mg", init="closest")
            table.add_row(
                schedule="max-gain",
                moves=max_gain.extra["total_moves"],
                ms=max_gain.wall_seconds * 1e3,
                objective=max_gain.value.total,
            )
            return table

        table = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(table)
        rows = {r["schedule"]: r for r in table.rows}
        # Same quality class; both are Nash equilibria of the same game.
        assert (
            rows["max-gain"]["objective"]
            <= 1.2 * rows["round-robin"]["objective"]
        )


class TestSimultaneousAblation:
    def test_sync_vs_sequential(self, benchmark, emit, instance):
        def run():
            table = Table(
                title="Ablation: sequential vs simultaneous best responses",
                columns=["dynamics", "converged", "rounds",
                         "potential_increases"],
            )
            sequential = partition(
                instance, solver="b", init="closest", order="given",
                track_potential=True,
            )
            table.add_row(
                dynamics="sequential",
                converged=sequential.converged,
                rounds=sequential.num_rounds,
                potential_increases=0,
            )
            for damping in (1.0, 0.5):
                sync = partition(
                    instance, solver="sync", init="closest", damping=damping,
                    seed=0,
                    max_rounds=60,
                )
                table.add_row(
                    dynamics=f"simultaneous(d={damping})",
                    converged=sync.converged,
                    rounds=sync.num_rounds,
                    potential_increases=sync.extra["potential_increases"],
                )
            return table

        table = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(table)
        rows = {r["dynamics"]: r for r in table.rows}
        assert rows["sequential"]["converged"]


class TestIncrementalScalingAblation:
    def test_epoch_cost_tracks_updates_not_graph_size(self, benchmark, emit):
        """The online claim, quantified: after a fixed number of check-in
        relocations, incremental re-convergence cost stays roughly flat
        while cold re-solve cost grows with the graph."""
        import time

        import numpy as np

        from repro.core import RMGPInstance
        from repro.core.normalization import normalize

        def run():
            table = Table(
                title="Ablation: incremental vs cold re-solve across sizes",
                columns=["users", "cold_ms", "incremental_ms", "deviations"],
            )
            for num_users in (1000, 2000, 4000):
                dataset = gowalla_like(
                    num_users=num_users, num_events=16, seed=7
                )
                instance, _ = normalize(
                    RMGPInstance(
                        dataset.graph, dataset.event_ids,
                        dataset.cost_matrix(), 0.5,
                    ),
                    "pessimistic",
                )
                start = time.perf_counter()
                partition(instance, solver="all", seed=0)
                cold_ms = (time.perf_counter() - start) * 1e3

                engine = IncrementalRMGP(instance, seed=0)
                noise = np.random.default_rng(0)
                rng = random.Random(0)
                for _ in range(20):
                    node = instance.node_ids[rng.randrange(instance.n)]
                    row = engine._matrix[instance.index_of[node]]
                    engine.update_player_costs(node, noise.permutation(row))
                start = time.perf_counter()
                result = engine.resolve()
                incremental_ms = (time.perf_counter() - start) * 1e3
                table.add_row(
                    users=num_users,
                    cold_ms=cold_ms,
                    incremental_ms=incremental_ms,
                    deviations=result.total_deviations,
                )
            return table

        table = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(table)
        cold = table.column("cold_ms")
        incremental = table.column("incremental_ms")
        # Cold cost grows with n; incremental stays an order cheaper at
        # the largest size.
        assert cold[-1] > cold[0]
        assert incremental[-1] < cold[-1] / 5.0


class TestShardingAndProtocolAblation:
    def test_sharding_schemes(self, benchmark, emit, small_dataset):
        def run():
            table = Table(
                title="Ablation: sharding scheme for DG (2 slaves)",
                columns=["scheme", "cross_edges", "dg_bytes", "dg_rounds"],
            )
            graph = small_dataset.graph
            query = DGQuery(events=small_dataset.events, seed=0)
            schemes = {
                "hash": hash_partition(graph.nodes(), 2),
                "range": range_partition(graph.nodes(), 2),
                "locality": locality_partition(graph, 2, seed=0),
            }
            for name, shards in schemes.items():
                cluster = build_cluster(
                    small_dataset, shards=shards,
                    use_distributed_coloring=False,
                )
                result = cluster.game.run(query)
                table.add_row(
                    scheme=name,
                    cross_edges=cross_shard_edges(graph, shards),
                    dg_bytes=result.total_bytes,
                    dg_rounds=result.num_rounds,
                )
            return table

        table = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(table)
        rows = {r["scheme"]: r for r in table.rows}
        assert rows["locality"]["cross_edges"] < rows["hash"]["cross_edges"]

    def test_relayed_vs_peer(self, benchmark, emit, small_dataset):
        def run():
            table = Table(
                title="Ablation: relayed vs peer-to-peer coordination",
                columns=["protocol", "bytes", "messages", "rounds"],
            )
            shards = hash_partition(small_dataset.graph.nodes(), 2)
            query = DGQuery(events=small_dataset.events, seed=0)
            for protocol in ("relayed", "peer"):
                cluster = build_cluster(
                    small_dataset, shards=shards, protocol=protocol,
                    use_distributed_coloring=False,
                )
                result = cluster.game.run(query)
                table.add_row(
                    protocol=protocol,
                    bytes=result.total_bytes,
                    messages=result.total_messages,
                    rounds=result.num_rounds,
                )
            return table

        table = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(table)
        rows = {r["protocol"]: r for r in table.rows}
        assert rows["peer"]["bytes"] < rows["relayed"]["bytes"]
        assert rows["peer"]["rounds"] == rows["relayed"]["rounds"]
