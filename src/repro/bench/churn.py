"""Churn workload: sustained mutation throughput, incremental vs cold.

The streaming claim of ISSUE 6, measured: feed a seeded random mutation
stream through a live :class:`~repro.core.incremental.IncrementalRMGP`
(one :class:`~repro.streaming.feed.MutationFeed` batch per resolve) and,
for every batch, also re-solve the pure-mutated instance from scratch.
Three series come out:

* **Throughput** — sustained mutations/sec for each path (the
  incremental path amortizes warm starts + dirty frontiers; the cold
  path pays a full solve per batch).
* **Movement** — SPAR-style per-batch ``vertices_moved`` and cumulative
  migration cost (the shard-churn the paper's setting cares about).
* **Quality drift** — ``incremental_cost / scratch_cost`` per batch:
  both sides are Nash equilibria, the ratio tracks how far warm-started
  basins drift from cold-started ones over a long stream.

``run_churn`` returns a :class:`ChurnRun` whose ``results`` dict is
shaped for the bench-history store (``benchmarks/bench_churn.py``
appends it to ``benchmarks/history/churn.jsonl``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api import partition
from repro.bench.harness import Table
from repro.bench.workloads import instance_for, small_uml_dataset
from repro.core.incremental import IncrementalRMGP
from repro.streaming.feed import MutationFeed
from repro.streaming.mutations import apply_mutations, random_mutation_stream


@dataclass
class ChurnRun:
    """Outcome of one churn workload: printable table + history record."""

    table: Table
    #: ``key -> measured numbers`` in bench-history shape (every entry
    #: carries ``wall_ms`` so the store derives normalized ratios).
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.table.render()


def churn_instance(num_users: int = 60, num_events: int = 6, seed: int = 0,
                   alpha: float = 0.5):
    """The workload instance: a UML-style geo-social slice."""
    dataset = small_uml_dataset(
        num_users=num_users, num_events=num_events, seed=seed
    )
    return instance_for(dataset, alpha=alpha)


def run_churn(
    num_users: int = 60,
    num_events: int = 6,
    num_batches: int = 8,
    batch_size: int = 10,
    seed: int = 0,
    alpha: float = 0.5,
    scratch_solver: str = "gt",
    movement_penalty: Optional[float] = None,
) -> ChurnRun:
    """Run the churn workload and measure both paths per batch."""
    base = churn_instance(num_users, num_events, seed=seed, alpha=alpha)
    stream = random_mutation_stream(
        base, num_batches * batch_size, seed=seed
    )
    batches = [
        stream[i * batch_size : (i + 1) * batch_size]
        for i in range(num_batches)
    ]

    engine = IncrementalRMGP(base, seed=seed)
    feed = MutationFeed(engine)
    # The cold path maintains its own rolling instance: each timed lap
    # pays for applying the batch *and* the full re-solve — the same
    # end-to-end work the incremental lap is charged for.
    rolling = base

    table = Table(
        title=(
            f"churn: {num_batches}x{batch_size} mutations, "
            f"n0={base.n}, incremental vs {scratch_solver} from scratch"
        ),
        columns=[
            "batch", "n", "inc_ms", "scratch_ms", "inc_mut_per_s",
            "scratch_mut_per_s", "moved", "migration_cost", "drift",
        ],
    )
    results: Dict[str, Dict[str, Any]] = {}
    inc_total = 0.0
    scratch_total = 0.0
    moved_series: List[int] = []

    for index, batch in enumerate(batches):
        start = time.perf_counter()
        _, stats = feed.apply(batch, movement_penalty=movement_penalty)
        inc_seconds = time.perf_counter() - start

        start = time.perf_counter()
        rolling = apply_mutations(rolling, batch)
        scratch = partition(rolling, solver=scratch_solver, seed=seed)
        scratch_seconds = time.perf_counter() - start

        drift = (
            stats.cost_total / scratch.value.total
            if scratch.value.total > 0 else 1.0
        )
        inc_total += inc_seconds
        scratch_total += scratch_seconds
        moved_series.append(stats.vertices_moved)
        table.add_row(
            batch=index,
            n=stats.n,
            inc_ms=inc_seconds * 1e3,
            scratch_ms=scratch_seconds * 1e3,
            inc_mut_per_s=(
                len(batch) / inc_seconds if inc_seconds > 0 else float("inf")
            ),
            scratch_mut_per_s=(
                len(batch) / scratch_seconds
                if scratch_seconds > 0 else float("inf")
            ),
            moved=stats.vertices_moved,
            migration_cost=stats.migration_cost,
            drift=drift,
        )
        results[f"churn/batch{index}"] = {
            "wall_ms": inc_seconds * 1e3,
            "scratch_ms": scratch_seconds * 1e3,
            "vertices_moved": stats.vertices_moved,
            "migration_cost": stats.migration_cost,
            "drift": drift,
            "n": stats.n,
        }

    total_mutations = sum(len(batch) for batch in batches)
    results["churn/summary"] = {
        "wall_ms": inc_total * 1e3,
        "scratch_ms": scratch_total * 1e3,
        "mutations_per_sec_incremental": (
            total_mutations / inc_total if inc_total > 0 else float("inf")
        ),
        "mutations_per_sec_scratch": (
            total_mutations / scratch_total
            if scratch_total > 0 else float("inf")
        ),
        "moved_per_batch": moved_series,
        "moved_total": engine.moved_total,
        "migration_cost_total": engine.migration_cost_total,
    }
    summary = results["churn/summary"]
    table.notes.append(
        f"sustained: {summary['mutations_per_sec_incremental']:.0f} "
        f"mut/s incremental vs "
        f"{summary['mutations_per_sec_scratch']:.0f} mut/s from scratch"
    )
    table.notes.append(
        f"movement: {engine.moved_total} vertices total, cumulative "
        f"migration cost {engine.migration_cost_total:.2f}"
    )
    return ChurnRun(table=table, results=results)
