"""The in-process ``churn`` workload: mutation batches through
``MutationFeed.apply`` against a live ``IncrementalRMGP``.

Each batch is 24 mutations of ``random_mutation_stream`` (alpha drift
weight 0) plus exactly one ``AlphaDrift`` at a seeded position.  With
the default mix the number of drifts per 25-mutation batch is roughly
Poisson(0.9), and each drift costs a full CSR rebuild, so batch latency
is multimodal and its p50 jumps between modes from seed to seed
(42 vs 60 ms on two seeds).  One drift per batch keeps that cost in
every batch, so the rebuild still shows, at one fixed level.

The op is a mutation (``throughput_ops`` = mutations/s); latency is
timed per batch.  The oracle checks every resolve against the result
schema and for convergence, and certifies the engine's assignment a
pure Nash equilibrium of ``MutationLog.replay`` of the untouched base
instance at every checkpoint and at the end of the run.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from measure import (
    BLOCK_SECONDS,
    Speed,
    block_rate,
    median,
    peak_rss_mb,
    tail,
)
from oracle import build_instance, closest_cost
from outcome import Outcome, report

USERS, EVENTS = 2000, 16
BATCH = 25
#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Generated mutations per second of run time: about 1.5 times the
#: fastest rate the feed sustained on a 2-core machine (about 500/s).
#: Generating the stream takes about 0.6 ms per mutation, before the
#: clock starts, so a larger margin would cost set-up time per run.
STREAM_RATE = 750
TAIL_CAP = 90.0
#: The engine's labels are captured (off the clock) after every
#: CHECKPOINT_EVERY-th batch, up to CHECKPOINTS captures; ``cost_ratio``
#: is their mean, ``feed.vertices_moved`` counts the moves up to the
#: last one and ``peak_rss_mb`` is read there, so all three cover a
#: fixed prefix of the stream whatever the run's speed.
CHECKPOINT_EVERY = 10
CHECKPOINTS = 10


@dataclass
class Run:
    rows: List[Dict[str, float]] = field(default_factory=list)
    #: Seconds of load in each block (bookkeeping and speed readings
    #: excluded).
    blocks: List[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.blocks)

    def size(self, ok_only: bool = False) -> int:
        return sum(r["size"] for r in self.rows if r["ok"] or not ok_only)

    def latencies_ms(self, factor: float = 1.0) -> List[float]:
        """Per-batch latency, times ``factor``."""
        return [r["wall"] * factor * 1e3 for r in self.rows]

    def rate(self, certified: bool, factor: float = 1.0) -> float:
        """Verified-correct mutations per second of load (median over
        blocks), for times scaled by ``factor``."""
        counts = [0] * len(self.blocks)
        for r in self.rows:
            counts[r["block"]] += r["size"] if r["ok"] and certified else 0
        return block_rate(counts, self.blocks) / factor


def _setup(seed: int):
    from repro.core.incremental import IncrementalRMGP
    from repro.obs.recorder import Recorder
    from repro.streaming.feed import MutationFeed
    from repro.streaming.mutations import apply_mutations

    base = build_instance(USERS, EVENTS, seed, Recorder())
    # The engine patches its instance's graph in place: give it a
    # private copy so `base` stays the replay root.
    engine = IncrementalRMGP(apply_mutations(base, []))
    return base, MutationFeed(engine)


def _batches(base, seed: int, count: int) -> List[list]:
    from repro.streaming.mutations import (
        DEFAULT_MUTATION_WEIGHTS,
        AlphaDrift,
        random_mutation_stream,
    )

    weights = dict(DEFAULT_MUTATION_WEIGHTS, alpha_drift=0.0)
    per_batch = BATCH - 1
    stream = random_mutation_stream(
        base, count // BATCH * per_batch, seed=seed, weights=weights
    )
    rng = random.Random(f"churn/{seed}")
    batches = []
    for start in range(0, len(stream), per_batch):
        batch = list(stream[start : start + per_batch])
        batch.insert(
            rng.randrange(BATCH), AlphaDrift(round(rng.uniform(0.2, 0.8), 3))
        )
        batches.append(batch)
    return batches


@dataclass
class Driven:
    """What the timed phases of one churn run produced."""

    runs: List[Run] = field(default_factory=list)
    #: ``result.to_dict()`` of every resolve, in batch order.
    summaries: List[dict] = field(default_factory=list)
    #: ``(batches applied, engine labels)`` captured off the clock.
    checkpoints: List[Tuple[int, dict]] = field(default_factory=list)
    #: VmHWM (MiB) of this process at the last checkpoint.
    rss: float = 0.0
    #: Batches applied.
    cursor: int = 0


def _drive(feed, batches, lengths, rec, speed: Speed) -> Driven:
    """Apply ``batches`` for ``lengths`` seconds of load per phase, in
    blocks of ``BLOCK_SECONDS`` with a speed reading after each; the
    second phase of a traced run is under spans."""
    out = Driven()
    for phase, length in enumerate(lengths):
        spans = rec is not None and phase == 1
        current = Run()
        paused = 0.0
        began = time.perf_counter()
        block_began = 0.0

        def loaded() -> float:
            return time.perf_counter() - began - paused

        while out.cursor < len(batches) and loaded() < length:
            batch = batches[out.cursor]
            out.cursor += 1
            start = time.perf_counter()
            if spans:
                with rec.span("churn.batch") as whole:
                    with rec.span("feed.apply") as applied:
                        result, stats = feed.apply(batch)
                wall, inner = whole.duration, applied.duration
            else:
                result, stats = feed.apply(batch)
                wall = inner = time.perf_counter() - start
            current.rows.append({
                "block": len(current.blocks),
                "wall": wall,
                "apply": inner,
                "resolve": result.wall_seconds,
                "moved": stats.vertices_moved,
                "size": len(batch),
            })
            # Bookkeeping for the oracle and speed readings run off the
            # clock.
            stop = time.perf_counter()
            out.summaries.append(result.to_dict())
            if (
                out.cursor % CHECKPOINT_EVERY == 0
                and len(out.checkpoints) < CHECKPOINTS
            ):
                out.checkpoints.append((out.cursor, _labels(feed)))
                if len(out.checkpoints) == CHECKPOINTS:
                    out.rss = peak_rss_mb(os.getpid())
            done = stop - began - paused
            if done - block_began >= BLOCK_SECONDS or done >= length:
                current.blocks.append(done - block_began)
                speed.read("load")
                block_began = done
            paused += time.perf_counter() - stop
        if current.rows and current.rows[-1]["block"] == len(current.blocks):
            # The plan ran out inside a block.
            current.blocks.append(loaded() - block_began)
            speed.read("load")
        out.runs.append(current)
    if len(out.checkpoints) < CHECKPOINTS:
        out.rss = peak_rss_mb(os.getpid())
    return out


def run(root: str, name: str, seed: int, seconds: int, traced: bool):
    from repro.obs.recorder import TraceRecorder

    graph_seed = random.Random(f"churn-graph/{seed}").randrange(1, 10**6)
    setups: List[float] = []
    lengths = [seconds / 2.0, seconds / 2.0] if traced else [float(seconds)]
    rec = TraceRecorder() if traced else None
    speed = Speed()
    for _ in range(1 if traced else SETUP_REPS):
        (base, feed), took = speed.timed(lambda: _setup(graph_seed))
        setups.append(took)
    batches = _batches(base, seed, seconds * STREAM_RATE)
    driven = _drive(feed, batches, lengths, rec, speed)
    runs, cursor, checkpoints = driven.runs, driven.cursor, driven.checkpoints
    checkpoints.append((cursor, _labels(feed)))
    ratio, certified = _certify(
        base, feed, runs, driven.summaries, checkpoints
    )
    for label, current in zip(("timed", "traced"), runs):
        report(phase=label, batches=len(current.rows), sent=current.size(),
               succeeded=current.size(ok_only=True),
               failed=current.size() - current.size(ok_only=True),
               elapsed_s=round(current.elapsed, 3),
               plan_exhausted=cursor >= len(batches))
    attempted = sum(r.size() for r in runs)
    failed = attempted - sum(r.size(ok_only=True) for r in runs)
    if not certified:
        failed = attempted
    outcome = Outcome(attempted=attempted, failed=failed, correct=failed == 0)
    first = runs[0]
    if traced:
        outcome.metrics = _layers(first.rows, runs[1].rows)
        return outcome
    factor = speed.factor("load")
    latencies = first.latencies_ms(factor)
    q, tail_ms, beyond = tail(latencies, TAIL_CAP)
    speed.report()
    report(phase="setup", reps=len(setups),
           measured_s=[round(s, 3) for s in setups])
    report(phase="timed", tail_percentile=q, samples_beyond=round(beyond, 1),
           samples=len(latencies), batch=BATCH, blocks=len(first.blocks),
           measured_p50_ms=round(median(first.latencies_ms()), 3),
           measured_ops=round(first.rate(certified), 3))
    succeeded = first.size(ok_only=True) if certified else 0
    outcome.metrics = {
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail_ms,
        "throughput_ops": first.rate(certified, factor),
        "success_rate": succeeded / first.size(),
        "setup_s": median(setups) * speed.factor("setup"),
        "peak_rss_mb": driven.rss,
        "cost_ratio": ratio,
    }
    return outcome


def _labels(feed) -> dict:
    engine = feed.engine
    return engine.instance.assignment_to_labels(engine.assignment)


def _certify(base, feed, runs, summaries, checkpoints) -> Tuple[float, bool]:
    """Oracle over the whole run; marks each row ``ok`` and returns the
    mean checkpoint cost ratio and whether every checkpoint certified."""
    from repro.core.equilibrium import equilibrium_report
    from repro.core.objective import objective
    from repro.core.result_schema import validate_result
    from repro.streaming.harness import EQUILIBRIUM_ATOL

    rows = [row for current in runs for row in current.rows]
    for summary, row in zip(summaries, rows):
        problems = validate_result(summary)
        if not summary["converged"]:
            problems.append(f"not converged: {summary['stop_reason']}")
        row["ok"] = not problems
        if problems:
            report(phase="oracle", failure="; ".join(problems))
    ratios = []
    certified = True
    for upto, labels in checkpoints:
        mutated = feed.log.replay(base, upto=upto)
        assignment = mutated.labels_to_assignment(labels)
        check = equilibrium_report(
            mutated, assignment, tolerance=EQUILIBRIUM_ATOL
        )
        if not check.is_equilibrium:
            certified = False
            report(phase="oracle", failure=f"after batch {upto} the "
                   "assignment is not an equilibrium of the replayed log "
                   f"(max regret {check.max_regret:.3g})")
        ratios.append(
            objective(mutated, assignment).total / closest_cost(mutated)
        )
    # The last entry is the end of the run; the ratio covers the fixed
    # checkpoint prefix (or the end state of a run too short for one).
    prefix = ratios[:-1] or ratios
    report(phase="oracle", batches=len(rows), checkpoints=len(checkpoints),
           replayed_mutations=feed.log.num_mutations, certified=certified)
    return sum(prefix) / len(prefix), certified


def _layers(plain, traced) -> Dict[str, float]:
    """Per-layer metrics of the traced churn run; serve-side layers are
    not on this path and read 0."""
    zero = (
        "serve.overhead_ms", "wire.validate_ms", "jobs.queue_wait_ms",
        "jobs.service_ms", "jobs.rejected", "store.hit_ratio",
        "datasets.build_ms", "instance.build_ms", "instance.with_alpha_ms",
        "solver.solve_ms", "solver.rounds", "solver.players_examined",
        "result.serialize_ms", "server.cpu_ms_per_op", "client.cpu_share",
    )
    layers = {name: 0.0 for name in zero}
    prefix = (plain + traced)[: CHECKPOINT_EVERY * CHECKPOINTS]
    layers.update({
        "feed.mutate_ms": median([r["wall"] - r["resolve"] for r in plain])
        * 1e3,
        "feed.resolve_ms": median([r["resolve"] for r in plain]) * 1e3,
        "feed.vertices_moved": float(sum(r["moved"] for r in prefix)),
        "trace.unattributed_ms": median(
            [r["wall"] - r["apply"] for r in traced]
        ) * 1e3,
        "trace.overhead_pct": (
            median([r["wall"] for r in traced])
            / median([r["wall"] for r in plain]) - 1.0
        ) * 100.0,
    })
    p50 = median([r["wall"] for r in plain]) * 1e3
    report(phase="shares",
           feed_mutate=f"{layers['feed.mutate_ms'] / p50:.0%}",
           feed_resolve=f"{layers['feed.resolve_ms'] / p50:.0%}")
    return layers
