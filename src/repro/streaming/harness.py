"""The differential harness: incremental vs. from-scratch under churn.

The headline invariant of ISSUE 6.  For every mutation batch the harness
drives two independent paths to an answer and cross-checks them:

* **Incremental** — a live :class:`~repro.core.incremental.IncrementalRMGP`
  fed through a :class:`~repro.streaming.feed.MutationFeed` (warm-started
  assignment, dirty frontier seeded from touched neighborhoods, in-place
  CSR patching).
* **From-scratch** — the batch prefix is *pure-applied*
  (:func:`~repro.streaming.mutations.apply_mutations`) to the base
  instance and handed to ``repro.partition(..., solver=...)`` cold.

After each batch three properties must hold:

1. **Validity** — the incremental assignment is a pure Nash equilibrium
   of the *pure* mutated instance (note: not merely of the engine's own
   instance — checking against the independently-constructed instance
   also catches any divergence between the engine's in-place patching
   and the mutation algebra's semantics).
2. **Quality** — its Eq. 1 cost is within the pinned
   :data:`DIFFERENTIAL_COST_RATIO` of the from-scratch solve.  Both
   sides are equilibria of the same potential game, so neither is
   optimal — the ratio bounds how far warm-started convergence may
   drift from cold-started convergence, and Theorem 2's
   price-of-anarchy bound caps it in theory (the pinned constant is far
   tighter than PoA on the tested families).
3. **Accounting** — the reported ``vertices_moved`` equals the actual
   assignment diff across the resolve (recomputed here from the
   label-space assignments, so the engine cannot self-certify).

A failed check never raises mid-run: the harness completes the stream
and returns a :class:`DifferentialReport` whose ``failures`` carry exact
per-batch numbers — property-based tests shrink the mutation stream
against ``report.ok``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import partition
from repro.core.equilibrium import equilibrium_report, price_of_anarchy_bound
from repro.core.incremental import IncrementalRMGP
from repro.core.instance import RMGPInstance
from repro.core.objective import objective
from repro.streaming.feed import MutationFeed
from repro.streaming.mutations import Mutation

#: Pinned incremental/from-scratch Eq. 1 cost ratio for *curated*
#: deterministic streams (the CI smoke and the per-solver seeded
#: suites).  Both sides reach *some* pure Nash equilibrium; different
#: basins give different costs, and on adversarial random streams the
#: gap can legitimately approach the instance's price-of-anarchy bound
#: (observed up to ~2.7 on 24-player instances whose PoA bound is ~13)
#: — that drift is a *measured quantity* (the churn bench's
#: quality-drift series), not a bug.  Property-based tests therefore
#: pass ``cost_ratio="poa"`` to use Theorem 2's per-instance bound
#: (sound for any stream), while the deterministic streams pin this
#: constant, which holds with ample margin on them; loosen it
#: deliberately, never silently.
DIFFERENTIAL_COST_RATIO = 1.5

#: Equilibrium tolerance for the validity check — matches the engine's
#: deviation tolerance scale, not the certifier's stricter default.
EQUILIBRIUM_ATOL = 1e-9


@dataclass(frozen=True)
class BatchCheck:
    """Cross-checked outcome of one mutation batch."""

    batch_index: int
    size: int
    n: int
    incremental_cost: float
    scratch_cost: float
    cost_ratio: float
    is_equilibrium: bool
    max_regret: float
    vertices_moved: int
    movement_consistent: bool
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class DifferentialReport:
    """All batch checks of one mutation stream."""

    solver: str
    checks: Tuple[BatchCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[str]:
        return [
            f"batch {check.batch_index}: {message}"
            for check in self.checks
            for message in check.failures
        ]

    def __str__(self) -> str:
        if self.ok:
            worst = max(
                (check.cost_ratio for check in self.checks), default=1.0
            )
            return (
                f"differential ok: {len(self.checks)} batches vs "
                f"{self.solver}, worst cost ratio {worst:.4f}"
            )
        return "; ".join(self.failures)


def differential_check(
    instance: RMGPInstance,
    batches: Sequence[Sequence[Mutation]],
    solver: str = "gt",
    seed: int = 0,
    cost_ratio="poa",
    solver_kwargs: Optional[Dict[str, Any]] = None,
    movement_penalty: Optional[float] = None,
) -> DifferentialReport:
    """Run a mutation stream through both paths and cross-check each batch.

    Parameters
    ----------
    instance:
        The base (pre-stream) instance; never mutated.
    batches:
        The stream, already split into batches (one resolve per batch).
    solver / solver_kwargs / seed:
        The from-scratch reference kernel — any
        :data:`repro.core.registry.SOLVERS` name.
    cost_ratio:
        Maximum allowed ``incremental_cost / scratch_cost``.  The
        default ``"poa"`` bounds each batch by the mutated instance's
        :func:`~repro.core.equilibrium.price_of_anarchy_bound` — the
        sound choice for adversarial randomized streams, where the
        equilibrium-quality gap is theory-bounded but not small.
        Curated deterministic streams pin the much tighter
        :data:`DIFFERENTIAL_COST_RATIO` (or any explicit float).
    movement_penalty:
        Forwarded to the incremental resolve.  A positive penalty trades
        equilibrium quality for fewer moves, so the validity check is
        skipped (the assignment is an equilibrium of the *switching-cost*
        game, not the plain one) while the cost check still applies.
    """
    engine = IncrementalRMGP(instance, seed=seed)
    feed = MutationFeed(engine)
    kwargs = dict(solver_kwargs or {})
    checks: List[BatchCheck] = []
    for index, batch in enumerate(batches):
        result, stats = feed.apply(
            batch, movement_penalty=movement_penalty
        )
        failures: List[str] = []

        # The independent reference instance for this prefix.
        mutated = feed.log.replay(instance)
        incremental = engine.instance.assignment_to_labels(engine.assignment)
        inc_assignment = mutated.labels_to_assignment(incremental)

        report = equilibrium_report(
            mutated, inc_assignment, tolerance=EQUILIBRIUM_ATOL
        )
        if movement_penalty is None and not report.is_equilibrium:
            failures.append(
                f"incremental assignment is not an equilibrium of the "
                f"mutated instance (max regret {report.max_regret:.3e}, "
                f"{len(report.unstable_players)} unstable players)"
            )

        inc_cost = objective(mutated, inc_assignment).total
        scratch = partition(mutated, solver=solver, seed=seed, **kwargs)
        scratch_cost = scratch.value.total
        if scratch_cost > 0:
            ratio = inc_cost / scratch_cost
        else:
            ratio = 1.0 if inc_cost <= EQUILIBRIUM_ATOL else float("inf")
        if cost_ratio == "poa":
            # inc <= PoA·OPT and scratch >= OPT, so inc/scratch <= PoA.
            limit = price_of_anarchy_bound(mutated)
        else:
            limit = float(cost_ratio)
        if ratio > limit + EQUILIBRIUM_ATOL:
            failures.append(
                f"cost ratio {ratio:.4f} exceeds pinned {limit:.4f} "
                f"(incremental {inc_cost:.6g} vs {solver} "
                f"{scratch_cost:.6g})"
            )

        # Movement accounting must match an independent label-space diff
        # against the pre-resolve (post-mutation) labels the feed
        # captured — including batch-new vertices that moved off their
        # initial class during the resolve.
        actual_moved = sum(
            1
            for node, label in incremental.items()
            if repr(stats.baseline[node]) != repr(label)
        )
        movement_consistent = actual_moved == stats.vertices_moved
        if not movement_consistent:
            failures.append(
                f"movement accounting reports {stats.vertices_moved} "
                f"moved, label diff says {actual_moved}"
            )

        checks.append(
            BatchCheck(
                batch_index=index,
                size=len(batch),
                n=mutated.n,
                incremental_cost=inc_cost,
                scratch_cost=scratch_cost,
                cost_ratio=ratio,
                is_equilibrium=report.is_equilibrium,
                max_regret=report.max_regret,
                vertices_moved=stats.vertices_moved,
                movement_consistent=movement_consistent,
                failures=tuple(failures),
            )
        )
    return DifferentialReport(solver=solver, checks=tuple(checks))
