"""Figures 10-12: centralized RMGP heuristics and optimizations.

* Figure 10 — baseline heuristics (b, b+i, b+i+o): time and quality vs k.
* Figure 11 — the same three variants versus α at k = 32.
* Figure 12 — the optimizations (se, is, gt, all) versus k and α, plus
  the per-round time decomposition at k = 32, α = 0.5.

All run over the (pessimistically normalized) Gowalla workload, matching
Section 6.3's setup.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api import partition
from repro.bench.harness import Table, full_scale, time_call
from repro.bench.workloads import event_sweep, gowalla_dataset, instance_for
from repro.core.instance import RMGPInstance
from repro.core.normalization import normalize

ALPHA_SWEEP = [0.1, 0.3, 0.5, 0.7, 0.9]

HEURISTIC_VARIANTS: Dict[str, Dict[str, str]] = {
    "RMGP_b": {"init": "random", "order": "random"},
    "RMGP_b+i": {"init": "closest", "order": "random"},
    "RMGP_b+i+o": {"init": "closest", "order": "degree"},
}

#: Figure 12's variants as ``partition()`` arguments.
OPTIMIZATION_SOLVERS: Dict[str, Dict[str, str]] = {
    "RMGP_b+i+o": {"solver": "b", "init": "closest", "order": "degree"},
    "RMGP_se": {"solver": "se"},
    "RMGP_is": {"solver": "is"},
    "RMGP_gt": {"solver": "gt"},
    "RMGP_all": {"solver": "all"},
}


def _normalized(instance: RMGPInstance) -> RMGPInstance:
    """Pessimistic normalization — the default after Section 6.2."""
    normalized, _ = normalize(instance, "pessimistic")
    return normalized


def run_fig10(
    event_counts: Optional[List[int]] = None, seed: int = 0, repeats: int = 1
) -> Table:
    """Figure 10: heuristic variants versus k (time + cost split)."""
    event_counts = event_counts or event_sweep()
    dataset = gowalla_dataset(seed=seed)
    table = Table(
        title="Figure 10: RMGP_b heuristics vs k (alpha=0.5)",
        columns=["k", "variant", "ms", "rounds", "assignment_cost", "social_cost"],
    )
    for k in event_counts:
        instance = _normalized(instance_for(dataset, num_events=k, seed=seed))
        for variant, kwargs in HEURISTIC_VARIANTS.items():
            measured = time_call(
                lambda kw=kwargs: partition(
                    instance, solver="b", seed=seed, **kw
                ),
                repeats=repeats,
            )
            result = measured.result
            table.add_row(
                k=k,
                variant=variant,
                ms=measured.median * 1e3,
                rounds=result.num_rounds,
                assignment_cost=0.5 * result.value.assignment_cost,
                social_cost=0.5 * result.value.social_cost,
            )
    table.notes.append(
        "expected: b+i much faster than b; b+i+o helps at large k; "
        "b's solutions inferior"
    )
    return table


def run_fig11(
    alphas: Optional[List[float]] = None,
    num_events: int = 32,
    seed: int = 0,
    repeats: int = 1,
) -> Table:
    """Figure 11: heuristic variants versus alpha at k = 32."""
    alphas = alphas or (ALPHA_SWEEP if full_scale() else [0.1, 0.5, 0.9])
    dataset = gowalla_dataset(seed=seed)
    table = Table(
        title=f"Figure 11: RMGP_b heuristics vs alpha (k={num_events})",
        columns=[
            "alpha",
            "variant",
            "ms",
            "rounds",
            "assignment_cost",
            "social_cost",
        ],
    )
    for alpha in alphas:
        instance = _normalized(
            instance_for(dataset, num_events=num_events, alpha=alpha, seed=seed)
        )
        for variant, kwargs in HEURISTIC_VARIANTS.items():
            measured = time_call(
                lambda kw=kwargs: partition(
                    instance, solver="b", seed=seed, **kw
                ),
                repeats=repeats,
            )
            result = measured.result
            table.add_row(
                alpha=alpha,
                variant=variant,
                ms=measured.median * 1e3,
                rounds=result.num_rounds,
                assignment_cost=alpha * result.value.assignment_cost,
                social_cost=(1 - alpha) * result.value.social_cost,
            )
    table.notes.append(
        "expected: small alpha -> social component small (it is optimized "
        "hardest); alpha=0.9 -> social dominates the weighted total"
    )
    return table


def run_fig12_vs_k(
    event_counts: Optional[List[int]] = None, seed: int = 0, repeats: int = 1
) -> Table:
    """Figure 12(a): the optimizations versus k at alpha = 0.5."""
    event_counts = event_counts or event_sweep()
    dataset = gowalla_dataset(seed=seed)
    table = Table(
        title="Figure 12(a): optimizations vs k (alpha=0.5)",
        columns=["k"] + [f"{name}_ms" for name in OPTIMIZATION_SOLVERS],
    )
    for k in event_counts:
        instance = _normalized(instance_for(dataset, num_events=k, seed=seed))
        row = {"k": k}
        for name, kwargs in OPTIMIZATION_SOLVERS.items():
            measured = time_call(
                lambda kw=kwargs: partition(instance, seed=seed, **kw),
                repeats=repeats,
            )
            row[f"{name}_ms"] = measured.median * 1e3
        table.add_row(**row)
    table.notes.append("expected: gt best single optimization; all fastest")
    return table


def run_fig12_vs_alpha(
    alphas: Optional[List[float]] = None,
    num_events: int = 32,
    seed: int = 0,
    repeats: int = 1,
) -> Table:
    """Figure 12(b): the optimizations versus alpha at k = 32."""
    alphas = alphas or (ALPHA_SWEEP if full_scale() else [0.1, 0.5, 0.9])
    dataset = gowalla_dataset(seed=seed)
    table = Table(
        title=f"Figure 12(b): optimizations vs alpha (k={num_events})",
        columns=["alpha"] + [f"{name}_ms" for name in OPTIMIZATION_SOLVERS],
    )
    for alpha in alphas:
        instance = _normalized(
            instance_for(dataset, num_events=num_events, alpha=alpha, seed=seed)
        )
        row = {"alpha": alpha}
        for name, kwargs in OPTIMIZATION_SOLVERS.items():
            measured = time_call(
                lambda kw=kwargs: partition(instance, seed=seed, **kw),
                repeats=repeats,
            )
            row[f"{name}_ms"] = measured.median * 1e3
        table.add_row(**row)
    table.notes.append(
        "expected: se's pruning strengthens as alpha grows (valid regions "
        "shrink); all fastest everywhere"
    )
    return table


def run_fig12_per_round(
    num_events: int = 32, alpha: float = 0.5, seed: int = 0
) -> Table:
    """Figure 12(c): per-round running time of each variant.

    Round 0 is initialization (heaviest for se/gt/all); per-round cost is
    roughly flat for b/se/is and decaying for gt (only unhappy players
    are examined).
    """
    dataset = gowalla_dataset(seed=seed)
    instance = _normalized(
        instance_for(dataset, num_events=num_events, alpha=alpha, seed=seed)
    )
    results = {
        name: partition(instance, seed=seed, **kwargs)
        for name, kwargs in OPTIMIZATION_SOLVERS.items()
    }
    max_rounds = max(len(r.rounds) for r in results.values())
    table = Table(
        title=f"Figure 12(c): per-round time (k={num_events}, alpha={alpha})",
        columns=["round"] + [f"{name}_ms" for name in results],
    )
    for round_index in range(max_rounds):
        row = {"round": round_index}
        for name, result in results.items():
            if round_index < len(result.rounds):
                row[f"{name}_ms"] = result.rounds[round_index].seconds * 1e3
        table.add_row(**row)
    table.notes.append(
        "round 0 = initialization; gt/all rounds shrink toward convergence"
    )
    return table
