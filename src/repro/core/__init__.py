"""The paper's contribution: the RMGP game and its algorithm variants."""

from repro.core.analysis import (
    ClassProfile,
    ConvergenceReport,
    DeviationEvent,
    assignment_diff,
    class_profiles,
    convergence_report,
    potential_trace,
    quality_summary,
)
from repro.core.capacitated import (
    capacity_violations,
    is_capacitated_equilibrium,
)
from repro.core.costs import (
    CombinedCost,
    CostProvider,
    FunctionCost,
    MatrixCost,
    ScaledCost,
    as_cost_provider,
)
from repro.core.dynamics import initial_assignment, player_order
from repro.core.equilibrium import (
    EquilibriumReport,
    anarchy_gap,
    equilibrium_report,
    is_nash_equilibrium,
    price_of_anarchy_bound,
    price_of_stability_bound,
    round_bound,
)
from repro.core.game import SOLVERS, RMGPGame
from repro.core.global_table import build_global_table, happiness
from repro.core.independent_sets import groups_from_coloring
from repro.core.instance import RMGPInstance
from repro.core.normalization import (
    NormalizationEstimate,
    average_median_cost,
    average_min_cost,
    estimate_cn,
    exact_cn,
    normalize,
    normalize_with_constant,
)
from repro.core.objective import (
    ObjectiveValue,
    assignment_cost_sum,
    best_response,
    objective,
    player_cost,
    player_strategy_costs,
    potential,
    social_cost_sum,
    total_player_cost,
)
from repro.core.incremental import IncrementalRMGP
from repro.core.result import PartitionResult, RoundStats, make_result
from repro.core.serialize import load_assignment, load_labels, save_result
from repro.core.strategy_elimination import (
    EliminationPlan,
    build_elimination_plan,
)

__all__ = [
    "ClassProfile",
    "CombinedCost",
    "ConvergenceReport",
    "DeviationEvent",
    "assignment_diff",
    "class_profiles",
    "convergence_report",
    "potential_trace",
    "quality_summary",
    "CostProvider",
    "EliminationPlan",
    "EquilibriumReport",
    "FunctionCost",
    "IncrementalRMGP",
    "MatrixCost",
    "NormalizationEstimate",
    "ObjectiveValue",
    "PartitionResult",
    "RMGPGame",
    "RMGPInstance",
    "RoundStats",
    "SOLVERS",
    "ScaledCost",
    "anarchy_gap",
    "as_cost_provider",
    "assignment_cost_sum",
    "average_median_cost",
    "average_min_cost",
    "best_response",
    "build_elimination_plan",
    "build_global_table",
    "capacity_violations",
    "is_capacitated_equilibrium",
    "equilibrium_report",
    "estimate_cn",
    "exact_cn",
    "groups_from_coloring",
    "happiness",
    "initial_assignment",
    "is_nash_equilibrium",
    "load_assignment",
    "load_labels",
    "make_result",
    "save_result",
    "normalize",
    "normalize_with_constant",
    "objective",
    "player_cost",
    "player_order",
    "player_strategy_costs",
    "potential",
    "price_of_anarchy_bound",
    "price_of_stability_bound",
    "round_bound",
    "social_cost_sum",
    "total_player_cost",
]
