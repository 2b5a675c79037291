"""Registry of algorithm-variant implementations.

One place maps every public solver name (short and long) to its
implementation function; :func:`repro.api.partition` and
:meth:`repro.core.game.RMGPGame.solve` both dispatch through it.  The
values are the *implementation* functions (``_solve_*``); their keyword
parameters are the public per-solver options (``accepted_parameters``).

Kept separate from :mod:`repro.core.game` so solver modules and the API
facade can import it without pulling in the whole facade.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.baseline import _solve_baseline
from repro.core.capacitated import _solve_capacitated, _solve_with_minimums
from repro.core.combined import _solve_all
from repro.core.global_table import _solve_global_table
from repro.core.incremental import _solve_incremental
from repro.core.independent_sets import _solve_independent_sets
from repro.core.priority import _solve_max_gain
from repro.core.result import PartitionResult
from repro.core.simultaneous import _solve_simultaneous
from repro.core.strategy_elimination import _solve_strategy_elimination
from repro.core.vectorized import _solve_vectorized

#: Algorithm variants by public name.  Short names follow the paper
#: (RMGP_b, RMGP_se, RMGP_is, RMGP_gt, ...); long names are explicit.
SOLVERS: Dict[str, Callable[..., PartitionResult]] = {
    "baseline": _solve_baseline,
    "b": _solve_baseline,
    "se": _solve_strategy_elimination,
    "strategy_elimination": _solve_strategy_elimination,
    "is": _solve_independent_sets,
    "independent_sets": _solve_independent_sets,
    "gt": _solve_global_table,
    "global_table": _solve_global_table,
    "all": _solve_all,
    "vec": _solve_vectorized,
    "vectorized": _solve_vectorized,
    "mg": _solve_max_gain,
    "max_gain": _solve_max_gain,
    "sync": _solve_simultaneous,
    "simultaneous": _solve_simultaneous,
    "cap": _solve_capacitated,
    "capacitated": _solve_capacitated,
    "minpart": _solve_with_minimums,
    "with_minimums": _solve_with_minimums,
    "inc": _solve_incremental,
    "incremental": _solve_incremental,
}

_CANONICAL: Dict[str, str] = {
    "b": "baseline",
    "se": "strategy_elimination",
    "is": "independent_sets",
    "gt": "global_table",
    "vec": "vectorized",
    "mg": "max_gain",
    "sync": "simultaneous",
    "cap": "capacitated",
    "minpart": "with_minimums",
    "inc": "incremental",
}


def canonical_solver_name(name: str) -> str:
    """The long form of a registry name (``"gt"`` -> ``"global_table"``)."""
    return _CANONICAL.get(name, name)


_ACCEPTED: Dict[Callable[..., PartitionResult], frozenset] = {}


def accepted_parameters(impl: Callable[..., PartitionResult]) -> frozenset:
    """Keyword parameters an implementation accepts (cached signature).

    The schema source for dispatch: :func:`repro.api.partition` rejects
    options a variant lacks against this set, and the serving layer
    validates wire ``solver_kwargs`` with it before a job is queued.
    """
    accepted = _ACCEPTED.get(impl)
    if accepted is None:
        import inspect

        accepted = frozenset(inspect.signature(impl).parameters)
        _ACCEPTED[impl] = accepted
    return accepted


def solver_catalog() -> Dict[str, Dict[str, object]]:
    """Machine-readable registry description (``GET /v1/solvers``).

    One entry per canonical solver name: its aliases and the keyword
    parameters the implementation accepts (minus the instance itself).
    """
    catalog: Dict[str, Dict[str, object]] = {}
    for name, impl in SOLVERS.items():
        canonical = canonical_solver_name(name)
        entry = catalog.setdefault(
            canonical,
            {
                "aliases": [],
                "accepts": sorted(accepted_parameters(impl) - {"instance"}),
            },
        )
        if name != canonical:
            entry["aliases"].append(name)
    for entry in catalog.values():
        entry["aliases"] = sorted(entry["aliases"])
    return catalog
