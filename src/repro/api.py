"""The unified solve surface: ``repro.partition(instance, solver=...)``.

Every algorithm variant in the reproduction is reachable through one
call::

    import repro
    from repro.api import SolveOptions

    result = repro.partition(instance, solver="gt",
                             options=SolveOptions(seed=7, init="closest"))

``partition`` dispatches through the :data:`repro.core.registry.SOLVERS`
registry, applies the common :class:`SolveOptions` knobs (rejecting any
the chosen variant does not understand), and forwards solver-specific
keyword arguments (``capacities=``, ``threads=``, ``damping=``, ...)
untouched.

See ``docs/API.md`` for the full surface, the trace/metric schema and the
translation table for the ``solve_*`` functions removed in 2.0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

import numpy as np

from repro.core.registry import (
    SOLVERS,
    accepted_parameters,
    canonical_solver_name,
)
from repro.core.result import PartitionResult
from repro.errors import ConfigurationError
from repro.obs.recorder import Recorder
from repro.runtime.budget import RuntimeBudget
from repro.runtime.token import CancelToken

if False:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.instance import RMGPInstance


@dataclass(frozen=True)
class SolveOptions:
    """Common solver knobs; ``None`` means "use the variant's default".

    Defaults intentionally stay ``None`` rather than copying any one
    solver's defaults: the variants differ (RMGP_b initializes randomly,
    the optimized variants use ``"closest"``), and ``partition()`` must
    reproduce each variant's own defaults exactly.

    Attributes
    ----------
    alpha:
        Override the instance's preference parameter (the instance is
        cloned via :meth:`RMGPInstance.with_alpha`).
    init / order / seed / max_rounds / warm_start:
        Forwarded to the solver when it supports the knob; explicitly
        setting one a variant lacks (e.g. ``order`` for ``"vec"``)
        raises :class:`ConfigurationError` instead of silently ignoring.
    recorder:
        An :class:`repro.obs.Recorder` receiving spans/metrics; leave
        ``None`` for the ambient recorder (a no-op unless inside
        ``obs.recording()``).
    deadline_seconds / round_budget_seconds / cancel_token:
        Real-time knobs.  ``partition`` assembles them into a
        :class:`repro.runtime.RuntimeBudget` handed to the solver, which
        then stops at the first round boundary past the deadline (or
        once the token is cancelled) and returns its best-so-far valid
        assignment with ``converged=False`` and ``stop_reason`` set.
        Mutually exclusive with an explicit ``budget``.
    budget:
        A pre-built :class:`~repro.runtime.RuntimeBudget` (e.g. one on a
        manual :class:`~repro.runtime.SteppingClock` for tests).
    checkpoint_every / checkpoint_path:
        Write a :class:`~repro.runtime.SolveCheckpoint` to
        ``checkpoint_path`` every ``checkpoint_every`` rounds (and once
        more on interrupt).
    resume_from:
        A checkpoint path or :class:`~repro.runtime.SolveCheckpoint` to
        resume from; the solve replays the interrupted trajectory
        byte-identically.
    backend / workers:
        Parallel execution backend (``"pure"``/``"shm"``/``"numba"``)
        and shm worker-pool size for the solvers that support them
        (``is``/``vec``/``gt``/``sync``).  ``workers`` defaults to the
        ``REPRO_WORKERS`` environment variable, then ``os.cpu_count()``;
        ``workers=1`` is a documented serial fallback (the pure path
        runs, ``extra`` records why).  Validated at construction:
        ``workers < 1`` or an unknown backend raises
        :class:`ConfigurationError`.  Assignments are byte-identical to
        the pure path on every backend.
    """

    alpha: Optional[float] = None
    init: Optional[str] = None
    order: Optional[str] = None
    seed: Optional[int] = None
    max_rounds: Optional[int] = None
    warm_start: Optional[np.ndarray] = None
    recorder: Optional[Recorder] = None
    deadline_seconds: Optional[float] = None
    round_budget_seconds: Optional[float] = None
    cancel_token: Optional[CancelToken] = None
    budget: Optional[RuntimeBudget] = None
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    resume_from: Optional[Any] = None
    backend: Optional[str] = None
    workers: Optional[int] = None
    exact_scale: Optional[int] = None

    # Assembled into a RuntimeBudget by partition(); never forwarded to
    # the solver as keyword arguments themselves.
    _BUDGET_FIELDS = ("deadline_seconds", "round_budget_seconds", "cancel_token")

    # Fields holding live in-process objects: they cannot ride the wire,
    # a checkpoint, or a JSON config.  to_dict() rejects them when set.
    _RUNTIME_ONLY_FIELDS = ("recorder", "cancel_token", "budget")

    # Wire-safe fields and their JSON types.  bool is excluded from the
    # numeric fields explicitly (it is an int subclass in Python).
    # (No annotation: this is a class constant, not a dataclass field.)
    _WIRE_TYPES = {
        "alpha": (float, int),
        "init": (str,),
        "order": (str,),
        "seed": (int,),
        "max_rounds": (int,),
        "warm_start": (list, tuple),
        "deadline_seconds": (float, int),
        "round_budget_seconds": (float, int),
        "checkpoint_every": (int,),
        "checkpoint_path": (str,),
        "resume_from": (str,),
        "backend": (str,),
        "workers": (int,),
        "exact_scale": (int,),
    }

    def __post_init__(self) -> None:
        # Validate the parallel knobs eagerly — a typo'd backend or a
        # nonsensical worker count should fail at construction, not deep
        # inside a solve after the instance was built.  resolve_backend
        # is the single source of truth for both rules.
        if self.backend is not None or self.workers is not None:
            from repro.parallel.backend import resolve_backend

            resolve_backend(self.backend, self.workers)
        if self.exact_scale is not None and (
            isinstance(self.exact_scale, bool)
            or not isinstance(self.exact_scale, int)
            or self.exact_scale < 1
        ):
            raise ConfigurationError(
                f"exact_scale must be a positive integer; got "
                f"{self.exact_scale!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-ready form of the explicitly-set wire fields.

        The same schema everywhere: ``from_dict(to_dict(o))`` rebuilds
        an equal options object for library callers, CLI ``--json``
        payloads, checkpoints and the ``POST /v1/solve`` wire body.
        Fields holding live objects (``recorder``, ``cancel_token``,
        ``budget``) and non-path ``resume_from`` values cannot be
        serialized — setting one raises :class:`ConfigurationError`
        naming the field.
        """
        import os

        payload: Dict[str, Any] = {}
        for name in self._RUNTIME_ONLY_FIELDS:
            if getattr(self, name) is not None:
                raise ConfigurationError(
                    f"options.{name}: holds a live in-process object and "
                    "cannot be serialized; pass it only to in-process "
                    "partition() calls"
                )
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None or field.name in self._RUNTIME_ONLY_FIELDS:
                continue
            if field.name == "warm_start":
                payload["warm_start"] = [
                    int(x) for x in np.asarray(value).tolist()
                ]
            elif field.name == "resume_from":
                if not isinstance(value, (str, os.PathLike)):
                    raise ConfigurationError(
                        "options.resume_from: only checkpoint *paths* are "
                        f"serializable; got {type(value).__name__}"
                    )
                payload["resume_from"] = os.fspath(value)
            elif field.name in ("alpha", "deadline_seconds",
                                "round_budget_seconds"):
                payload[field.name] = float(value)
            else:
                payload[field.name] = value
        return payload

    @classmethod
    def from_dict(
        cls, payload: Any, field_prefix: str = "options"
    ) -> "SolveOptions":
        """Rebuild :class:`SolveOptions` from :meth:`to_dict` output.

        Strict by design — the wire must not silently drop a typo'd
        knob: unknown keys and ill-typed values raise
        :class:`ConfigurationError` with the offending field path
        (``field_prefix`` lets callers report e.g.
        ``request.options.seed``).
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"{field_prefix}: expected an object/dict, got "
                f"{type(payload).__name__}"
            )
        kwargs: Dict[str, Any] = {}
        for key, value in payload.items():
            path = f"{field_prefix}.{key}"
            expected = cls._WIRE_TYPES.get(key)
            if expected is None:
                known = ", ".join(sorted(cls._WIRE_TYPES))
                raise ConfigurationError(
                    f"{path}: unknown field (expected one of: {known})"
                )
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, expected):
                names = "/".join(
                    t.__name__ for t in expected if t is not tuple
                )
                raise ConfigurationError(
                    f"{path}: expected {names}, got "
                    f"{type(value).__name__} ({value!r})"
                )
            if key == "warm_start":
                if not all(
                    isinstance(x, int) and not isinstance(x, bool)
                    for x in value
                ):
                    raise ConfigurationError(
                        f"{path}: expected a list of integers"
                    )
                kwargs["warm_start"] = np.asarray(value, dtype=np.int64)
            elif key in ("alpha", "deadline_seconds", "round_budget_seconds"):
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        try:
            return cls(**kwargs)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{field_prefix}: {exc}") from exc

    def solver_kwargs(self) -> Dict[str, Any]:
        """The explicitly-set per-solver knobs (everything but alpha)."""
        set_values = {}
        for field in fields(self):
            if field.name == "alpha" or field.name in self._BUDGET_FIELDS:
                continue
            value = getattr(self, field.name)
            if value is not None:
                set_values[field.name] = value
        return set_values


def _validate_warm_start(warm_start: Any, instance: "RMGPInstance") -> np.ndarray:
    """Check a warm start is a usable assignment before dispatch.

    The kernels index arrays with the warm start unchecked, so a bad one
    would surface as an obscure ``IndexError`` (or worse, silently wrap
    with negative classes) deep inside a solver.
    """
    arr = np.asarray(warm_start)
    if arr.shape != (instance.n,):
        raise ConfigurationError(
            f"warm_start must have shape ({instance.n},) to cover every "
            f"player; got {arr.shape}"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigurationError(
            f"warm_start must be an integer class assignment; got dtype "
            f"{arr.dtype}"
        )
    if arr.size and (arr.min() < 0 or arr.max() >= instance.k):
        raise ConfigurationError(
            f"warm_start classes must lie in [0, {instance.k}); got values "
            f"in [{int(arr.min())}, {int(arr.max())}]"
        )
    return arr


def _assemble_budget(
    options: SolveOptions, solver_kwargs: Dict[str, Any]
) -> Optional[RuntimeBudget]:
    """Merge the scalar real-time knobs into one RuntimeBudget (or None)."""
    scalars: Dict[str, Any] = {}
    for name in SolveOptions._BUDGET_FIELDS:
        from_options = getattr(options, name)
        from_kwargs = solver_kwargs.pop(name, None)
        if from_options is not None and from_kwargs is not None:
            raise ConfigurationError(
                f"[{name!r}] given both in options and as keyword arguments"
            )
        value = from_kwargs if from_kwargs is not None else from_options
        if value is not None:
            scalars[name] = value
    if not scalars:
        return None
    explicit = options.budget if options.budget is not None else (
        solver_kwargs.get("budget")
    )
    if explicit is not None:
        raise ConfigurationError(
            "pass either an explicit budget or the scalar knobs "
            f"({sorted(scalars)}), not both"
        )
    return RuntimeBudget(
        deadline_seconds=scalars.get("deadline_seconds"),
        round_budget_seconds=scalars.get("round_budget_seconds"),
        token=scalars.get("cancel_token"),
    )


def partition(
    instance: "RMGPInstance",
    solver: str = "gt",
    options: Optional[SolveOptions] = None,
    **solver_kwargs: Any,
) -> PartitionResult:
    """Partition ``instance`` with the chosen algorithm variant.

    Parameters
    ----------
    instance:
        The :class:`~repro.core.instance.RMGPInstance` to solve.
    solver:
        A registry name — short (``"b"``, ``"se"``, ``"is"``, ``"gt"``,
        ``"vec"``, ``"mg"``, ``"sync"``, ``"cap"``, ``"minpart"``) or
        long (``"baseline"``, ``"strategy_elimination"``, ...); see
        :data:`repro.core.registry.SOLVERS`.
    options:
        Shared knobs (:class:`SolveOptions`), or a plain dict in the
        :meth:`SolveOptions.to_dict` wire schema (validated by
        :meth:`SolveOptions.from_dict`).  Unset fields fall back to the
        variant's own defaults.
    solver_kwargs:
        Variant-specific arguments forwarded verbatim (``capacities=``,
        ``min_participants=``, ``threads=``, ``coloring=``, ``plan=``,
        ``damping=``, ``track_potential=``, ...).  ``mutations=`` (a
        sequence from :mod:`repro.streaming.mutations`) is understood
        for *every* solver: the incremental solver (``"inc"``) replays
        them live against its warm engine, any other variant solves the
        pure-mutated instance from scratch — both compose with
        ``resume_from`` and the deadline/cancel knobs.

    Returns
    -------
    PartitionResult
        The shared result type — identical field semantics for every
        variant (see :class:`repro.core.result.PartitionResult`).
    """
    if solver not in SOLVERS:
        raise ConfigurationError(
            f"unknown solver {solver!r}; expected one of {sorted(SOLVERS)}"
        )
    impl = SOLVERS[solver]
    if options is None:
        options = SolveOptions()
    elif isinstance(options, dict):
        # The wire/config form: one schema for library callers, the CLI
        # and the HTTP server (see SolveOptions.from_dict).
        options = SolveOptions.from_dict(options)
    if options.alpha is not None and options.alpha != instance.alpha:
        instance = instance.with_alpha(options.alpha)

    budget = _assemble_budget(options, solver_kwargs)

    accepted = accepted_parameters(impl)
    mutations = solver_kwargs.pop("mutations", None)
    if mutations is not None and "mutations" not in accepted:
        # Non-incremental variants solve the pure-mutated instance from
        # scratch; lazy import keeps core/api free of streaming unless
        # the knob is actually used.
        from repro.streaming.mutations import apply_mutations

        instance = apply_mutations(instance, mutations)
        mutations = None
    if mutations is not None:
        solver_kwargs["mutations"] = mutations
    kwargs: Dict[str, Any] = {}
    for name, value in options.solver_kwargs().items():
        if name not in accepted:
            raise ConfigurationError(
                f"solver {canonical_solver_name(solver)!r} does not accept "
                f"option {name!r}"
            )
        kwargs[name] = value
    conflicts = kwargs.keys() & solver_kwargs.keys()
    if conflicts:
        raise ConfigurationError(
            f"{sorted(conflicts)} given both in options and as keyword "
            "arguments"
        )
    unknown = set(solver_kwargs) - accepted
    if unknown:
        raise ConfigurationError(
            f"solver {canonical_solver_name(solver)!r} does not accept "
            f"{sorted(unknown)}"
        )
    kwargs.update(solver_kwargs)
    if budget is not None:
        if "budget" not in accepted:
            raise ConfigurationError(
                f"solver {canonical_solver_name(solver)!r} does not support "
                "real-time budgets"
            )
        kwargs["budget"] = budget
    if kwargs.get("warm_start") is not None:
        kwargs["warm_start"] = _validate_warm_start(
            kwargs["warm_start"], instance
        )
    return impl(instance, **kwargs)
