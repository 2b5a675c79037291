"""The versioned wire schema of ``POST /v1/solve`` requests.

Every request body is validated *before* a job is queued, with error
messages carrying full field paths (``request.options.seed: expected
int, got str``) so a misconfigured client never burns a worker slot.
The schema deliberately reuses the library's own contracts:

* ``options`` is exactly :meth:`repro.api.SolveOptions.from_dict`;
* ``solver_kwargs`` keys are checked against the registry
  implementation's signature
  (:func:`repro.core.registry.accepted_parameters`) minus the
  parameters that cannot ride the wire (live objects);
* responses embed the frozen ``repro-result/v1`` payload.

Bumping any of these shapes means bumping :data:`API_VERSION` — the URL
prefix *is* the schema version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.api import SolveOptions
from repro.core.registry import (
    SOLVERS,
    accepted_parameters,
    canonical_solver_name,
)
from repro.errors import ConfigurationError
from repro.obs.context import parse_traceparent

#: The wire version; the URL prefix of every versioned endpoint.
API_VERSION = "v1"

#: Request priority classes: ``interactive`` jobs are dequeued ahead of
#: ``batch`` jobs at the configured weight (see ``ServeConfig``).
PRIORITIES = ("interactive", "batch")

#: Dataset families the instance spec accepts.  ``"paper"`` is the
#: running example of Figure 2 (fixed size; users/events ignored).
INSTANCE_DATASETS = ("gowalla", "foursquare", "paper")

#: Registry parameters that never ride the wire: live objects, values
#: with dedicated request fields, or server-managed plumbing.
_FORBIDDEN_SOLVER_KWARGS = frozenset(
    {
        "recorder",
        "budget",
        "cancel_token",
        "mutations",
        "warm_start",
        "resume_from",
        "checkpoint_path",
        "checkpoint_every",
        "deadline_seconds",
        "round_budget_seconds",
    }
)

#: JSON scalar/structure types allowed for wire solver kwargs.
_WIRE_VALUE_TYPES = (str, int, float, bool, list)

_SPEC_DEFAULTS = {"dataset": "gowalla", "users": 200, "events": 8, "seed": 0}


def _expect(
    payload: Dict[str, Any],
    key: str,
    types: tuple,
    path: str,
    default: Any = None,
) -> Any:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) and bool not in types:
        raise ConfigurationError(
            f"{path}.{key}: expected "
            f"{'/'.join(t.__name__ for t in types)}, got bool"
        )
    if not isinstance(value, types):
        raise ConfigurationError(
            f"{path}.{key}: expected "
            f"{'/'.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class InstanceSpec:
    """What graph to solve on — the LRU instance-store key.

    ``alpha`` is *not* part of the key: the store keeps one resident
    instance per graph and the solve clones it per-request via
    ``SolveOptions.alpha``, so mixed-α traffic shares hot instances.
    """

    dataset: str = "gowalla"
    users: int = 200
    events: int = 8
    seed: int = 0

    @classmethod
    def from_dict(
        cls, payload: Any, path: str = "request.instance"
    ) -> "InstanceSpec":
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"{path}: expected an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - set(_SPEC_DEFAULTS)
        if unknown:
            raise ConfigurationError(
                f"{path}.{sorted(unknown)[0]}: unknown field (expected one "
                f"of: {', '.join(sorted(_SPEC_DEFAULTS))})"
            )
        dataset = _expect(payload, "dataset", (str,), path,
                          _SPEC_DEFAULTS["dataset"])
        if dataset not in INSTANCE_DATASETS:
            raise ConfigurationError(
                f"{path}.dataset: unknown dataset {dataset!r} "
                f"(expected one of: {', '.join(INSTANCE_DATASETS)})"
            )
        users = _expect(payload, "users", (int,), path, _SPEC_DEFAULTS["users"])
        events = _expect(payload, "events", (int,), path,
                         _SPEC_DEFAULTS["events"])
        seed = _expect(payload, "seed", (int,), path, _SPEC_DEFAULTS["seed"])
        if users < 2:
            raise ConfigurationError(f"{path}.users: must be >= 2, got {users}")
        if events < 1:
            raise ConfigurationError(
                f"{path}.events: must be >= 1, got {events}"
            )
        return cls(dataset=dataset, users=users, events=events, seed=seed)

    def key(self) -> Tuple[Any, ...]:
        if self.dataset == "paper":
            return ("paper",)
        return (self.dataset, self.users, self.events, self.seed)

    def to_dict(self) -> Dict[str, Any]:
        if self.dataset == "paper":
            return {"dataset": "paper"}
        return {
            "dataset": self.dataset,
            "users": self.users,
            "events": self.events,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SolveRequest:
    """One validated ``POST /v1/solve`` body.

    ``trace_id`` is the request's W3C trace id: parsed from an optional
    body-level ``traceparent`` field (which beats the HTTP header of the
    same name — a body survives proxies that strip headers), or stamped
    in by the server from the header / freshly generated.  It is never
    part of the solve semantics: assignments are byte-identical whatever
    its value.
    """

    instance: InstanceSpec
    solver: str = "gt"
    options: Dict[str, Any] = field(default_factory=dict)
    solver_kwargs: Dict[str, Any] = field(default_factory=dict)
    wait: bool = True
    stream: bool = False
    include_assignment: bool = False
    priority: str = "interactive"
    trace_id: Optional[str] = None

    _KEYS = (
        "instance",
        "solver",
        "options",
        "solver_kwargs",
        "wait",
        "stream",
        "include_assignment",
        "priority",
        "traceparent",
    )

    @classmethod
    def from_dict(cls, payload: Any, path: str = "request") -> "SolveRequest":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"{path}: expected an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - set(cls._KEYS)
        if unknown:
            raise ConfigurationError(
                f"{path}.{sorted(unknown)[0]}: unknown field (expected one "
                f"of: {', '.join(cls._KEYS)})"
            )
        solver = _expect(payload, "solver", (str,), path, "gt")
        if solver not in SOLVERS:
            raise ConfigurationError(
                f"{path}.solver: unknown solver {solver!r}; expected one of "
                f"{sorted(SOLVERS)}"
            )
        spec = InstanceSpec.from_dict(
            payload.get("instance"), f"{path}.instance"
        )

        options = payload.get("options") or {}
        # Validate eagerly (types, unknown keys, exact_scale) so the
        # error surfaces as a 400, not inside a worker thread.
        SolveOptions.from_dict(options, field_prefix=f"{path}.options")

        kwargs = payload.get("solver_kwargs") or {}
        if not isinstance(kwargs, dict):
            raise ConfigurationError(
                f"{path}.solver_kwargs: expected an object, got "
                f"{type(kwargs).__name__}"
            )
        accepted = accepted_parameters(SOLVERS[solver])
        for key, value in kwargs.items():
            if key in _FORBIDDEN_SOLVER_KWARGS:
                raise ConfigurationError(
                    f"{path}.solver_kwargs.{key}: not a wire parameter "
                    "(use the dedicated request/options field, or an "
                    "in-process partition() call)"
                )
            if key not in accepted:
                raise ConfigurationError(
                    f"{path}.solver_kwargs.{key}: solver "
                    f"{canonical_solver_name(solver)!r} does not accept it "
                    f"(accepts: {', '.join(sorted(accepted - {'instance'}))})"
                )
            if value is not None and not isinstance(value, _WIRE_VALUE_TYPES):
                raise ConfigurationError(
                    f"{path}.solver_kwargs.{key}: expected a JSON value, "
                    f"got {type(value).__name__}"
                )

        wait = _expect(payload, "wait", (bool,), path, True)
        stream = _expect(payload, "stream", (bool,), path, False)
        include = _expect(payload, "include_assignment", (bool,), path, False)
        priority = _expect(payload, "priority", (str,), path, "interactive")
        if priority not in PRIORITIES:
            raise ConfigurationError(
                f"{path}.priority: unknown priority {priority!r} "
                f"(expected one of: {', '.join(PRIORITIES)})"
            )
        if stream and not wait:
            raise ConfigurationError(
                f"{path}.stream: streaming implies waiting; "
                "drop \"wait\": false"
            )
        traceparent = _expect(payload, "traceparent", (str,), path)
        trace_id = None
        if traceparent is not None:
            trace_id = parse_traceparent(traceparent)
            if trace_id is None:
                raise ConfigurationError(
                    f"{path}.traceparent: malformed W3C traceparent "
                    f"(expected 00-<32 hex>-<16 hex>-<2 hex>, got "
                    f"{traceparent!r})"
                )
        return cls(
            instance=spec,
            solver=solver,
            options=dict(options),
            solver_kwargs=dict(kwargs),
            wait=wait,
            stream=stream,
            include_assignment=include,
            priority=priority,
            trace_id=trace_id,
        )

    def build_options(
        self,
        default_deadline_seconds: Optional[float],
        cancel_token,
        recorder=None,
    ) -> SolveOptions:
        """The in-process options of this request's job.

        The wire options are rebuilt through the same ``from_dict``
        contract as library callers use, then composed with the
        server-side runtime objects: the job's
        :class:`~repro.runtime.CancelToken`, the per-request recorder,
        and — when the request did not pin one — the server's default
        deadline.
        """
        merged = dict(self.options)
        if (
            default_deadline_seconds is not None
            and merged.get("deadline_seconds") is None
        ):
            merged["deadline_seconds"] = default_deadline_seconds
        options = SolveOptions.from_dict(merged)
        fields_by_name = {
            name: getattr(options, name)
            for name in options.__dataclass_fields__
        }
        fields_by_name["cancel_token"] = cancel_token
        if recorder is not None:
            fields_by_name["recorder"] = recorder
        return SolveOptions(**fields_by_name)

    def summary(self) -> Dict[str, Any]:
        """JSON description echoed in job records."""
        return {
            "instance": self.instance.to_dict(),
            "solver": self.solver,
            "options": dict(self.options),
            "solver_kwargs": dict(self.solver_kwargs),
            "priority": self.priority,
        }
