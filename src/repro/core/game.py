"""The public facade: configure and solve an RMGP query.

:class:`RMGPGame` bundles the instance construction, optional
normalization (Section 3.3) and the choice of algorithm variant behind a
single object, which is what the examples and applications use:

    >>> game = RMGPGame(graph, classes=events, cost=distances, alpha=0.5)
    >>> result = game.solve(method="all", normalize="pessimistic", seed=7)
    >>> result.labels[some_user]
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from repro.core.costs import CostProvider
from repro.core.equilibrium import EquilibriumReport, equilibrium_report
from repro.core.instance import RMGPInstance
from repro.core.normalization import NormalizationEstimate, normalize
from repro.core.registry import SOLVERS  # noqa: F401  (public re-export)
from repro.core.result import PartitionResult
from repro.graph.social_graph import SocialGraph


class RMGPGame:
    """One RMGP query: a social graph partitioned into query-time classes.

    Parameters mirror :class:`~repro.core.instance.RMGPInstance`; see the
    module docstring for a usage sketch.
    """

    def __init__(
        self,
        graph: SocialGraph,
        classes: Sequence[Hashable],
        cost: "np.ndarray | CostProvider | Callable[[int], Sequence[float]]",
        alpha: float = 0.5,
    ) -> None:
        self.instance = RMGPInstance(graph, classes, cost, alpha)
        self.normalization: Optional[NormalizationEstimate] = None

    @property
    def alpha(self) -> float:
        """Preference parameter α of the underlying instance."""
        return self.instance.alpha

    def solve(
        self,
        method: str = "all",
        normalize_method: Optional[str] = None,
        **solver_kwargs,
    ) -> PartitionResult:
        """Solve with the chosen variant.

        Parameters
        ----------
        method:
            One of ``"baseline"``, ``"se"``, ``"is"``, ``"gt"``, ``"all"``
            (short or long names; see
            :data:`repro.core.registry.SOLVERS`).
        normalize_method:
            ``None`` (raw costs), ``"optimistic"`` or ``"pessimistic"``
            (Section 3.3).  The estimate used is stored on
            ``self.normalization`` and echoed in ``result.extra``.
        solver_kwargs:
            Forwarded to the variant (``init=``, ``order=``, ``seed=``,
            ``threads=``, ``warm_start=``, ``recorder=``, ...).

        A thin wrapper over :func:`repro.partition`, which (like
        :func:`~repro.core.normalization.normalize`) raises
        :class:`ConfigurationError` for an unknown name.
        """
        # Imported lazily: repro.api imports this module's sibling
        # registry, and importing it at module scope would be circular
        # through repro.core's package __init__.
        from repro.api import partition

        instance = self.instance
        self.normalization = None
        if normalize_method is not None:
            instance, self.normalization = normalize(instance, normalize_method)
        result = partition(instance, solver=method, **solver_kwargs)
        if self.normalization is not None:
            result.extra["normalization"] = self.normalization
        return result

    def verify(self, result: PartitionResult) -> EquilibriumReport:
        """Certify that ``result`` is a Nash equilibrium of this game.

        The check runs against the same (possibly normalized) instance
        the result was produced on.
        """
        instance = self.instance
        if "normalization" in result.extra:
            from repro.core.normalization import normalize_with_constant

            instance = normalize_with_constant(
                instance, result.extra["normalization"].cn
            )
        return equilibrium_report(instance, result.assignment)
