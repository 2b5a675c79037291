"""Assignment-cost providers for RMGP instances.

The RMGP objective (Equation 1) charges each user ``v`` an *assignment
cost* ``c(v, s_v)`` for the class he joins.  The paper keeps ``c``
abstract — distance for LAGP, text dissimilarity for TAGP, or any
combination (Section 1).  This module defines the provider interface the
solvers consume and the standard implementations:

* :class:`MatrixCost` — a dense, pre-computed ``n x k`` matrix (the paper
  pre-computes all distances for the UML baselines).
* :class:`FunctionCost` — rows computed on demand from a callback, for
  query-time costs too large to materialize.
* :class:`ScaledCost` — multiplies another provider by the normalization
  constant ``C_N`` (Section 3.3).
* :class:`CombinedCost` — weighted sum of several criteria (multi-criteria
  assignment costs, Section 1).

Every provider hands out the full matrix two ways: :meth:`CostProvider.dense`
is a private copy the caller may write, :meth:`CostProvider.view` the same
values for reading only, sharing storage where it can.

Providers are indexed by *player index* (``0..n-1``) and *class index*
(``0..k-1``); the mapping from user ids and class labels to indices lives
in :class:`repro.core.instance.RMGPInstance`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, DataError


class CostProvider:
    """Interface: per-player rows of the assignment-cost matrix."""

    #: number of classes, k
    num_classes: int
    #: number of players, n
    num_players: int
    #: True when no one can write the costs in place, so anything
    #: derived from them may be memoized (see :class:`MatrixCost`).
    read_only = False

    def row(self, player: int) -> np.ndarray:
        """Costs of assigning ``player`` to each of the ``k`` classes.

        Must return a float64 array of length ``num_classes``.  Callers
        may mutate the returned array, so implementations must not hand
        out internal storage.
        """
        raise NotImplementedError

    def cost(self, player: int, klass: int) -> float:
        """Single entry ``c(player, klass)``."""
        return float(self.row(player)[klass])

    def dense(self) -> np.ndarray:
        """Materialize the full ``n x k`` matrix as a private copy the
        caller may write; readers take :meth:`view`."""
        if self.num_players == 0:
            return np.empty((0, self.num_classes), dtype=np.float64)
        return np.vstack([self.row(v) for v in range(self.num_players)])

    def view(self) -> np.ndarray:
        """The full ``n x k`` matrix for reading only.

        Same values as :meth:`dense`, but it may share the provider's
        storage, so callers must not write it (a :class:`MatrixCost`
        view is non-writeable).  Readers that gather entries or derive a
        new array from the costs take this instead of a copy.
        """
        return self.dense()


class MatrixCost(CostProvider):
    """Cost provider backed by a dense ``n x k`` numpy matrix."""

    def __init__(self, matrix: np.ndarray) -> None:
        # Row-major, so view() and the tables derived from it are too; an
        # already row-major float64 matrix is kept uncopied.
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ConfigurationError("cost matrix must be 2-dimensional")
        if matrix.size and matrix.min() < 0:
            raise ConfigurationError("assignment costs must be non-negative")
        if not np.isfinite(matrix).all():
            raise ConfigurationError("assignment costs must be finite")
        self._matrix = matrix
        self.num_players = matrix.shape[0]
        self.num_classes = matrix.shape[1]

    @property
    def read_only(self) -> bool:
        """True when the matrix is not writeable (``flags.writeable``).

        A resident instance's matrix is frozen this way
        (:mod:`repro.serve.store`); the incremental engine keeps its own
        matrix writeable and rewrites it row by row.
        """
        return not self._matrix.flags.writeable

    def row(self, player: int) -> np.ndarray:
        return self._matrix[player].copy()

    def cost(self, player: int, klass: int) -> float:
        return float(self._matrix[player, klass])

    def dense(self) -> np.ndarray:
        return self._matrix.copy()

    def view(self) -> np.ndarray:
        view = self._matrix.view()
        view.flags.writeable = False
        return view


class FunctionCost(CostProvider):
    """Cost provider computing rows on demand from a callback.

    Parameters
    ----------
    row_fn:
        ``row_fn(player) -> array of length k``.  Called once per player
        per use; wrap expensive callbacks in :meth:`materialized` when
        the matrix fits in memory.
    num_players, num_classes:
        Dimensions (the callback cannot be introspected).
    """

    def __init__(
        self,
        row_fn: Callable[[int], Sequence[float]],
        num_players: int,
        num_classes: int,
    ) -> None:
        if num_players < 0 or num_classes <= 0:
            raise ConfigurationError("need num_players >= 0 and num_classes > 0")
        self._row_fn = row_fn
        self.num_players = num_players
        self.num_classes = num_classes

    def row(self, player: int) -> np.ndarray:
        row = np.asarray(self._row_fn(player), dtype=np.float64)
        if row.shape != (self.num_classes,):
            raise ConfigurationError(
                f"row callback returned shape {row.shape}, expected ({self.num_classes},)"
            )
        if not np.isfinite(row).all():
            raise DataError(
                f"cost row for player {player} contains NaN/inf"
            )
        if row.size and row.min() < 0:
            raise DataError(
                f"cost row for player {player} contains negative costs"
            )
        return row

    def materialized(self) -> MatrixCost:
        """Evaluate every row once and return a :class:`MatrixCost`."""
        return MatrixCost(self.dense())


class ScaledCost(CostProvider):
    """A provider multiplied by a positive constant (``C_N`` scaling)."""

    def __init__(self, base: CostProvider, factor: float) -> None:
        if factor <= 0 or not np.isfinite(factor):
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        self._base = base
        self.factor = float(factor)
        self.num_players = base.num_players
        self.num_classes = base.num_classes

    def row(self, player: int) -> np.ndarray:
        return self._base.row(player) * self.factor

    def cost(self, player: int, klass: int) -> float:
        return self._base.cost(player, klass) * self.factor

    def view(self) -> np.ndarray:
        # One vectorized scale of the base matrix; elementwise it is the
        # same multiplication row() performs, so values are bit-identical.
        return self._base.view() * self.factor

    def dense(self) -> np.ndarray:
        return self.view()  # the product is already a fresh array


class CombinedCost(CostProvider):
    """Weighted sum of several cost providers (multi-criteria costs).

    The paper notes the assignment cost "could be a linear combination
    (or any other scoring function) of the distance and the preference"
    of a user (Section 1).  All providers must share dimensions.
    """

    def __init__(
        self,
        providers: Sequence[CostProvider],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not providers:
            raise ConfigurationError("need at least one cost provider")
        dims = {(p.num_players, p.num_classes) for p in providers}
        if len(dims) != 1:
            raise ConfigurationError(f"providers disagree on dimensions: {dims}")
        if weights is None:
            weights = [1.0 / len(providers)] * len(providers)
        if len(weights) != len(providers):
            raise ConfigurationError("one weight per provider required")
        if any(w < 0 for w in weights):
            raise ConfigurationError("criterion weights must be non-negative")
        self._providers = list(providers)
        self._weights = [float(w) for w in weights]
        self.num_players, self.num_classes = next(iter(dims))

    def row(self, player: int) -> np.ndarray:
        total = np.zeros(self.num_classes, dtype=np.float64)
        for provider, weight in zip(self._providers, self._weights):
            if weight:
                total += weight * provider.row(player)
        return total

    def view(self) -> np.ndarray:
        total = np.zeros((self.num_players, self.num_classes), dtype=np.float64)
        for provider, weight in zip(self._providers, self._weights):
            if weight:
                total += weight * provider.view()
        return total

    def dense(self) -> np.ndarray:
        return self.view()  # the sum is already a fresh array


def as_cost_provider(
    cost: "np.ndarray | CostProvider | Callable[[int], Sequence[float]]",
    num_players: Optional[int] = None,
    num_classes: Optional[int] = None,
) -> CostProvider:
    """Coerce matrices / callables / providers into a :class:`CostProvider`."""
    if isinstance(cost, CostProvider):
        return cost
    if callable(cost):
        if num_players is None or num_classes is None:
            raise ConfigurationError(
                "num_players and num_classes are required for callable costs"
            )
        return FunctionCost(cost, num_players, num_classes)
    return MatrixCost(np.asarray(cost))
