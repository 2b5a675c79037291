"""RMGP — Real-Time Multi-Criteria Social Graph Partitioning.

A from-scratch reproduction of the SIGMOD 2015 paper "Real-Time
Multi-Criteria Social Graph Partitioning: A Game Theoretic Approach"
(Armenatzoglou, Pham, Ntranos, Papadias, Shahabi).

The package partitions a social network into a set of query-time classes
(events, advertisements, ...) so that users join classes they individually
like *and* that their friends join, by running best-response dynamics of
an exact potential game to a pure Nash equilibrium.

Quick start::

    import repro
    from repro.datasets import gowalla_like

    data = gowalla_like(num_users=2000, num_events=32, seed=7)
    instance = repro.RMGPInstance(
        data.graph, data.event_ids, data.cost_matrix, alpha=0.5
    )
    result = repro.partition(instance, solver="all", seed=7)
    print(result.summary())

or, with normalization and equilibrium certification, through the
:class:`RMGPGame` facade::

    game = RMGPGame(data.graph, data.event_ids, data.cost_matrix, alpha=0.5)
    result = game.solve(method="all", normalize_method="pessimistic", seed=7)

To profile a solve, wrap it in a recorder (``repro.obs``)::

    from repro.obs import recording, summary_tree

    with recording() as rec:
        repro.partition(instance, solver="gt", seed=7)
    print(summary_tree(rec))

Sub-packages
------------
``repro.core``
    The RMGP game: baseline and optimized solvers, normalization,
    equilibrium certificates.
``repro.graph``
    Social-graph substrate (storage, coloring, sampling, generators).
``repro.baselines``
    The paper's comparison systems: Metis+Hungarian, LP-based UML,
    greedy UML, exact ILP.
``repro.apps``
    Location-aware (LAGP) and topic-aware (TAGP) applications.
``repro.datasets``
    Gowalla-like / Foursquare-like synthetic datasets and the paper's
    running example.
``repro.distributed``
    The decentralized game (DG) and fetch-and-execute (FaE) over a
    simulated cluster.
``repro.bench``
    Workloads and reporting used by the figure-by-figure benchmarks.
``repro.runtime``
    Real-time execution layer: deadlines, cooperative cancellation and
    checkpoint/resume for every solver.
"""

from repro.api import SolveOptions, partition
from repro.core import (
    ObjectiveValue,
    PartitionResult,
    RMGPGame,
    RMGPInstance,
    is_nash_equilibrium,
    objective,
    potential,
)
from repro.graph import SocialGraph
from repro.runtime import (
    CancelToken,
    RuntimeBudget,
    SolveCheckpoint,
    SteppingClock,
)

__version__ = "6.1.0"

__all__ = [
    "CancelToken",
    "ObjectiveValue",
    "PartitionResult",
    "RMGPGame",
    "RMGPInstance",
    "RuntimeBudget",
    "SocialGraph",
    "SolveCheckpoint",
    "SolveOptions",
    "SteppingClock",
    "is_nash_equilibrium",
    "objective",
    "partition",
    "potential",
    "__version__",
]
