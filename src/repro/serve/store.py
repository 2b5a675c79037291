"""LRU store of resident :class:`RMGPInstance`\\ s.

Building an instance (dataset generation + CSR adjacency) dwarfs the
solve time for interactive queries, so the server keeps hot instances
resident and keyed by the graph part of the request spec only —
``alpha`` and ``k``-independent knobs ride on the solve itself, so
mixed-α traffic over one graph is all cache hits after the first
request.  Eviction is least-recently-*used*; the store is thread-safe
(requests resolve instances from worker threads).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Tuple

from repro.serve.wire import InstanceSpec

if False:  # pragma: no cover - typing only
    from repro.core.instance import RMGPInstance


def _build(spec: InstanceSpec) -> "RMGPInstance":
    from repro.core.instance import RMGPInstance
    from repro.datasets import load_dataset, paper_example_instance

    if spec.dataset == "paper":
        return paper_example_instance()
    # use_cache=False: the LRU here is the one bounded cache; the
    # registry's unbounded process cache would defeat max_instances.
    data = load_dataset(
        spec.dataset,
        num_users=spec.users,
        num_events=spec.events,
        seed=spec.seed,
        use_cache=False,
    )
    # Resident costs are never written: a read-only matrix lets every
    # request's α clone reuse the closest-class init computed once per
    # graph (RMGPInstance.closest_classes).
    cost = data.cost_matrix()
    cost.flags.writeable = False
    return RMGPInstance(data.graph, data.event_ids, cost)


class InstanceStore:
    """Bounded create-or-fetch cache of built instances."""

    def __init__(self, max_instances: int = 8) -> None:
        if max_instances < 1:
            raise ValueError("max_instances must be >= 1")
        self.max_instances = max_instances
        self._lock = threading.Lock()
        self._instances: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, spec: InstanceSpec) -> Tuple["RMGPInstance", bool]:
        """The resident instance for ``spec`` (built on miss) + hit flag.

        Building runs outside the lock — a slow cold build must not
        stall hits on other keys.  Two racing cold requests for the
        same spec may both build; the second build wins the slot, which
        is correct (builds are deterministic) if mildly wasteful.
        """
        key = spec.key()
        with self._lock:
            instance = self._instances.get(key)
            if instance is not None:
                self._instances.move_to_end(key)
                self._hits += 1
                return instance, True
            self._misses += 1
        instance = _build(spec)
        with self._lock:
            self._instances[key] = instance
            self._instances.move_to_end(key)
            while len(self._instances) > self.max_instances:
                self._instances.popitem(last=False)
                self._evictions += 1
        return instance, False

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "resident": len(self._instances),
                "max_instances": self.max_instances,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "keys": [list(key) for key in self._instances],
            }
