"""Byte pins for the geo dataset generators.

Each hash covers the sorted edge list with weights, every check-in and
every event, so any change in the k-NN candidate pools, the RNG stream
or the float arithmetic of the generators shows up here.  The sizes and
seeds are the ones the repository benchmark builds: ``cold`` (600 users,
16 events), ``churn``'s base graph (2,000 x 16) and a ``query`` graph
(3,000 x 128).

A second hash covers the graph in iteration order: the node order, the
``edges()`` order and every adjacency dict's order.  Edge iteration,
``subgraph``, Forest Fire sampling and ``relabeled`` all follow those
dict orders, which the sorted edge list cannot see.
"""

import hashlib
import json

import pytest

from repro.datasets import foursquare_like, gowalla_like


def _fingerprint(dataset) -> str:
    edges = sorted(
        (min(u, v), max(u, v), w) for u, v, w in dataset.graph.edges()
    )
    checkins = sorted(
        (user, list(point)) for user, point in dataset.checkins.items()
    )
    events = [
        (e.event_id, list(e.location), e.name) for e in dataset.events
    ]
    blob = json.dumps([edges, checkins, events], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _order_fingerprint(graph) -> str:
    nodes = graph.nodes()
    adjacency = [list(graph.neighbors(u).items()) for u in nodes]
    blob = json.dumps(
        [nodes, list(graph.edges()), adjacency], separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


PINS = [
    (gowalla_like, 600, 16, 63433660,
     "6a26dbaad1a5472076d6fb04fb587d68d55fe6fa854bfe962052659100cb2967"),
    (gowalla_like, 600, 16, 62196003,
     "e82b604ae1d420f6b051e0226aff7c2cd1e2a4c4778fa05c806f002424dac222"),
    (gowalla_like, 2000, 16, 522648,
     "e804db47c911eeba7acc85dfa8fafd19c5e8bdf1ee36c6151efece12eeaec2cd"),
    (foursquare_like, 600, 16, 7,
     "685d1ba26e512a7b27d462243951d295ef520c80e77b671118cda8a50bc45ca2"),
    (gowalla_like, 3000, 128, 707440,
     "6fe039c628d93ea97053b85f373c60e8d82004d70c98e974b6d51b607bf7349a"),
]


@pytest.mark.parametrize(
    "factory, users, events, seed, digest",
    PINS,
    ids=[f"{f.__name__}-{u}x{k}-seed{s}" for f, u, k, s, _ in PINS],
)
def test_dataset_bytes_are_pinned(factory, users, events, seed, digest):
    dataset = factory(num_users=users, num_events=events, seed=seed)
    assert _fingerprint(dataset) == digest


ORDER_PINS = {
    "gowalla_like-600x16-seed63433660":
        "d226ce4c59f3cdce6340e48d1fb7e152910037cfb5d258070d56eae7c3a38118",
    "gowalla_like-600x16-seed62196003":
        "56d765f703265a37fd00154475124986d4348eda14c961df0d6f5ed32deac58b",
    "gowalla_like-2000x16-seed522648":
        "41a4b3061547a53cefcf38c64a8b982cf4c19d9462cfdd95a298a7704a4a6cc6",
    "foursquare_like-600x16-seed7":
        "c30e4ed50b711fa703622041b7392cde51b45610ed4a4faff8db0c46f6de95d7",
    "gowalla_like-3000x128-seed707440":
        "4d594e4e9566c8ca7c8959b07d8dd867a9ba3b6c9834fcb0a32f080021a4f3b6",
}


@pytest.mark.parametrize(
    "factory, users, events, seed",
    [pin[:4] for pin in PINS],
    ids=[f"{f.__name__}-{u}x{k}-seed{s}" for f, u, k, s, _ in PINS],
)
def test_graph_iteration_order_is_pinned(factory, users, events, seed):
    dataset = factory(num_users=users, num_events=events, seed=seed)
    key = f"{factory.__name__}-{users}x{events}-seed{seed}"
    assert _order_fingerprint(dataset.graph) == ORDER_PINS[key]
    assert dataset.graph.total_edge_weight() == dataset.graph.num_edges
