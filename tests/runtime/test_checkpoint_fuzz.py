"""Fuzzed resume checkpoints: fail closed with DataError, or resume validly.

Real ``gt``/``vec``/``sync`` checkpoints are damaged three ways — byte
flips in the file, truncation, and a type swap of one field anywhere in
the JSON tree — and resumed.  The only allowed outcomes are a
:class:`~repro.errors.DataError` or a result that passes
:func:`~repro.core.result_schema.validate_result`; any other exception
fails.  A traced-memory ceiling catches allocations sized by a claimed
``shape``/length instead of by the bytes actually present.
"""

from __future__ import annotations

import json
import os
import tempfile
import tracemalloc
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import partition
from repro.core.result_schema import validate_result
from repro.errors import DataError
from repro.runtime import CountdownToken
from tests.core.conftest import random_instance

SOLVERS = {"gt": {}, "vec": {}, "sync": {"damping": 0.7}}

#: Resuming a 20-player instance needs well under a MiB; a decoder that
#: trusts a claimed size blows far past this.
PEAK_BYTES = 16 * 2**20

#: Replacement values for the type-swap damage.
SWAPS = [
    None, True, 0, -1, 2**63, 1.5, float("inf"), "x", "", [], {}, [1, 2],
    [[-1]],
    {"__ndarray__": True, "dtype": "int64", "shape": [10**12], "data": ""},
    {"__ndarray__": True, "dtype": "float64", "shape": [0, 10**12],
     "data": ""},
    {"__ndarray__": True, "dtype": "object", "shape": [1], "data": "AAAA"},
    {"__ndarray__": True, "dtype": "S1000000000", "shape": [1], "data": ""},
]


@lru_cache(maxsize=None)
def _checkpoint_bytes(name: str) -> bytes:
    """A real checkpoint, taken after round 1 of a seeded solve."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ckpt.json")
        partial = partition(
            random_instance(), solver=name, seed=3,
            cancel_token=CountdownToken(1), checkpoint_path=path,
            **SOLVERS[name],
        )
        assert partial.stop_reason == "cancelled"
        with open(path, "rb") as handle:
            return handle.read()


def _paths(node, prefix=()):
    """Every (container, key) location in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _flip(data: bytes, flips) -> bytes:
    damaged = bytearray(data)
    for where, value in flips:
        damaged[int(where * len(damaged)) % len(damaged)] = value
    return bytes(damaged)


def _truncate(data: bytes, keep: float) -> bytes:
    return data[: int(keep * len(data))]


def _swap(data: bytes, pick: int, value) -> bytes:
    tree = json.loads(data)
    paths = list(_paths(tree))
    path = paths[pick % len(paths)]
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(tree).encode()


DAMAGE = st.one_of(
    st.builds(
        lambda flips: ("flip", flips),
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0, exclude_max=True),
                st.integers(0, 255),
            ),
            min_size=1, max_size=8,
        ),
    ),
    st.builds(
        lambda keep: ("truncate", keep),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
    st.builds(
        lambda pick, value: ("swap", (pick, value)),
        st.integers(0, 10**6),
        st.sampled_from(SWAPS),
    ),
)


def _damage(data: bytes, kind: str, args) -> bytes:
    if kind == "flip":
        return _flip(data, args)
    if kind == "truncate":
        return _truncate(data, args)
    return _swap(data, *args)


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(name=st.sampled_from(sorted(SOLVERS)), damage=DAMAGE)
def test_damaged_checkpoint_fails_closed_or_resumes_validly(name, damage):
    data = _damage(_checkpoint_bytes(name), *damage)
    instance = random_instance()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "damaged.json")
        with open(path, "wb") as handle:
            handle.write(data)
        tracemalloc.start()
        try:
            result = partition(
                instance, solver=name, seed=3, resume_from=path,
                **SOLVERS[name],
            )
        except DataError:
            return
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak < PEAK_BYTES, f"resume traced {peak} bytes"
    assert validate_result(result.to_dict()) == []
