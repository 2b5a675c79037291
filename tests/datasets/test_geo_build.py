"""The geo dataset build: the friendship slot draw and its import footprint."""

import os
import random
import subprocess
import sys
from bisect import insort
from itertools import accumulate
from typing import List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.geo import _pick_slot

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _weighted_choice(
    candidates: Sequence[int], weights: List[float], rng: random.Random
) -> int:
    """The linear-scan draw the friendship loop used before the prefix
    sums, kept as the reference the bisect draw must match pick for pick."""
    total = sum(weights[c] for c in candidates)
    draw = rng.random() * total
    acc = 0.0
    for candidate in candidates:
        acc += weights[candidate]
        if draw <= acc:
            return candidate
    return candidates[-1]


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(st.integers(1, 2_000), min_size=1, max_size=41),
    patches=st.lists(st.integers(0, 40), max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_draw_matches_linear_scan(pool, patches, seed):
    """Integer-valued weights, seeded draws and random +1 patches: the
    draw over the base prefix sums and the sorted patched slots picks
    what the scan over the patched weights picks."""
    candidates = list(range(len(pool)))
    weights = [float(w) for w in pool]
    base = list(accumulate(weights))
    taken: List[int] = []
    scan_rng, bisect_rng = random.Random(seed), random.Random(seed)
    for patch in [None, *patches]:
        if patch is not None:
            slot = patch % len(candidates)
            weights[candidates[slot]] += 1.0
            insort(taken, slot)
        for _ in range(3):
            expected = _weighted_choice(candidates, weights, scan_rng)
            assert candidates[_pick_slot(base, taken, bisect_rng)] == expected


def test_build_does_not_import_scipy():
    """``scipy.spatial`` alone adds ~31 MiB RSS and ~0.5 s to a process;
    neither the server import nor a dataset build may pull scipy in."""
    script = (
        "import sys\n"
        "import repro.serve\n"
        "from repro.datasets import load_dataset\n"
        "load_dataset('gowalla', num_users=300, use_cache=False)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
