"""Measurement helpers shared by every workload: percentiles, the tail
rule, the machine-speed readings, process CPU and memory readings,
the run's environment record and self-time attribution over exported
trace records."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from outcome import report

#: Percentiles the tail metric may use, highest first.
TAIL_LADDER = (90.0, 80.0, 75.0, 50.0)
#: Samples that must lie beyond the tail percentile.
TAIL_MIN_BEYOND = 10
#: Seconds of load between two readings of the machine's speed.
BLOCK_SECONDS = 0.5
#: Iterations of :func:`reference_loop` (about 5 ms on a 2-vCPU VM).
REFERENCE_ITERATIONS = 60_000
#: Runs of the reference loop per speed reading, by stage: set-up has
#: a reading before and after each set-up, load one per block.
READING_REPS = {"setup": 15, "load": 5}
#: The reference loop's time at the reference speed.  Time metrics are
#: reported at that speed: the times of a stage whose median reading is
#: ``c`` seconds are multiplied by ``REFERENCE_SECONDS / c``.
REFERENCE_SECONDS = 0.005
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float], cap: float) -> Tuple[float, float, float]:
    """``(percentile, value, samples beyond)`` of the tail metric.

    The tail is the highest percentile of :data:`TAIL_LADDER`, at most
    ``cap``, that has at least :data:`TAIL_MIN_BEYOND` samples beyond
    it.  The per-workload cap keeps the metric's meaning fixed from run
    to run; a run with too few samples falls back down the ladder and
    says so in its report.
    """
    count = len(values)
    for q in TAIL_LADDER:
        beyond = count * (1.0 - q / 100.0)
        if q <= cap and beyond >= TAIL_MIN_BEYOND:
            return q, percentile(values, q), beyond
    return 50.0, percentile(values, 50.0), count * 0.5


def reference_loop() -> int:
    """The fixed pure-Python work a speed reading times."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


class Speed:
    """Readings of the machine's speed through one run, by stage.

    The machine's speed drifts with other tenants' load by 20% and
    more, in stretches of tens of seconds to minutes, and the program
    slows with it.  A reading is the median time of a few runs of
    :func:`reference_loop` (``READING_REPS``), taken between blocks of
    the program's work.  One reading is itself noisy, so a stage's speed is
    the median of all its readings, and every time measured in the
    stage is scaled by one :meth:`factor`.  The stages are ``setup`` and
    ``load``, which run tens of seconds apart.  README.md gives the
    trials behind these choices.
    """

    def __init__(self) -> None:
        self.readings: Dict[str, List[float]] = {"setup": [], "load": []}

    def read(self, stage: str) -> None:
        times = []
        for _ in range(READING_REPS[stage]):
            began = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - began)
        self.readings[stage].append(median(times))

    def factor(self, stage: str) -> float:
        """Multiplier from the stage's times to reference-speed times."""
        return REFERENCE_SECONDS / median(self.readings[stage])

    def timed(self, action: Callable[[], Any]) -> Tuple[Any, float]:
        """``(action(), seconds)`` of one set-up, read before and after."""
        self.read("setup")
        began = time.perf_counter()
        result = action()
        seconds = time.perf_counter() - began
        self.read("setup")
        return result, seconds

    def report(self) -> None:
        for stage, readings in self.readings.items():
            if readings:
                report(phase="speed", stage=stage, readings=len(readings),
                       factor=round(self.factor(stage), 4),
                       reading_ms=[round(r * 1e3, 2) for r in readings])


def block_rate(counts: Sequence[int], blocks: Sequence[float]) -> float:
    """Median over load blocks of each block's ops per second, so a
    stall shorter than a block moves only one block's rate."""
    return median([count / seconds for count, seconds in zip(counts, blocks)])


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment(root: str) -> Dict[str, Any]:
    """What a run's numbers depend on besides the code under test."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": source_digest(os.path.join(root, "src")),
    }


def source_digest(src: str) -> str:
    """sha256 over every ``.py`` file under ``src`` (path + bytes).

    Identifies the code under test where the checkout is not a git
    repository, so ``git rev-parse`` has nothing to report.
    """
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def self_times(records: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds of self time per span name over exported trace records.

    A span's self time is its duration minus the part of its interval
    its direct children cover (children clipped to the parent and their
    overlaps merged), so the self times of one tree sum to its root's
    duration.
    """
    spans = [r for r in records if r.get("type") == "span"]
    children: Dict[Any, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        children[span.get("parent")].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        covered = 0.0
        cursor = start
        for child in sorted(
            children.get(span["id"], ()), key=lambda c: float(c["start"])
        ):
            low = max(float(child["start"]), cursor)
            high = min(float(child["end"]), end)
            if high > low:
                covered += high - low
                cursor = high
        totals[span["name"]] += max(end - start - covered, 0.0)
    return dict(totals)

