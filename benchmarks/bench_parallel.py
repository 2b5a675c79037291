#!/usr/bin/env python3
"""Speedup-vs-workers curve for the shared-memory backend.

Runs the vectorized solver on a fixed-seed fig8-scale instance serially
(pure backend) and with the shm worker pool at increasing pool sizes,
asserts every parallel assignment is **byte-identical** to the serial
one (exit 1 otherwise — that gate is unconditional), and appends one
record per run to ``benchmarks/history/parallel.jsonl`` so the curve is
queryable over time::

    python benchmarks/bench_parallel.py                 # measure + record
    python benchmarks/bench_parallel.py --check         # also gate on history
    make bench-parallel

Speedup numbers are machine truths, not universal ones: the pool cannot
beat the GIL-bound path on a single-core runner (the curve will show
slowdown there — honestly), and small instances are dominated by the
per-round IPC latency.  The byte-identity gate is what must hold
everywhere; the recorded curve is for watching trends on a fixed box.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_perf_regression import build_instance, calibration_ms  # noqa: E402
from repro import partition  # noqa: E402
from repro.bench import history as bench_history  # noqa: E402

PROFILE = "parallel"


def _time_solve(instance, repeats: int, **kwargs):
    partition(instance, solver="vec", init="closest", seed=0, **kwargs)  # warmup
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = partition(
            instance, solver="vec", init="closest", seed=0, **kwargs
        )
        best = min(best, time.perf_counter() - start)
    return best * 1e3, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--instance", default="fig8-medium",
        help="instance key from bench_perf_regression.INSTANCES",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4],
        help="shm pool sizes to sweep (1 exercises the serial fallback)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on a statistical history regression (byte-identity "
             "always gates, with or without this flag)",
    )
    parser.add_argument(
        "--history-dir", type=Path,
        default=REPO_ROOT / "benchmarks" / "history",
    )
    parser.add_argument("--no-history", action="store_true")
    args = parser.parse_args(argv)

    instance = build_instance(args.instance)
    cal = calibration_ms(args.repeats)
    print(f"calibration: {cal:.3f} ms")

    serial_ms, serial = _time_solve(instance, args.repeats)
    print(
        f"{args.instance}/serial      {serial_ms:9.3f} ms  "
        f"rounds={serial.num_rounds}"
    )
    results = {
        f"{args.instance}/serial": {
            "wall_ms": serial_ms, "rounds": serial.num_rounds,
        }
    }
    failures = []
    for workers in args.workers:
        wall_ms, result = _time_solve(
            instance, args.repeats, backend="shm", workers=workers
        )
        identical = np.array_equal(result.assignment, serial.assignment)
        if not identical:
            failures.append(
                f"workers={workers}: assignment differs from serial "
                "(must be byte-identical)"
            )
        speedup = serial_ms / wall_ms if wall_ms > 0 else float("inf")
        effective = result.extra.get("backend_effective")
        print(
            f"{args.instance}/shm-w{workers:<2d}     {wall_ms:9.3f} ms  "
            f"rounds={result.num_rounds}  speedup={speedup:5.2f}x  "
            f"identical={identical}  effective={effective}"
        )
        results[f"{args.instance}/shm-w{workers}"] = {
            "wall_ms": wall_ms,
            "rounds": result.num_rounds,
            "speedup": speedup,
            "identical": identical,
        }

    if not args.no_history:
        record = bench_history.make_record(
            PROFILE, cal, results, repo_root=REPO_ROOT
        )
        past = bench_history.load_history(args.history_dir, PROFILE)
        messages = bench_history.regression_messages(past, record)
        if messages and args.check:
            failures.extend(f"history regression: {m}" for m in messages)
        elif messages:
            for message in messages:
                print(f"warning: history regression: {message}")
        if not messages and not failures:
            path = bench_history.append_run(args.history_dir, PROFILE, record)
            print(f"history: appended run to {path}")
        else:
            print("history: run NOT appended")

    if failures:
        print("\nPARALLEL BENCH FAILED:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("\nparallel bench passed (assignments byte-identical to serial)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
