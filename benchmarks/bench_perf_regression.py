#!/usr/bin/env python3
"""Perf-regression harness for the core best-response solvers.

Measures end-to-end wall time, round counts and final assignments of the
four solver kernels (RMGP_b / RMGP_is / RMGP_gt / RMGP_vec) on
fixed-seed fig8-scale instances and compares them against the committed
numbers in ``benchmarks/BENCH_core.json``:

* ``--check``   exit non-zero when a solver got more than
                ``--max-slowdown`` times slower (calibration-normalized,
                see below) or its round count drifted;
* ``--update``  re-measure on this machine and rewrite the ``after``
                numbers (the ``baseline`` block — the pre-CSR seed —
                is never touched).

Wall-clock numbers are not portable across machines, so the harness also
times a fixed pure-numpy *calibration workload* and compares the ratio
``solver_ms / calibration_ms`` instead of raw milliseconds.  Round
counts and assignment hashes are deterministic (fixed seeds), so those
are compared exactly — a hash mismatch is reported as a warning by
default (cross-platform float differences can legitimately flip an
argmin tie) and as a failure under ``--strict``.

Every ``--check`` run is also appended to the bench-history store
(``benchmarks/history/<profile>.jsonl`` — commit SHA, calibration time,
normalized ratios; see :mod:`repro.bench.history`) and compared against
the accumulated history with a statistical gate: a key whose normalized
time exceeds mean + 3*stdev *and* 1.2x the historical mean is reported
(a warning by default, a failure under ``--history-check``).  Runs that
trip the gate are not appended, so a regression cannot drag the
baseline up; ``--no-history`` skips the store entirely.

Run via ``make bench-perf`` or directly::

    python benchmarks/bench_perf_regression.py --check --profile core
    python benchmarks/bench_perf_regression.py --update
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import partition  # noqa: E402
from repro.bench import history as bench_history  # noqa: E402
from repro.bench.workloads import instance_for, small_uml_dataset  # noqa: E402
from repro.core.normalization import normalize  # noqa: E402

BENCH_FILE = REPO_ROOT / "benchmarks" / "BENCH_core.json"
SCHEMA = "bench-core/v1"

#: Fixed-seed fig8-scale instances (Forest-Fire Gowalla slices, 7 events,
#: pessimistic normalization — the Figure 8 recipe).
INSTANCES = {
    "fig8-tiny": {"num_users": 80, "num_events": 7, "seed": 0, "alpha": 0.5},
    "fig8-medium": {"num_users": 300, "num_events": 7, "seed": 0, "alpha": 0.5},
}

PROFILES = {
    "smoke": ["fig8-tiny"],
    "core": ["fig8-tiny", "fig8-medium"],
}

SOLVERS = {
    "RMGP_vec": lambda inst: partition(
        inst, solver="vec", init="closest", seed=0
    ),
    "RMGP_gt": lambda inst: partition(
        inst, solver="gt", init="closest", order="given", seed=0
    ),
    "RMGP_b": lambda inst: partition(
        inst, solver="b", init="closest", order="given", seed=0
    ),
    "RMGP_is": lambda inst: partition(
        inst, solver="is", init="closest", order="given", seed=0
    ),
    "RMGP_b_rand": lambda inst: partition(
        inst, solver="b", init="random", order="random", seed=0
    ),
}


def build_instance(name: str):
    spec = INSTANCES[name]
    dataset = small_uml_dataset(
        num_users=spec["num_users"],
        num_events=spec["num_events"],
        seed=spec["seed"],
    )
    instance, _ = normalize(
        instance_for(dataset, alpha=spec["alpha"]), "pessimistic"
    )
    return instance


def calibration_ms(repeats: int) -> float:
    """Best-of-N wall time of a fixed numpy workload (machine speed probe).

    Gather + bincount + sort — the same primitive mix the solver kernels
    lean on, and empirically far more stable run-to-run than a
    BLAS-backed matmul probe.
    """
    rng = np.random.default_rng(0)
    values = rng.standard_normal(200_000)
    idx = rng.integers(0, 200_000, 200_000)
    best = float("inf")
    for _ in range(max(repeats, 3) + 1):  # +1: first lap doubles as warmup
        start = time.perf_counter()
        acc = values.copy()
        for _ in range(6):
            acc = np.sqrt(np.abs(acc[idx])) + 0.5
            np.bincount(idx % 512, weights=acc, minlength=512)
        acc.argsort(kind="stable")
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def measure(name: str, instance, repeats: int) -> dict:
    solve = SOLVERS[name]
    solve(instance)  # untimed warmup: numpy buffers, branch caches
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = solve(instance)
        best = min(best, time.perf_counter() - start)
    sha = hashlib.sha256(
        np.asarray(result.assignment, dtype=np.int64).tobytes()
    ).hexdigest()
    return {
        "wall_ms": best * 1e3,
        "rounds": result.num_rounds,
        "deviations": sum(r.deviations for r in result.rounds),
        "assignment_sha256": sha,
    }


def run_update(args) -> int:
    committed = (
        json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else {}
    )
    entries = committed.get("entries", {})
    cal = calibration_ms(args.repeats)
    for instance_name in PROFILES["core"]:
        instance = build_instance(instance_name)
        for solver in SOLVERS:
            key = f"{instance_name}/{solver}"
            measured = measure(solver, instance, args.repeats)
            entry = entries.setdefault(key, {})
            entry["after"] = measured
            print(
                f"{key:26s} {measured['wall_ms']:8.3f} ms  "
                f"rounds={measured['rounds']}"
            )
    payload = {
        "schema": SCHEMA,
        "description": (
            "Committed perf numbers for the core solver kernels; "
            "'baseline' is the pre-CSR/pre-frontier seed, 'after' is the "
            "current code.  Regenerate 'after' with "
            "`python benchmarks/bench_perf_regression.py --update`."
        ),
        "calibration_ms": cal,
        "instances": INSTANCES,
        "entries": entries,
    }
    # Preserve any existing baseline blocks and metadata notes.
    for extra in ("baseline_commit",):
        if extra in committed:
            payload[extra] = committed[extra]
    BENCH_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {BENCH_FILE} (calibration {cal:.3f} ms)")
    return 0


def run_check(args) -> int:
    if not BENCH_FILE.exists():
        print(f"error: {BENCH_FILE} missing — run with --update first")
        return 2
    committed = json.loads(BENCH_FILE.read_text())
    if committed.get("schema") != SCHEMA:
        print(f"error: unexpected schema {committed.get('schema')!r}")
        return 2
    committed_cal = float(committed["calibration_ms"])
    cal = calibration_ms(args.repeats)
    print(
        f"calibration: {cal:.3f} ms here vs {committed_cal:.3f} ms committed"
    )
    failures = []
    warnings = []
    run_results = {}
    for instance_name in PROFILES[args.profile]:
        instance = build_instance(instance_name)
        for solver in SOLVERS:
            key = f"{instance_name}/{solver}"
            entry = committed.get("entries", {}).get(key)
            if entry is None or "after" not in entry:
                warnings.append(f"{key}: no committed numbers — skipped")
                continue
            expected = entry["after"]
            measured = measure(solver, instance, args.repeats)
            run_results[key] = {
                "wall_ms": measured["wall_ms"],
                "rounds": measured["rounds"],
            }
            ratio_now = measured["wall_ms"] / cal
            ratio_committed = expected["wall_ms"] / committed_cal
            slowdown = ratio_now / ratio_committed
            status = "ok"
            if measured["rounds"] != expected["rounds"]:
                status = "ROUNDS DRIFT"
                failures.append(
                    f"{key}: rounds {measured['rounds']} != committed "
                    f"{expected['rounds']} (fixed seed — must be exact)"
                )
            if slowdown > args.max_slowdown:
                status = "SLOW"
                failures.append(
                    f"{key}: {slowdown:.2f}x slower than committed "
                    f"(normalized {ratio_now:.3f} vs {ratio_committed:.3f}, "
                    f"threshold {args.max_slowdown}x)"
                )
            if measured["assignment_sha256"] != expected["assignment_sha256"]:
                message = (
                    f"{key}: assignment hash drifted "
                    f"({measured['assignment_sha256'][:12]}… vs "
                    f"{expected['assignment_sha256'][:12]}…)"
                )
                if args.strict:
                    status = "HASH DRIFT"
                    failures.append(message)
                else:
                    warnings.append(message + " [warning: platform floats]")
            print(
                f"{key:26s} {measured['wall_ms']:8.3f} ms  "
                f"(committed {expected['wall_ms']:8.3f} ms, "
                f"norm slowdown {slowdown:4.2f}x)  {status}"
            )
    history_messages = []
    if not args.no_history:
        record = bench_history.make_record(
            args.profile, cal, run_results, repo_root=REPO_ROOT
        )
        past = bench_history.load_history(args.history_dir, args.profile)
        history_messages = bench_history.regression_messages(
            past, record, min_samples=args.min_history
        )
        ungated = bench_history.ungated_keys(
            past, record, min_samples=args.min_history
        )
        for key, count in ungated.items():
            print(
                f"history: {key} not gated ({count} prior runs < "
                f"--min-history {args.min_history})"
            )
        sink = failures if args.history_check else warnings
        for message in history_messages:
            sink.append(f"history regression: {message}")
        if not history_messages:
            path = bench_history.append_run(
                args.history_dir, args.profile, record
            )
            print(f"history: appended run to {path}")
        else:
            print("history: run NOT appended (regression suspected)")
    for message in warnings:
        print(f"warning: {message}")
    if failures:
        print("\nPERF REGRESSION CHECK FAILED:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("\nperf regression check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check", action="store_true", help="compare against BENCH_core.json"
    )
    mode.add_argument(
        "--update",
        action="store_true",
        help="re-measure and rewrite the 'after' numbers",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="core",
        help="instance set to run (smoke = tiny only, for CI)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="calibration-normalized slowdown that fails the check",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat assignment-hash drift as a failure, not a warning",
    )
    parser.add_argument(
        "--history-dir",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "history",
        help="bench-history store location",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip the bench-history store entirely",
    )
    parser.add_argument(
        "--history-check",
        action="store_true",
        help="fail (not just warn) on a statistical history regression",
    )
    parser.add_argument(
        "--min-history",
        type=int,
        default=3,
        help="history samples needed before the statistical gate arms",
    )
    args = parser.parse_args(argv)
    return run_update(args) if args.update else run_check(args)


if __name__ == "__main__":
    raise SystemExit(main())
