"""Steadiness check: run the benchmark over several seeds and report,
per workload and end-to-end metric, the median and the spread between
the first and third quartile as a share of the median, next to the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads query,cold --seeds 1-5

Runs are interleaved (seed by seed, every workload in turn) so a slow
stretch of the machine lands on all workloads alike.  ``--out`` keeps
every run's result line and speed factors as JSONL for a later
``--compare``, which reports the change of each median between two
such files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload: str, seed: int, seconds: int) -> dict:
    command = _spec()["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    began = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed,
                  run_seconds=time.perf_counter() - began,
                  speed=_speed_factors(lines))
    return result


def _speed_factors(lines) -> dict:
    """``{stage: factor}`` from a run's ``phase=speed`` report lines."""
    factors = {}
    for line in lines:
        fields = dict(
            part.split("=", 1) for part in line.split()[1:] if "=" in part
        )
        if fields.get("phase") == "speed":
            factors[fields["stage"]] = float(fields["factor"])
    return factors


def _summary(rows):
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    table = {}
    for workload, runs in by_workload.items():
        table[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = mid
            table[workload][name] = {
                "median": mid,
                "spread": (q3 - q1) / mid if mid else 0.0,
                "bound": bound,
            }
        table[workload]["wall_s"] = statistics.median(
            r["run_seconds"] for r in runs
        )
        table[workload]["all_correct"] = all(r["correct"] for r in runs)
    return table


def _load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in _spec()["workloads"]),
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=_spec()["run_seconds"])
    parser.add_argument("--out", help="append each run's result here")
    parser.add_argument("--compare", nargs=2, metavar="JSONL",
                        help="compare the medians of two --out files")
    args = parser.parse_args()

    if args.compare:
        first, second = (_summary(_load(p)) for p in args.compare)
        for workload in first:
            for name, stats in first[workload].items():
                if not isinstance(stats, dict):
                    continue
                later = second[workload][name]["median"]
                change = (later - stats["median"]) / stats["median"]
                print(f"{workload:6s} {name:16s} {stats['median']:12.4f} "
                      f"-> {later:12.4f}  {change:+.1%} "
                      f"(bound {stats['bound']:.0%})")
        return 0

    rows = []
    for seed in _seeds(args.seeds):
        for workload in args.workloads.split(","):
            row = _run(workload, seed, args.seconds)
            rows.append(row)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as f:
                    f.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in row["metrics"].items())
                  + " speed=" + ",".join(
                      f"{k}:{v:.3f}" for k, v in row["speed"].items()),
                  flush=True)
    for workload, metrics in _summary(rows).items():
        print(f"\n{workload} (median run {metrics.pop('wall_s'):.0f} s, "
              f"all correct: {metrics.pop('all_correct')})")
        for name, stats in metrics.items():
            flag = "" if stats["spread"] <= stats["bound"] / 3 else "  !"
            print(f"  {name:16s} median {stats['median']:12.4f}  "
                  f"spread {stats['spread']:6.1%}  "
                  f"bound {stats['bound']:.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
