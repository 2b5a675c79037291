"""The repository benchmark: one command, one named workload.

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads (see README.md):

* ``query`` / ``solve`` / ``cold`` — served, against a separate
  ``python -m repro serve --pool-size 1`` process over HTTP;
* ``churn`` — in-process, ``MutationFeed.apply`` batches.

Every answer is checked by the oracle in ``oracle.py``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it report the environment, each phase's
requests sent/succeeded/failed, the tail percentile and its sample
count.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("query", "solve", "cold", "churn")


def _terminate(signum, frame):
    # Unwind through the workloads' finally blocks, which stop the
    # server process.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program under {src}; run from a checkout "
              "of the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, src)
    signal.signal(signal.SIGTERM, _terminate)

    from measure import environment
    from outcome import report

    report(workload=args.workload, seed=args.seed, seconds=args.seconds,
           trace=args.trace, **environment(ROOT))
    if args.workload == "churn":
        import churn as workload
    else:
        import served as workload
    outcome = workload.run(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    missing = [m["name"] for m in expected if m["name"] not in outcome.metrics]
    if missing:
        print(f"perfbench: workload did not measure {missing}",
              file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
            for m in expected
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
