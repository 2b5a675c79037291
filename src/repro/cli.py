"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Generate a dataset, run one RMGP query and print the outcome
    (``--json`` for a machine-readable summary).
``profile``
    Run one query under a trace recorder and print the span tree;
    optionally export the ``repro-trace/v2`` JSONL, a Chrome
    (Perfetto-loadable) trace, and Prometheus text.  ``--memory``
    switches to the ``tracemalloc``-backed recorder and reports the
    top spans by peak heap allocation.
``trace``
    Print the paper's Table 1 best-response trace (``--jsonl`` /
    ``--chrome`` also write the recorded trace).
``analyze``
    Critical-path / straggler report of an exported JSONL trace
    (see :mod:`repro.obs.analysis`).
``figure``
    Regenerate one of the paper's evaluation figures as a text table.
``dataset``
    Generate a synthetic dataset, print its statistics, and optionally
    write the edge list / check-ins to disk.
``distributed``
    Run the decentralized game against fetch-and-execute once;
    ``--trace`` / ``--chrome`` export the causally-stitched
    cross-node trace, ``--analyze`` prints its critical path.
``churn``
    Feed a seeded random mutation stream through the incremental
    engine and compare sustained throughput, per-batch vertex
    movement, and equilibrium quality against re-solving from
    scratch; ``--differential`` additionally cross-checks every
    batch with the differential harness.
``serve``
    Run the partitioning service: an asyncio HTTP/JSON server with a
    bounded solve pool, an LRU instance store, per-request deadlines
    and cancellation, chunked progress streaming, ``/metrics``,
    per-request tracing and an always-on flight recorder
    (see ``docs/API.md`` § Serving).
``top``
    Live terminal console of one running server: polls ``/metrics``
    and ``/v1/health`` and renders queue depth, latency p50/p99,
    per-solver traffic and flight-recorder activity.
``flight``
    Inspect one flight-recorder dump: validate it against
    ``repro-trace/v2``, list the captured traces, and print the
    critical-path report of what the server was doing when the
    trigger fired.
``validate``
    Check one artifact file — a ``repro-trace`` JSONL trace or flight
    dump, a Chrome trace, a ``repro-result/v1`` payload or a
    ``repro-error/v1`` envelope — against its schema (exit 0 conforms,
    1 violations, 2 usage; see :mod:`repro.obs.validate`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.core.registry import SOLVERS

#: Registry names usable without extra arguments (cap/minpart need
#: capacities / min_participants, which the CLI does not collect).
_CLI_METHODS = sorted(
    name for name in SOLVERS
    if name not in ("cap", "capacitated", "minpart", "with_minimums")
)


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RMGP: real-time multi-criteria social graph partitioning",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="run one RMGP query")
    _add_dataset_arguments(solve)
    solve.add_argument(
        "--method",
        default="all",
        choices=_CLI_METHODS,
        help="algorithm variant (default: all)",
    )
    solve.add_argument("--alpha", type=float, default=0.5)
    solve.add_argument(
        "--normalize",
        default="pessimistic",
        choices=["none", "optimistic", "pessimistic"],
    )
    solve.add_argument("--top", type=int, default=5,
                       help="show the N most popular classes")
    solve.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON (result.to_dict()) instead of text",
    )
    solve.add_argument(
        "--deadline", type=float, metavar="SECONDS",
        help="real-time budget: stop at the first round boundary past "
             "this wall-clock deadline and report the best-so-far "
             "assignment (stop_reason='deadline')",
    )
    solve.add_argument(
        "--round-budget", type=float, metavar="SECONDS",
        help="per-round budget: stop once a round exceeds this",
    )
    solve.add_argument(
        "--checkpoint", metavar="PATH",
        help="write a resumable checkpoint here (periodically with "
             "--checkpoint-every, and always on interrupt)",
    )
    solve.add_argument(
        "--checkpoint-every", type=int, metavar="N",
        help="checkpoint every N rounds (requires --checkpoint)",
    )
    solve.add_argument(
        "--resume", metavar="PATH",
        help="resume a previously interrupted solve from this checkpoint",
    )

    profile = commands.add_parser(
        "profile", help="run one query under a trace recorder"
    )
    profile.add_argument(
        "--dataset",
        default="paper",
        choices=["gowalla", "foursquare", "paper"],
        help="workload; 'paper' is the running example of Figure 2",
    )
    profile.add_argument("--users", type=int, default=1000)
    profile.add_argument("--events", type=int, default=32)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--alpha", type=float, default=0.5)
    profile.add_argument(
        "--method", default="gt", choices=_CLI_METHODS,
        help="algorithm variant (default: gt)",
    )
    profile.add_argument(
        "--jsonl", metavar="PATH",
        help="write the repro-trace/v2 JSONL trace here",
    )
    profile.add_argument(
        "--metrics", metavar="PATH",
        help="write Prometheus-style metrics text here",
    )
    profile.add_argument(
        "--chrome", metavar="PATH",
        help="write a Chrome trace-event (Perfetto) JSON file here",
    )
    profile.add_argument(
        "--memory",
        action="store_true",
        help="profile heap allocation per span (tracemalloc; slower)",
    )

    trace = commands.add_parser("trace", help="print the Table 1 trace")
    trace.add_argument("--init", default="closest", choices=["closest", "random"])
    trace.add_argument(
        "--jsonl", metavar="PATH",
        help="also record the run and write the JSONL trace here",
    )
    trace.add_argument(
        "--chrome", metavar="PATH",
        help="also record the run and write a Chrome trace here",
    )

    analyze = commands.add_parser(
        "analyze", help="critical-path report of a JSONL trace"
    )
    analyze.add_argument("trace", help="repro-trace JSONL file to analyze")
    analyze.add_argument(
        "--top", type=int, default=12,
        help="critical-path steps to show (slowest first)",
    )

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "name",
        choices=[
            "table1", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12a", "fig12b", "fig12c", "fig13", "fig14",
        ],
    )
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument(
        "--chart",
        metavar="COLUMN",
        help="also render COLUMN as an ASCII bar chart",
    )
    figure.add_argument(
        "--trace",
        metavar="PATH",
        help="record the benchmark run and write the JSONL trace here",
    )

    dataset = commands.add_parser("dataset", help="generate a dataset")
    _add_dataset_arguments(dataset)
    dataset.add_argument("--edges-out", help="write the edge list here")
    dataset.add_argument("--checkins-out", help="write the check-ins here")

    distributed = commands.add_parser(
        "distributed", help="run DG vs FaE on a simulated cluster"
    )
    _add_dataset_arguments(distributed)
    distributed.add_argument("--slaves", type=int, default=2)
    distributed.add_argument(
        "--protocol", default="relayed", choices=["relayed", "peer"]
    )
    distributed.add_argument(
        "--trace", metavar="PATH",
        help="record the DG run and write the cross-node JSONL trace",
    )
    distributed.add_argument(
        "--chrome", metavar="PATH",
        help="record the DG run and write a Chrome trace-event file",
    )
    distributed.add_argument(
        "--analyze",
        action="store_true",
        help="print the critical-path / straggler report of the run",
    )

    stream = commands.add_parser(
        "stream", help="simulate the online (hourly) recommendation loop"
    )
    _add_dataset_arguments(stream)
    stream.add_argument("--epochs", type=int, default=5)
    stream.add_argument("--checkins-per-epoch", type=int, default=25)
    stream.add_argument("--movement-km", type=float, default=25.0)

    churn = commands.add_parser(
        "churn",
        help="run a mutation stream through the incremental engine and "
             "compare against re-solving from scratch",
    )
    churn.add_argument("--users", type=int, default=80)
    churn.add_argument("--events", type=int, default=6)
    churn.add_argument("--batches", type=int, default=5)
    churn.add_argument("--batch-size", type=int, default=8)
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--alpha", type=float, default=0.5)
    churn.add_argument(
        "--solver", default="gt", choices=_CLI_METHODS,
        help="from-scratch reference solver (default: gt)",
    )
    churn.add_argument(
        "--movement-penalty", type=float, metavar="W",
        help="switching-cost penalty: tax each shard move by W to trade "
             "equilibrium quality for less migration",
    )
    churn.add_argument(
        "--differential",
        action="store_true",
        help="also run the differential harness on the stream and "
             "report per-batch equivalence",
    )

    serve = commands.add_parser(
        "serve", help="run the HTTP/JSON partitioning service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8350,
        help="listen port (0 binds an ephemeral port; default: 8350)",
    )
    serve.add_argument(
        "--pool-size", type=int, default=4, metavar="N",
        help="worker threads running solves (default: 4)",
    )
    serve.add_argument(
        "--max-instances", type=int, default=8, metavar="N",
        help="resident instances in the LRU store (default: 8)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=256, metavar="N",
        help="finished jobs retained for polling (default: 256)",
    )
    serve.add_argument(
        "--default-deadline", type=float, metavar="SECONDS",
        help="deadline applied to requests that do not send one "
             "(default: unbounded)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="admission bound on queued (admitted, not yet running) "
             "jobs; past it requests get 429 + Retry-After (default: 64)",
    )
    serve.add_argument(
        "--admission-policy", default="reject",
        choices=["reject", "shed-expired"],
        help="full-queue policy: reject outright, or first shed queued "
             "requests whose deadline already elapsed (default: reject)",
    )
    serve.add_argument(
        "--interactive-weight", type=int, default=4, metavar="W",
        help="dequeue W interactive jobs per batch job when both "
             "classes are queued (default: 4)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-connection cap on reading the request head/body; "
             "stalled reads get 408 (default: 30)",
    )
    serve.add_argument(
        "--write-timeout", type=float, default=30.0, metavar="SECONDS",
        help="cap on one response/stream write; a stalled client "
             "connection is aborted (default: 30)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=5.0, metavar="SECONDS",
        help="graceful-shutdown budget: on SIGTERM in-flight solves get "
             "this long to finish as best-so-far results (default: 5)",
    )
    serve.add_argument(
        "--drain-checkpoint-dir", metavar="DIR",
        help="persist round-boundary checkpoints of jobs interrupted "
             "by a drain under DIR for post-restart resume "
             "(default: off)",
    )
    serve.add_argument(
        "--health-p99-ms", type=float, metavar="MS",
        help="report /v1/health status 'degraded' once the recent p99 "
             "request latency exceeds MS (default: off)",
    )
    serve.add_argument(
        "--no-trace", action="store_true",
        help="disable per-request tracing and the flight recorder "
             "(drops GET /v1/jobs/<id>/trace; default: tracing on)",
    )
    serve.add_argument(
        "--flight-dir", metavar="DIR",
        help="write flight-recorder dumps (repro-trace/v2 JSONL + "
             "metrics snapshot) under DIR on 5xx/shed/drain/overload "
             "triggers and POST /v1/debug/flight (default: off)",
    )
    serve.add_argument(
        "--flight-window", type=float, default=30.0, metavar="SECONDS",
        help="trailing seconds of completed spans one flight dump "
             "covers (default: 30)",
    )
    serve.add_argument(
        "--flight-debounce", type=float, default=30.0, metavar="SECONDS",
        help="minimum spacing between automatic flight dumps — an "
             "error storm produces one dump, not one per failure "
             "(default: 30)",
    )

    top = commands.add_parser(
        "top", help="live terminal console of a running server"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8350)
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default: 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit (scripting mode)",
    )
    top.add_argument(
        "--iterations", type=int, metavar="N",
        help="render N snapshots then exit (default: until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append screens instead of clearing the terminal",
    )

    flight = commands.add_parser(
        "flight", help="inspect a flight-recorder dump"
    )
    flight.add_argument(
        "dump", help="flight-*.trace.jsonl file written by the server"
    )

    validate = commands.add_parser(
        "validate", help="check an artifact file against its schema"
    )
    validate.add_argument(
        "path",
        help="trace JSONL, flight dump, Chrome trace, result payload or "
             "error envelope",
    )
    return parser


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="gowalla", choices=["gowalla", "foursquare"]
    )
    parser.add_argument("--users", type=int, default=1000)
    parser.add_argument("--events", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = build_parser().parse_args(argv)
    handler = {
        "solve": _run_solve,
        "profile": _run_profile,
        "trace": _run_trace,
        "analyze": _run_analyze,
        "figure": _run_figure,
        "dataset": _run_dataset,
        "distributed": _run_distributed,
        "stream": _run_stream,
        "churn": _run_churn,
        "serve": _run_serve,
        "top": _run_top,
        "flight": _run_flight,
        "validate": _run_validate,
    }[arguments.command]
    return handler(arguments)


# ----------------------------------------------------------------------
def _load(arguments):
    from repro.datasets import load_dataset

    return load_dataset(
        arguments.dataset,
        num_users=arguments.users,
        num_events=arguments.events,
        seed=arguments.seed,
    )


def _run_solve(arguments) -> int:
    from repro.core import RMGPGame

    data = _load(arguments)
    game = RMGPGame(
        data.graph, data.event_ids, data.cost_matrix(), alpha=arguments.alpha
    )
    normalize = None if arguments.normalize == "none" else arguments.normalize
    realtime_kwargs = {}
    if arguments.deadline is not None:
        realtime_kwargs["deadline_seconds"] = arguments.deadline
    if arguments.round_budget is not None:
        realtime_kwargs["round_budget_seconds"] = arguments.round_budget
    if arguments.checkpoint is not None:
        realtime_kwargs["checkpoint_path"] = arguments.checkpoint
    if arguments.checkpoint_every is not None:
        realtime_kwargs["checkpoint_every"] = arguments.checkpoint_every
    if arguments.resume is not None:
        realtime_kwargs["resume_from"] = arguments.resume
    result = game.solve(
        method=arguments.method, normalize_method=normalize,
        seed=arguments.seed, **realtime_kwargs,
    )
    if arguments.json:
        import json

        payload = result.to_dict()
        payload["dataset"] = {
            "name": data.name,
            "users": arguments.users,
            "events": arguments.events,
            "seed": arguments.seed,
            "normalize": arguments.normalize,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"dataset: {data.stats()}")
    print(result.summary())
    if not result.converged and result.stop_reason in ("deadline", "cancelled"):
        hint = (
            f" — resume with --resume {arguments.checkpoint}"
            if arguments.checkpoint else ""
        )
        print(f"interrupted: {result.stop_reason}{hint}")
    if game.normalization is not None:
        print(f"normalization: {game.normalization}")
    print(f"equilibrium: {game.verify(result)}")
    popularity: dict = {}
    for label in result.labels.values():
        popularity[label] = popularity.get(label, 0) + 1
    top = sorted(popularity.items(), key=lambda kv: -kv[1])[: arguments.top]
    print("most popular classes:")
    for label, count in top:
        print(f"  class {label}: {count} users")
    return 0


def _run_profile(arguments) -> int:
    from repro.api import partition
    from repro.obs import recording, summary_tree
    from repro.obs.exporters import prometheus_text, write_jsonl
    from repro.obs.memory import memory_recording, memory_summary

    if arguments.dataset == "paper":
        from repro.datasets import paper_example_instance

        instance = paper_example_instance(alpha=arguments.alpha)
        print("dataset: paper running example (Figure 2)")
    else:
        from repro.core import RMGPInstance
        from repro.core.normalization import normalize

        data = _load(arguments)
        print(f"dataset: {data.stats()}")
        instance = RMGPInstance(
            data.graph, data.event_ids, data.cost_matrix(),
            alpha=arguments.alpha,
        )
        instance, _ = normalize(instance, "pessimistic")
    record = memory_recording if arguments.memory else recording
    with record() as recorder:
        result = partition(
            instance, solver=arguments.method, seed=arguments.seed
        )
    print(result.summary())
    print()
    print(summary_tree(recorder))
    if arguments.memory:
        print()
        print(memory_summary(recorder))
    if arguments.jsonl:
        count = write_jsonl(recorder, arguments.jsonl)
        print(f"trace: {count} records written to {arguments.jsonl}")
    if arguments.metrics:
        with open(arguments.metrics, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(recorder.metrics))
        print(f"metrics written to {arguments.metrics}")
    if arguments.chrome:
        from repro.obs.chrome import write_chrome_trace

        count = write_chrome_trace(recorder, arguments.chrome)
        print(f"chrome trace: {count} events written to {arguments.chrome}")
    return 0


def _run_trace(arguments) -> int:
    from repro.bench.fig_table1 import run_table1

    if arguments.jsonl or arguments.chrome:
        from repro.obs import recording
        from repro.obs.exporters import write_jsonl

        with recording() as recorder:
            table = run_table1(init=arguments.init)
        print(table)
        if arguments.jsonl:
            count = write_jsonl(recorder, arguments.jsonl)
            print(f"trace: {count} records written to {arguments.jsonl}")
        if arguments.chrome:
            from repro.obs.chrome import write_chrome_trace

            count = write_chrome_trace(recorder, arguments.chrome)
            print(
                f"chrome trace: {count} events written to {arguments.chrome}"
            )
        return 0
    print(run_table1(init=arguments.init))
    return 0


def _echo(text: str) -> None:
    """``print`` that escapes what UTF-8 cannot encode: lone surrogates
    from JSON ``\\ud800`` escapes or undecodable file names."""
    print(text.encode("utf-8", "backslashreplace").decode("utf-8"))


def _print_violations(
    path: str, errors: List[str], what: str = "schema violation(s)"
) -> None:
    _echo(f"{path}: {len(errors)} {what}")
    for error in errors:
        _echo(f"  - {error}")


def _read_trace(path: str):
    """Records of a schema-valid trace file the analysis can read, or
    None after listing what is wrong with it."""
    from repro.obs.analysis import analysis_errors
    from repro.obs.schema import validate_records
    from repro.obs.validate import read_artifact

    records, errors = read_artifact(path)
    errors = errors or validate_records(records)
    if errors:
        _print_violations(path, errors)
        return None
    errors = analysis_errors(records)
    if errors:
        _print_violations(path, errors, "span(s) the analysis cannot read")
        return None
    return records


def _run_analyze(arguments) -> int:
    from repro.obs.analysis import analyze_records, format_report

    records = _read_trace(arguments.trace)
    if records is None:
        return 1
    _echo(format_report(analyze_records(records), max_path=arguments.top))
    return 0


def _run_figure(arguments) -> int:
    from repro import bench

    runners = {
        "table1": bench.run_table1,
        "fig7": bench.run_fig7,
        "fig8": bench.run_fig8,
        "fig9": bench.run_fig9,
        "fig10": bench.run_fig10,
        "fig11": bench.run_fig11,
        "fig12a": bench.run_fig12_vs_k,
        "fig12b": bench.run_fig12_vs_alpha,
        "fig12c": bench.run_fig12_per_round,
        "fig13": bench.run_fig13,
        "fig14": bench.run_fig14,
    }
    runner = runners[arguments.name]

    def _render() -> None:
        table = (
            runner() if arguments.name == "table1"
            else runner(seed=arguments.seed)
        )
        print(table)
        if getattr(arguments, "chart", None):
            from repro.bench.ascii import table_chart

            print()
            print(table_chart(table, arguments.chart))

    if getattr(arguments, "trace", None):
        from repro.obs import recording
        from repro.obs.exporters import write_jsonl

        with recording() as recorder:
            _render()
        count = write_jsonl(recorder, arguments.trace)
        print(f"trace: {count} records written to {arguments.trace}")
    else:
        _render()
    return 0


def _run_dataset(arguments) -> int:
    from repro.graph import write_checkins, write_edge_list

    data = _load(arguments)
    print(f"{data.name}: {data.stats()}")
    print(f"events: {len(data.events)}")
    if arguments.edges_out:
        write_edge_list(data.graph, arguments.edges_out)
        print(f"edge list written to {arguments.edges_out}")
    if arguments.checkins_out:
        write_checkins(data.checkins, arguments.checkins_out)
        print(f"check-ins written to {arguments.checkins_out}")
    return 0


def _run_distributed(arguments) -> int:
    from repro.distributed import DGQuery, build_cluster, hash_partition, run_fae

    data = _load(arguments)
    print(f"dataset: {data.stats()}")
    shards = hash_partition(data.graph.nodes(), arguments.slaves)
    query = DGQuery(events=data.events, alpha=0.5, seed=arguments.seed)
    cluster = build_cluster(
        data, num_slaves=arguments.slaves, shards=shards,
        protocol=arguments.protocol,
    )
    tracing = arguments.trace or arguments.chrome or arguments.analyze
    if tracing:
        from repro.obs import recording

        with recording() as recorder:
            dg = cluster.game.run(query)
    else:
        dg = cluster.game.run(query)
    print(
        f"DG[{arguments.protocol}]: rounds={dg.num_rounds} "
        f"time={dg.total_seconds:.3f}s bytes={dg.total_bytes:,} "
        f"messages={dg.total_messages}"
    )
    if arguments.trace:
        from repro.obs.exporters import write_jsonl

        count = write_jsonl(recorder, arguments.trace)
        print(f"trace: {count} records written to {arguments.trace}")
    if arguments.chrome:
        from repro.obs.chrome import write_chrome_trace

        count = write_chrome_trace(recorder, arguments.chrome)
        print(f"chrome trace: {count} events written to {arguments.chrome}")
    if arguments.analyze:
        from repro.obs.analysis import analyze_recorder, format_report

        print()
        print(format_report(analyze_recorder(recorder)))
    fae = run_fae(data.graph, data.checkins, shards, query, seed=arguments.seed)
    print(
        f"FaE: transfer={fae.transfer_seconds:.3f}s "
        f"({fae.transfer_bytes:,} bytes) "
        f"execution={fae.execution_seconds:.3f}s total={fae.total_seconds:.3f}s"
    )
    return 0


def _run_stream(arguments) -> int:
    from repro.apps import StreamingRecommender, simulate_stream

    data = _load(arguments)
    print(f"dataset: {data.stats()}")
    recommender = StreamingRecommender(
        data.graph, data.checkins, data.events, seed=arguments.seed
    )
    history = simulate_stream(
        recommender,
        epochs=arguments.epochs,
        checkins_per_epoch=arguments.checkins_per_epoch,
        movement_km=arguments.movement_km,
        seed=arguments.seed,
    )
    print("epoch  checkins  deviations  rounds  reassigned  objective")
    for stats in history:
        print(
            f"{stats.epoch:5d}  {stats.checkins_ingested:8d}  "
            f"{stats.deviations:10d}  {stats.rounds:6d}  "
            f"{stats.users_reassigned:10d}  {stats.objective_total:9.1f}"
        )
    return 0


def _run_churn(arguments) -> int:
    from repro.bench.churn import churn_instance, run_churn

    run = run_churn(
        num_users=arguments.users,
        num_events=arguments.events,
        num_batches=arguments.batches,
        batch_size=arguments.batch_size,
        seed=arguments.seed,
        alpha=arguments.alpha,
        scratch_solver=arguments.solver,
        movement_penalty=arguments.movement_penalty,
    )
    print(run)
    if arguments.differential:
        from repro.streaming import differential_check, random_mutation_stream

        base = churn_instance(
            arguments.users, arguments.events,
            seed=arguments.seed, alpha=arguments.alpha,
        )
        stream = random_mutation_stream(
            base, arguments.batches * arguments.batch_size,
            seed=arguments.seed,
        )
        batches = [
            stream[i * arguments.batch_size : (i + 1) * arguments.batch_size]
            for i in range(arguments.batches)
        ]
        report = differential_check(
            base, batches, solver=arguments.solver, seed=arguments.seed,
            movement_penalty=arguments.movement_penalty,
        )
        print()
        print(f"differential: {report}")
        if not report.ok:
            return 1
    return 0


def _run_serve(arguments) -> int:
    from repro.serve import ServeConfig
    from repro.serve.server import run

    run(
        ServeConfig(
            host=arguments.host,
            port=arguments.port,
            pool_size=arguments.pool_size,
            max_instances=arguments.max_instances,
            max_jobs=arguments.max_jobs,
            max_queue=arguments.max_queue,
            admission_policy=arguments.admission_policy,
            interactive_weight=arguments.interactive_weight,
            read_timeout_seconds=arguments.read_timeout,
            write_timeout_seconds=arguments.write_timeout,
            drain_grace_seconds=arguments.drain_grace,
            drain_checkpoint_dir=arguments.drain_checkpoint_dir,
            default_deadline_seconds=arguments.default_deadline,
            health_p99_ms=arguments.health_p99_ms,
            trace_requests=not arguments.no_trace,
            flight_dir=arguments.flight_dir,
            flight_window_seconds=arguments.flight_window,
            flight_debounce_seconds=arguments.flight_debounce,
        )
    )
    return 0


def _run_top(arguments) -> int:
    from repro.serve.console import run_top

    iterations = arguments.iterations
    if arguments.once:
        iterations = 1
    return run_top(
        host=arguments.host,
        port=arguments.port,
        interval=arguments.interval,
        iterations=iterations,
        clear=not arguments.no_clear,
    )


def _run_flight(arguments) -> int:
    from repro.obs.exporters import SCHEMA_VERSION
    from repro.obs.flight import inspect_dump

    records = _read_trace(arguments.dump)
    if records is None:
        return 1
    _echo(f"flight dump: {arguments.dump}")
    _echo(f"schema: valid {SCHEMA_VERSION}")
    _echo(inspect_dump(records))
    return 0


def _run_validate(arguments) -> int:
    from repro.obs.validate import validate_file

    errors = validate_file(arguments.path)
    if errors:
        _print_violations(arguments.path, errors)
        return 1
    _echo(f"{arguments.path}: conforms")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
