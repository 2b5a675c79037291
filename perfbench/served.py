"""Served workloads: ``query``, ``solve`` and ``cold`` against a separate
``python -m repro serve --pool-size 1`` process.

Load is closed-loop: each of ``connections`` client threads sends its
next request only after the previous reply, over one keep-alive
``http.client`` connection.  Request bodies are generated from the seed
and encoded before any clock starts; replies are stored raw and parsed
only after the timed phase, so the generator stays light (its CPU share
is reported).

Untraced runs measure the end-to-end metrics.  The traced run spends
the first half of its time untraced (envelope-derived layer numbers and
the untraced p50) and the second half with benchmark spans around each
request plus a ``GET /v1/jobs/<id>/trace`` after it, then replays the
request's layers in-process under spans (see :mod:`oracle`).
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from measure import (
    BLOCK_SECONDS,
    Speed,
    block_rate,
    median,
    peak_rss_mb,
    process_cpu_seconds,
    self_times,
    tail,
)
from oracle import Reference, build_instance, check_served, reference
from outcome import Outcome, report

#: The query workload's alpha grid; 0.5 (the resident default) is
#: excluded so every query request clones its instance.
ALPHA_GRID = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)
#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Generated timed requests per second of run time, far above any rate
#: the server reaches, so a run never exhausts its plan.
PLAN_RATE = 500
#: ``peak_rss_mb`` is read when this many timed requests have been
#: answered.  The server retains up to 256 finished jobs, so its RSS
#: grows with the request count; a fixed count keeps the metric from
#: depending on how fast the run went.
RSS_AFTER = 48
#: Repetitions of the microsecond-scale wire validation replay.
VALIDATE_REPS = 200
SOLVE_PATH = "/v1/solve"
HEADERS = {"Content-Type": "application/json"}
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)/v1")


@dataclass(frozen=True)
class ServedWorkload:
    name: str
    users: int
    events: int
    connections: int
    #: Resident graphs; 0 means every request names a fresh graph.
    graphs: int
    alphas: Tuple[Optional[float], ...]
    tail_cap: float
    warmup: int
    #: Timed requests checked against an in-process reference (None =
    #: every distinct request).
    verify_first: Optional[int] = None


WORKLOADS = {
    "query": ServedWorkload(
        "query", users=3000, events=128, connections=2, graphs=3,
        alphas=ALPHA_GRID, tail_cap=90.0, warmup=16,
    ),
    "solve": ServedWorkload(
        "solve", users=3000, events=128, connections=1, graphs=3,
        alphas=(None,), tail_cap=90.0, warmup=16,
    ),
    "cold": ServedWorkload(
        "cold", users=600, events=16, connections=1, graphs=0,
        alphas=(None,), tail_cap=80.0, warmup=3, verify_first=8,
    ),
}


@dataclass(frozen=True)
class Request:
    graph_seed: int
    alpha: Optional[float]
    body: bytes

    @property
    def key(self) -> Tuple[int, Optional[float]]:
        return (self.graph_seed, self.alpha)


@dataclass
class Plan:
    """Every request of one run, fixed by the seed before timing."""

    setup: List[Request]
    warmup: List[Request]
    timed: List[Request]


def _request(w: ServedWorkload, graph_seed: int, alpha=None) -> Request:
    payload: Dict[str, Any] = {
        "instance": {
            "dataset": "gowalla",
            "users": w.users,
            "events": w.events,
            "seed": graph_seed,
        },
        "solver": "gt",
    }
    if alpha is not None:
        payload["options"] = {"alpha": alpha}
    return Request(graph_seed, alpha, json.dumps(payload).encode())


def make_plan(w: ServedWorkload, seed: int, seconds: int) -> Plan:
    rng = random.Random(f"{w.name}/{seed}")
    count = seconds * PLAN_RATE
    if w.graphs == 0:
        seeds = rng.sample(range(10**6, 10**8), 1 + w.warmup + count)
        return Plan(
            setup=[_request(w, seeds[0])],
            warmup=[_request(w, s) for s in seeds[1 : 1 + w.warmup]],
            timed=[_request(w, s) for s in seeds[1 + w.warmup :]],
        )
    graphs = rng.sample(range(1, 10**6), w.graphs)
    combos = [_request(w, g, a) for g in graphs for a in w.alphas]
    timed: List[Request] = []
    while len(timed) < count:
        cycle = list(combos)
        rng.shuffle(cycle)
        timed.extend(cycle)
    warmup = [combos[i % len(combos)] for i in range(w.warmup)]
    return Plan(
        setup=[_request(w, g) for g in graphs],
        warmup=warmup,
        timed=timed[:count],
    )


class Server:
    """One ``repro serve`` child process (stopped by :meth:`stop`)."""

    def __init__(self, root: str, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--port", "0", "--pool-size", "1"],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: "deque[str]" = deque(maxlen=200)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._await_port(timeout)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line.rstrip())
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(deadline - time.monotonic(), 0.01)
                )
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(
                    "repro serve did not start: "
                    + " | ".join(self.output)
                )
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


class Client:
    """One keep-alive connection; transport errors become status 0."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        try:
            self.conn.request(method, path, body=body, headers=HEADERS)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            return 0, repr(exc).encode()

    def close(self) -> None:
        self.conn.close()


@dataclass
class Op:
    index: int
    latency: float
    status: int
    raw: bytes
    #: The load block the request was sent in.
    block: int = 0
    decode: float = 0.0
    server_records: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    envelope: Optional[Dict[str, Any]] = None


@dataclass
class Phase:
    ops: List[Op]
    #: Seconds of load in each block (speed-reading pauses excluded).
    blocks: List[float]
    client_cpu: float
    server_cpu: float
    exhausted: bool
    #: Server VmHWM (MiB) once RSS_AFTER requests were answered.
    rss: Optional[float] = None
    recorders: List[Any] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.blocks)

    def ok(self) -> List[Op]:
        return [op for op in self.ops if not op.failures]

    def latencies_ms(self, factor: float = 1.0) -> List[float]:
        """Per-request latency, times ``factor``.  A failed request
        misses any latency limit: it is charged the whole phase."""
        return [
            (op.latency if not op.failures else self.elapsed) * factor * 1e3
            for op in self.ops
        ]

    def rate(self, factor: float = 1.0) -> float:
        """Verified-correct requests per second of load (median over
        blocks), for times scaled by ``factor``."""
        counts = [0] * len(self.blocks)
        for op in self.ok():
            counts[op.block] += 1
        return block_rate(counts, self.blocks) / factor


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_phase(
    server: Server,
    clients: Sequence[Client],
    requests: Sequence[Request],
    start: int,
    seconds: float,
    speed: Speed,
    traced: bool = False,
) -> Phase:
    """Closed loop over ``requests[start:]`` for ``seconds`` of load.

    The load runs in blocks of ``BLOCK_SECONDS``.  After each block the
    connections go idle while ``speed`` takes a reading; the pause is
    off the clock.
    """
    from repro.obs.recorder import TraceRecorder

    lock = threading.Lock()
    cursor = [start]
    ops: List[Op] = []
    rss: List[float] = []
    blocks: List[float] = []

    def record(op: Op) -> None:
        with lock:
            ops.append(op)
            if len(ops) >= RSS_AFTER and not rss:
                rss.append(peak_rss_mb(server.pid))
    recorders = [TraceRecorder() if traced else None for _ in clients]
    clock = time.perf_counter

    def loop(client: Client, rec, block: int, deadline: float) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests) or clock() >= deadline:
                    return
                cursor[0] += 1
            body = requests[index].body
            if rec is None:
                sent = clock()
                status, raw = client.call("POST", SOLVE_PATH, body)
                record(Op(index, clock() - sent, status, raw, block))
                continue
            with rec.span("client.request", index=index) as whole:
                with rec.span("client.http"):
                    status, raw = client.call("POST", SOLVE_PATH, body)
                with rec.span("client.decode") as decode:
                    envelope = json.loads(raw) if status == 200 else None
            op = Op(index, whole.duration, status, raw, block,
                    decode.duration)
            if envelope is not None:
                got, trace = client.call(
                    "GET", f"/v1/jobs/{envelope['job']}/trace"
                )
                if got == 200:
                    op.server_records = [
                        json.loads(line)
                        for line in trace.decode().splitlines()
                        if line.strip()
                    ]
            record(op)

    client_cpu = 0.0
    server0 = process_cpu_seconds(server.pid)
    while sum(blocks) < seconds and cursor[0] < len(requests):
        length = min(BLOCK_SECONDS, seconds - sum(blocks))
        cpu0 = _cpu_self()
        began = clock()
        threads = [
            threading.Thread(
                target=loop,
                args=(client, rec, len(blocks), began + length),
                daemon=True,
            )
            for client, rec in zip(clients, recorders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        blocks.append(clock() - began)
        client_cpu += _cpu_self() - cpu0
        speed.read("load")
    ops.sort(key=lambda op: op.index)
    return Phase(
        ops=ops,
        blocks=blocks,
        client_cpu=client_cpu,
        server_cpu=process_cpu_seconds(server.pid) - server0,
        exhausted=cursor[0] >= len(requests),
        rss=rss[0] if rss else peak_rss_mb(server.pid),
        recorders=[r for r in recorders if r is not None],
    )


def setup_server(root: str, plan: Plan) -> Server:
    """Spawn a server and bring its resident graphs up by answering
    every setup request (one per resident graph, or one cold graph)."""
    server = Server(root)
    try:
        client = Client(server.port)
        for request in plan.setup:
            status, raw = client.call("POST", SOLVE_PATH, request.body)
            if status != 200:
                raise RuntimeError(f"setup request failed: {status} {raw!r}")
        client.close()
    except BaseException:
        server.stop()
        raise
    return server


def warm(clients: Sequence[Client], plan: Plan) -> Tuple[int, int]:
    """Uncounted warm-up requests; ``(sent, failed)``."""
    failed = 0
    for client in clients:
        status, _ = client.call("GET", "/v1/health")
        failed += status != 200
    for request in plan.warmup:
        status, _ = clients[0].call("POST", SOLVE_PATH, request.body)
        failed += status != 200
    return len(plan.warmup) + len(clients), failed


def verify(
    w: ServedWorkload,
    plan: Plan,
    phases: Sequence[Phase],
    rec,
) -> Dict[Tuple[int, Optional[float]], Reference]:
    """Run the oracle over every op; returns the references used."""
    ops = [op for phase in phases for op in phase.ops]
    if w.verify_first is None:
        keys = sorted({plan.timed[op.index].key for op in ops},
                      key=lambda k: (k[0], -1.0 if k[1] is None else k[1]))
    else:
        keys = [plan.timed[i].key for i in range(w.verify_first)]
    instances = {}
    refs: Dict[Tuple[int, Optional[float]], Reference] = {}
    for graph_seed, alpha in keys:
        if graph_seed not in instances:
            instances[graph_seed] = build_instance(
                w.users, w.events, graph_seed, rec
            )
        refs[(graph_seed, alpha)] = reference(
            instances[graph_seed], "gt", alpha, rec
        )
        if w.graphs == 0:
            del instances[graph_seed]
    for op in ops:
        ref = refs.get(plan.timed[op.index].key)
        op.failures, op.envelope = check_served(op.status, op.raw, ref)
    return refs


def run(root: str, name: str, seed: int, seconds: int, traced: bool):
    w = WORKLOADS[name]
    nproc = os.cpu_count() or 1
    if w.connections > nproc:
        raise RuntimeError(
            f"{name} needs {w.connections} connections but nproc={nproc}"
        )
    plan = make_plan(w, seed, seconds)
    setups: List[float] = []
    speed = Speed()
    server = None
    try:
        for _ in range(1 if traced else SETUP_REPS):
            if server is not None:
                server.stop()
                server = None
            server, took = speed.timed(lambda: setup_server(root, plan))
            setups.append(took)
        clients = [Client(server.port) for _ in range(w.connections)]
        sent, failed = warm(clients, plan)
        report(phase="warmup", sent=sent, succeeded=sent - failed,
               failed=failed, counted=False)
        if traced:
            half = seconds / 2.0
            plain = run_phase(server, clients, plan.timed, 0, half, speed)
            tracing = run_phase(
                server, clients, plan.timed, len(plain.ops), half, speed,
                traced=True,
            )
            phases = [plain, tracing]
        else:
            phases = [
                run_phase(server, clients, plan.timed, 0, seconds, speed)
            ]
        for client in clients:
            client.close()
    finally:
        if server is not None:
            server.stop()

    from repro.obs.recorder import Recorder, TraceRecorder

    replay = TraceRecorder() if traced else Recorder()
    began = time.perf_counter()
    refs = verify(w, plan, phases, replay)
    report(phase="oracle", references=len(refs),
           equilibria=sum(r.equilibrium for r in refs.values()),
           seconds=round(time.perf_counter() - began, 2))
    for label, phase in zip(("timed", "traced"), phases):
        _report_phase(label, w, phase)
    ops = [op for phase in phases for op in phase.ops]
    failed_ops = [op for op in ops if op.failures]
    for op in failed_ops[:5]:
        report(phase="oracle", index=op.index,
               failure="; ".join(op.failures))
    outcome = Outcome(
        attempted=len(ops),
        failed=len(failed_ops),
        correct=not failed_ops and all(r.equilibrium for r in refs.values()),
    )
    first = phases[0]
    ok = first.ok()
    if traced:
        outcome.metrics = _layers(w, plan, phases, refs, replay, root, seed)
        return outcome
    factor = speed.factor("load")
    q, tail_ms, beyond = tail(first.latencies_ms(factor), w.tail_cap)
    speed.report()
    report(phase="setup", reps=len(setups),
           measured_s=[round(s, 3) for s in setups])
    report(phase="timed", tail_percentile=q, samples_beyond=round(beyond, 1),
           samples=len(first.ops), blocks=len(first.blocks),
           measured_p50_ms=round(median(first.latencies_ms()), 3),
           measured_ops=round(first.rate(), 3))
    outcome.metrics = {
        "latency_p50_ms": median(first.latencies_ms(factor)),
        "latency_tail_ms": tail_ms,
        "throughput_ops": first.rate(factor),
        "success_rate": len(ok) / len(first.ops),
        "setup_s": median(setups) * speed.factor("setup"),
        "peak_rss_mb": first.rss,
        "cost_ratio": sum(r.cost_ratio for r in refs.values()) / len(refs),
    }
    return outcome


def _report_phase(label: str, w: ServedWorkload, phase: Phase) -> None:
    ok = len(phase.ok())
    report(
        phase=label,
        connections=w.connections,
        sent=len(phase.ops),
        succeeded=ok,
        failed=len(phase.ops) - ok,
        elapsed_s=round(phase.elapsed, 3),
        client_cpu_share=round(phase.client_cpu / phase.elapsed, 4),
        plan_exhausted=phase.exhausted,
    )


def _layers(w, plan, phases, refs, replay, root, seed) -> Dict[str, float]:
    """Per-layer metrics of the traced run (see README.md)."""
    from repro.obs.exporters import trace_records
    from repro.serve.wire import SolveRequest

    plain, tracing = phases
    envelopes = [op.envelope for op in plain.ok()]
    latencies = [op.latency for op in plain.ok()]
    hits = [bool(e.get("instance_cache_hit")) for e in envelopes]
    hit_ratio = sum(hits) / len(hits)
    cloned = sum(
        1 for op in plain.ok() if plan.timed[op.index].alpha is not None
    ) / len(envelopes)

    # In-process replay of the validation the server runs per request.
    bodies = list({r.key: r.body for r in plan.timed[:64]}.values())[:16]
    for body in bodies:
        with replay.span("wire.validate"):
            for _ in range(VALIDATE_REPS):
                SolveRequest.from_dict(json.loads(body))
    records = list(trace_records(replay))
    per_call = _mean_span_ms(records)
    per_call["wire.validate"] /= VALIDATE_REPS

    unattributed = []
    server_self: Dict[str, List[float]] = {}
    for op in tracing.ok():
        request_span = [
            r for r in op.server_records
            if r.get("type") == "span" and r.get("name") == "serve.request"
        ]
        if not request_span:
            continue
        served = float(request_span[0]["end"]) - float(request_span[0]["start"])
        unattributed.append(op.latency - op.decode - served)
        for span_name, secs in self_times(op.server_records).items():
            server_self.setdefault(span_name, []).append(secs * 1e3)

    p50_plain = median(latencies)
    p50_traced = median([op.latency for op in tracing.ok()])
    layers = {
        "serve.overhead_ms": median(
            [op.latency - e["wall_seconds"]
             for op, e in zip(plain.ok(), envelopes)]
        ) * 1e3,
        "wire.validate_ms": per_call["wire.validate"],
        "jobs.queue_wait_ms": median(
            [e["started"] - e["created"] for e in envelopes]
        ) * 1e3,
        "jobs.service_ms": median(
            [e["finished"] - e["started"] for e in envelopes]
        ) * 1e3,
        "jobs.rejected": float(sum(
            op.status in (429, 503) for phase in phases for op in phase.ops
        )),
        "store.hit_ratio": hit_ratio,
        "datasets.build_ms": per_call["datasets.load_dataset"]
        * (1.0 - hit_ratio),
        "instance.build_ms": per_call["core.instance"] * (1.0 - hit_ratio),
        "instance.with_alpha_ms": per_call.get("core.with_alpha", 0.0)
        * cloned,
        "solver.solve_ms": median(
            [e["result"]["wall_seconds"] for e in envelopes]
        ) * 1e3,
        "solver.rounds": sum(r.rounds for r in refs.values()) / len(refs),
        "solver.players_examined": sum(
            r.players_examined for r in refs.values()
        ) / len(refs),
        "result.serialize_ms": per_call["result.serialize"],
        "feed.mutate_ms": 0.0,
        "feed.resolve_ms": 0.0,
        "feed.vertices_moved": 0.0,
        "server.cpu_ms_per_op": plain.server_cpu / len(envelopes) * 1e3,
        "client.cpu_share": plain.client_cpu / plain.elapsed,
        "trace.unattributed_ms": median(unattributed) * 1e3,
        "trace.overhead_pct": (p50_traced / p50_plain - 1.0) * 100.0,
    }
    report(phase="replay", **{
        f"{name}_ms": round(ms, 4) for name, ms in sorted(per_call.items())
    })
    report(phase="server-spans", **{
        f"{name}_self_ms": round(median(v), 3)
        for name, v in sorted(server_self.items())
    })
    report(phase="shares", **_shares(p50_plain * 1e3, layers))
    _write_traces(root, w.name, seed, phases, records)
    return layers


def _mean_span_ms(records) -> Dict[str, float]:
    sums: Dict[str, List[float]] = {}
    for r in records:
        if r.get("type") == "span":
            sums.setdefault(r["name"], []).append(
                (float(r["end"]) - float(r["start"])) * 1e3
            )
    return {name: sum(v) / len(v) for name, v in sums.items()}


def _shares(p50_ms: float, layers: Dict[str, float]) -> Dict[str, str]:
    """Each blocking layer's share of the untraced client p50."""
    parts = {
        "queue_wait": layers["jobs.queue_wait_ms"],
        "datasets": layers["datasets.build_ms"],
        "instance": layers["instance.build_ms"],
        "with_alpha": layers["instance.with_alpha_ms"],
        "solver": layers["solver.solve_ms"],
        "serve_overhead": layers["serve.overhead_ms"],
    }
    parts["other_service"] = max(
        p50_ms - sum(parts.values()), 0.0
    )
    return {k: f"{v / p50_ms:.0%}" for k, v in parts.items()}


def _write_traces(root, name, seed, phases, replay_records) -> None:
    """Keep the traced run's spans as JSONL under perfbench/traces/."""
    from repro.obs.exporters import trace_records

    out = os.path.join(root, "perfbench", "traces")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for source, records in (
            ("client", [r for rec in phases[1].recorders
                        for r in trace_records(rec)]),
            ("server", [r for op in phases[1].ops
                        for r in op.server_records]),
            ("replay", replay_records),
        ):
            for record in records:
                handle.write(json.dumps({"source": source, **record}) + "\n")
    report(phase="traces", path=os.path.relpath(path, root))
