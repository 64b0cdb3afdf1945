#!/usr/bin/env python3
"""End-to-end benchmark of ``ParallelApp.submit -> Future.result``.

Run from the repository root::

    python3 perfbench/run.py --workload tiny-farm-thread --seed 1 --seconds 10 --trace 0

One run builds the workload from its seed, then drives the stack with
closed-loop clients for ``--seconds``, cut into segments, and checks
every result.  Before each untraced segment the stack is set up afresh
several times (``setup_s`` is the median of all set-ups) and warmed up;
a slice of the unwoven sequential baseline runs around each segment.
With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` the last part of the run (half
of it, at most ``TRACED_S``) records spans from outside the program
(see ``tracer.py``), and the JSON carries the
per-layer metrics.  README.md lists every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
import time
from statistics import median
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: set-ups before each untraced segment; ``setup_s`` is the median of
#: all of them, so it samples the whole run rather than its first second
SETUP_REPS = 7
#: a measured phase is cut into segments of about this many seconds,
#: with a slice of the sequential baseline before, between and after
#: them, so the baseline sees the same machine as the calls it is
#: compared with
SEGMENT_S = 5.0
#: closed-loop warm-up before anything is measured, in seconds
WARMUP_S = 0.5
#: a call not back after this many seconds counts as failed, so a hung
#: call cannot hang the run
CALL_TIMEOUT_S = 30.0
#: longest traced phase of a ``--trace 1`` run, in seconds: spans stay
#: in memory until the end, about 23 per call on the tiny farm
TRACED_S = 5.0
#: the noise canary's pure-Python loop length
CANARY_LOOP = 2_000_000
#: the noise canary's thread start+join repetitions
CANARY_THREADS = 20
OUT_DIR = os.path.join(HERE, "out")
UNITS = {"setup_s": "s", "call_p50_ms": "ms", "call_p99_ms": "ms",
         "calls_per_s": "1/s", "failed_frac": "fraction", "speedup": "x"}


def load_manifest() -> dict[str, dict[str, str]]:
    """The metric names BENCHMARK.json lists, with their units: the
    result line carries exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Phase:
    """What one closed-loop phase observed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds; inf for a failed call
        self.failed = 0
        self.elapsed = 0.0
        self.dispatch_spans: list[float] = []  # seconds, traced phase only
        self.first_failure: str | None = None

    def extend(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.failed += other.failed
        self.elapsed += other.elapsed
        self.dispatch_spans += other.dispatch_spans
        self.first_failure = self.first_failure or other.first_failure

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def latency_ms(self, q: float) -> float:
        return percentile(sorted(self.latencies), q) * 1e3


def closed_loop(app: Any, workload: Workload, seconds: float,
                tracer: Tracer | None = None) -> Phase:
    """Drive ``app`` with ``workload.clients`` closed-loop clients.

    Each client sends its next payload only once the previous call's
    result is back and checked.  A call that raises or returns a wrong
    result counts as failed (and as an infinite latency); the loop goes
    on.  With a tracer, each call is a root span whose ticket is the
    call's dispatch ticket."""
    phase = Phase()
    lock = threading.Lock()
    go = threading.Event()
    stop_at = [0.0]
    clients = workload.clients
    count = len(workload.payloads)

    def client(k: int) -> None:
        latencies: list[float] = []
        dispatch: list[float] = []
        failed = 0
        first_failure = None
        i = k
        go.wait()
        while time.perf_counter() < stop_at[0]:
            index = i % count
            i += clients
            future = None
            root = tracer.open() if tracer is not None else None
            error = None
            start = time.perf_counter()
            try:
                future = app.submit(workload.payloads[index])
                result = future.result(CALL_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
                error = repr(exc)
            took = time.perf_counter() - start
            if root is not None:
                tracer.close("client.call", *root)
                ticket = getattr(getattr(future, "admission", None), "ticket_id", None)
                if ticket is not None:
                    tracer.root_tickets[root[0]] = ticket
                    timeline = app.trace(ticket) or {}
                    dispatch.extend(
                        span["end"] - span["start"]
                        for span in timeline.get("spans", ())
                        if span["name"] == "dispatch" and span["end"] is not None
                    )
            # checked outside the timed window and the call's root span
            ok = error is None and workload.correct(result, index)
            if ok:
                latencies.append(took)
            else:
                failed += 1
                first_failure = first_failure or error or f"wrong result for payload {index}"
                latencies.append(math.inf)
        with lock:
            phase.latencies.extend(latencies)
            phase.dispatch_spans.extend(dispatch)
            phase.failed += failed
            phase.first_failure = phase.first_failure or first_failure

    threads = [
        threading.Thread(target=client, args=(k,), name=f"perfbench-client{k}")
        for k in range(clients)
    ]
    for thread in threads:
        thread.start()
    if tracer is not None:
        tracer.active = True  # after the clients' own thread starts
    began = time.perf_counter()
    stop_at[0] = began + seconds
    go.set()
    try:
        for thread in threads:
            thread.join()
    finally:
        if tracer is not None:
            tracer.active = False
    phase.elapsed = time.perf_counter() - began
    return phase


def measure(stack: "Stack", seconds: float, sequential: list[float],
            tracer: Tracer | None = None) -> Phase:
    """A closed-loop phase of ``seconds`` cut into segments, with a
    slice of the sequential baseline (appended to ``sequential``)
    around each segment.  Untraced, every segment after the first runs
    on a stack set up afresh; traced, one stack serves the whole phase,
    so the counters read around it and the class-level patches see one
    app."""
    workload = stack.workload
    segments = max(1, round(seconds / SEGMENT_S))
    phase = Phase()
    sequential.append(workload.sequential_s())
    for segment in range(segments):
        if segment and tracer is None:
            stack.rebuild()
        phase.extend(closed_loop(stack.app, workload, seconds / segments, tracer))
        sequential.append(workload.sequential_s())
    return phase


def canary() -> dict[str, float]:
    """Fixed work timed beside every run, so a run on a stolen or
    contended CPU can be told apart from a regression."""
    start = time.perf_counter()
    total = 0
    for i in range(CANARY_LOOP):
        total += i
    loop_ms = (time.perf_counter() - start) * 1e3
    starts = []
    for _ in range(CANARY_THREADS):
        start = time.perf_counter()
        thread = threading.Thread(target=int)
        thread.start()
        thread.join()
        starts.append(time.perf_counter() - start)
    return {"canary.cpu_loop_ms": loop_ms,
            "canary.thread_start_us": median(starts) * 1e6}


class Stack:
    """The app under measurement and the timings of every set-up."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.app: Any = None
        #: seconds per set-up; ``setup_s`` is their median
        self.setup_times: list[float] = []

    def rebuild(self) -> None:
        """Set the stack up ``SETUP_REPS`` times, tearing each down but
        the last, then warm the last one up."""
        for _ in range(SETUP_REPS):
            self.close()
            start = time.perf_counter()
            self.app = self.workload.build()
            self.setup_times.append(time.perf_counter() - start)
        closed_loop(self.app, self.workload, WARMUP_S)

    def close(self) -> None:
        """Tear the live app down (worker processes are stopped and joined)."""
        app, self.app = self.app, None
        if app is not None:
            app.undeploy()
            app.shutdown()


# -- per-layer metrics --------------------------------------------------------


def counters(app: Any) -> dict[str, int]:
    """Cumulative counters the program already keeps, read before and
    after the traced phase."""
    plan = app.plan_stats()
    serializer = getattr(app.middleware, "serializer", None)
    return {
        "interpreter_calls": plan["interpreter_calls"],
        "compiles": plan["compiles"] + plan["batch_compiles"],
        "async_calls": getattr(app.async_aspect, "spawned_calls", 0),
        "messages": getattr(serializer, "messages", 0),
        "bytes_out": getattr(serializer, "bytes_out", 0),
        "loop_tasks": getattr(app.backend, "tasks_started", 0),
    }


def instrument(tracer: Tracer, app: Any) -> None:
    """Wrap each layer's public entry points at class level."""
    from repro.api import ParallelApp
    from repro.middleware.proc import ProcMiddleware
    from repro.middleware.serialize import Serializer
    from repro.parallel.partition import base
    from repro.runtime.admission import AdmissionController
    from repro.runtime.asyncbackend import AsyncioBackend
    from repro.runtime.procbackend import ProcWorker

    tracer.patch(ParallelApp, "submit", "api.submit")
    tracer.patch(AdmissionController, "admit", "runtime.admission.admit")
    tracer.patch_spawn(type(app.backend))
    tracer.patch_thread_start()
    tracer.patch(base, "dispatch_piece", "aop.plan.piece_dispatch")
    tracer.patch(ProcMiddleware, "invoke", "middleware.invoke")
    tracer.patch(Serializer, "encode", "middleware.encode")
    tracer.patch(Serializer, "decode", "middleware.decode")
    tracer.patch(ProcWorker, "send", "runtime.procbackend.send")
    tracer.patch(ProcWorker, "recv", "runtime.procbackend.reply_wait")
    tracer.patch(AsyncioBackend, "bridge", "runtime.asyncbackend.bridge")


def layer_metrics(tracer: Tracer, phase: Phase, counts: dict[str, int],
                  app: Any) -> dict[str, float]:
    """Per-layer metrics of one traced phase (0 where a layer did not
    run).  Times are medians of per-span self times."""
    calls = phase.attempted
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def self_us(name: str) -> float:
        values = [own[span[0]] for span in by_name.get(name, ())]
        return median(values) / 1e3 if values else 0.0

    def per_call(name: str) -> float:
        return len(by_name.get(name, ())) / calls

    start_of = {span[0]: span[2] for span in by_name.get("runtime.backend.spawn", ())}
    handoffs = [
        span[2] - start_of[span[4]]
        for span in by_name.get("runtime.backend.activity", ())
        if span[4] in start_of
    ]
    combined_at = {span[5]: span[3] for span in by_name.get("parallel.partition.combine", ())}
    delivered = [
        span[3] - combined_at[tracer.root_tickets[span[0]]]
        for span in by_name.get("client.call", ())
        if tracer.root_tickets.get(span[0]) in combined_at
    ]
    bodies = [span[3] - span[2] for span in by_name.get("body.piece", ())]
    return {
        "api.submit_us": self_us("api.submit"),
        "api.deliver_us": median(delivered) / 1e3 if delivered else 0.0,
        "runtime.admission.admit_us": self_us("runtime.admission.admit"),
        "runtime.admission.admits_per_call": per_call("runtime.admission.admit"),
        "runtime.backend.spawns_per_call": per_call("runtime.backend.spawn"),
        "runtime.backend.thread_starts_per_call": tracer.thread_starts / calls,
        "runtime.backend.handoff_us": median(handoffs) / 1e3 if handoffs else 0.0,
        "parallel.partition.pieces_per_call": per_call("aop.plan.piece_dispatch"),
        "parallel.partition.split_us": self_us("parallel.partition.split"),
        "parallel.partition.combine_us": self_us("parallel.partition.combine"),
        "parallel.partition.dispatch_us": (
            median(phase.dispatch_spans) * 1e6 if phase.dispatch_spans else 0.0
        ),
        "parallel.concurrency.async_calls_per_call": counts["async_calls"] / calls,
        "aop.plan.interpreter_calls_per_call": counts["interpreter_calls"] / calls,
        "aop.plan.compiles_in_run": float(counts["compiles"]),
        "aop.plan.chain_us": self_us("aop.plan.piece_dispatch"),
        "middleware.messages_per_call": counts["messages"] / calls,
        "middleware.bytes_out_per_call": counts["bytes_out"] / calls,
        "middleware.encode_us": self_us("middleware.encode"),
        "middleware.decode_us": self_us("middleware.decode"),
        "middleware.invoke_us": self_us("middleware.invoke"),
        "runtime.procbackend.send_us": self_us("runtime.procbackend.send"),
        "runtime.procbackend.reply_wait_us": self_us("runtime.procbackend.reply_wait"),
        "runtime.asyncbackend.bridge_us": self_us("runtime.asyncbackend.bridge"),
        "runtime.asyncbackend.tasks_per_call": counts["loop_tasks"] / calls,
        "runtime.asyncbackend.peak_tasks": float(getattr(app.backend, "peak_tasks", 0)),
        "body.piece_ms": median(bodies) / 1e6 if bodies else 0.0,
    }


# -- the run ------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result JSON object and the
    human-readable summary lines."""
    manifest = load_manifest()
    cls = WORKLOADS[name]
    noise = canary()
    tracer = Tracer() if trace else None
    workload = cls(seed, tracer.wrap) if tracer else cls(seed)
    sequential: list[float] = []
    stack = Stack(workload)
    try:
        stack.rebuild()
        if not trace:
            phase = measure(stack, seconds, sequential)
            phases = [phase]
        else:
            traced_s = min(seconds / 2, TRACED_S)
            phase = measure(stack, seconds - traced_s, sequential)
            app = stack.app
            before = counters(app)
            instrument(tracer, app)
            try:
                traced = measure(stack, traced_s, sequential, tracer)
            finally:
                tracer.unpatch()
            counts = {key: value - before[key] for key, value in counters(app).items()}
            phases = [phase, traced]
    finally:
        stack.close()
    setup_s = median(stack.setup_times)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    seq_ms = median(sequential) * 1e3
    p50 = phase.latency_ms(0.50)
    # every end-to-end figure, from the untraced (part of the) run
    end_to_end = {
        "setup_s": setup_s,
        "call_p50_ms": p50,
        "call_p99_ms": phase.latency_ms(0.99),
        "calls_per_s": (phase.attempted - phase.failed) / phase.elapsed,
        "failed_frac": phase.failed / phase.attempted,
        "speedup": seq_ms / p50,
    }
    lines = [
        f"{name} seed={seed}: {phase.attempted} calls by "
        f"{workload.clients} closed-loop client(s), {phase.failed} failed; "
        + ", ".join(f"{key}={value:.6g} {UNITS[key]}" for key, value in end_to_end.items())
        + f"; canary cpu_loop={noise['canary.cpu_loop_ms']:.1f} ms"
        f" thread_start={noise['canary.thread_start_us']:.0f} us"
    ]
    if not trace:
        reported = {key: (end_to_end[key], unit) for key, unit in manifest["end_to_end"].items()}
    else:
        layers = layer_metrics(tracer, traced, counts, app)
        piece_ms = workload.piece_body_ms()  # bodies run in worker processes
        if piece_ms is not None:
            layers["body.piece_ms"] = piece_ms
        traced_p50 = traced.latency_ms(0.50)
        layers.update({
            "body.seq_call_ms": seq_ms,
            **noise,
            "trace.call_p50_ms": traced_p50,
            "trace.overhead_ms": traced_p50 - p50,
        })
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl")
        spans = tracer.export(path)
        reported = {key: (layers[key], unit) for key, unit in manifest["per_layer"].items()}
        lines.append(
            f"traced phase: {traced.attempted} calls, {traced.failed} failed, "
            f"{spans} spans in {os.path.relpath(path, ROOT)}; "
            + ", ".join(f"{key}={value:.6g} {unit}" for key, (value, unit) in reported.items())
        )
    first_failure = next((p.first_failure for p in phases if p.first_failure), None)
    if first_failure is not None:
        lines.append(f"first failed call: {first_failure}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": clean(value), "unit": unit}
            for key, (value, unit) in reported.items()
        },
    }
    return result, lines


def clean(value: float) -> float | None:
    """JSON has no infinity or NaN: a figure derived from a failed call
    (a percentile that lands on one, or inf - inf) is reported as null,
    and the run is not correct."""
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
