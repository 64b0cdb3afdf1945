"""Experiment E4 — real (wall-clock) AOP dispatch overhead.

The simulated Figure 16 models AspectJ's overhead with calibrated
constants; this bench *measures* our own engine's interception costs
with pytest-benchmark, grounding the model:

* plain method call (unwoven class);
* woven-inert call (class instrumented, no advice deployed) — with
  compiled dispatch plans this must stay within 1.5× of the plain call;
* one around advice (the single-around fast path);
* a five-aspect stack (partition-like depth);
* a mixed-kind five-advice chain (before/after/after_returning alongside
  arounds) — compiled vs the generic interpreter the seed used, which
  must be ≥ 1.5× slower than the compiled mixed plan;
* batched dispatch: an 8-piece pack through the compiled batched entry
  (one BatchJoinPoint per pack) vs 8 per-item calls — plus an invariant
  check that a farm with packing factor 8 allocates exactly one
  joinpoint per pack;
* re-plug churn: deploy/undeploy against many woven bystander classes,
  which exercises the targeted plan invalidation (only matching shadows
  recompile);
* the ParallelApp submit path: an 8-item pack through ``app.map`` over
  simulated MPP, fire-and-forget (``oneway`` — one message per pack, no
  reply wait, asserted as an invariant) vs the same pack with a reply
  round-trip;
* the overlapped-submit pair: 4 submissions through one deployed
  thread-backend pipeline, overlapped (per-call dispatch contexts —
  ``peak_in_flight >= 2`` asserted as an invariant) vs strictly serial
  — the pair CI gates with ``tools/check_bench_regression.py``;
* pack-aware partition routing: ``app.map(pack=4)`` on a farm over
  simulated MPP (each whole pack one message to one worker, asserted)
  vs the same payload submitted item by item.

Results are also appended to ``benchmarks/BENCH_dispatch.json`` by the
conftest hook so the trajectory is tracked across PRs.
"""

from __future__ import annotations

import pytest

import repro.aop.plan as plan_mod
from repro.aop import (
    Aspect,
    after,
    after_returning,
    around,
    batched_entry,
    before,
    deploy,
    undeploy,
    undeploy_all,
    unweave_all,
    weave,
)
from repro.aop.joinpoint import JoinPointKind
from repro.aop.weaver import default_weaver

# bound calibration so the whole suite stays fast; dispatch costs are
# microseconds, 0.5 s of samples is plenty
pytestmark = pytest.mark.benchmark(max_time=0.5, min_rounds=5)

N = 1000


def make_target():
    class Target:
        def work(self, x):
            return x + 1

    return Target


def run_loop(obj):
    total = 0
    for i in range(N):
        total += obj.work(i)
    return total


@pytest.fixture(autouse=True)
def clean():
    undeploy_all()
    unweave_all()
    yield
    undeploy_all()
    unweave_all()


def test_plain_call(benchmark):
    Target = make_target()
    obj = Target()
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N


def test_woven_inert_call(benchmark):
    Target = make_target()
    weave(Target)
    obj = Target()
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N


def test_one_around_advice(benchmark):
    Target = make_target()

    class Pass(Aspect):
        @around("call(Target.work(..))")
        def passthrough(self, jp):
            return jp.proceed()

    weave(Target)
    deploy(Pass())
    obj = Target()
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N


def test_five_aspect_stack(benchmark):
    Target = make_target()

    def make_aspect(level):
        class Pass(Aspect):
            precedence = level

            @around("call(Target.work(..))")
            def passthrough(self, jp):
                return jp.proceed()

        return Pass()

    weave(Target)
    for level in range(5):
        deploy(make_aspect(level))
    obj = Target()
    stats = default_weaver.plan_stats
    interpreter_before = stats.interpreter_calls
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N
    # acceptance invariant: the five-aspect hot loop never entered the
    # generic interpreter (the fused all-around plan served every call)
    assert stats.interpreter_calls == interpreter_before


def deploy_mixed_five(Target):
    """Five advice of mixed kinds, separable (befores/afters outermost):
    the shape the compiled mixed plan covers."""

    class Pre(Aspect):
        precedence = 500

        @before("call(Target.work(..))")
        def pre(self, jp):
            pass

    class Post(Aspect):
        precedence = 400

        @after("call(Target.work(..))")
        def post(self, jp):
            pass

    class Ret(Aspect):
        precedence = 300

        @after_returning("call(Target.work(..))")
        def ret(self, jp):
            pass

    def make_around(level):
        class Wrap(Aspect):
            precedence = level

            @around("call(Target.work(..))")
            def wrap(self, jp):
                return jp.proceed()

        return Wrap()

    for aspect in (Pre(), Post(), Ret(), make_around(200), make_around(100)):
        deploy(aspect)


def test_mixed_five_advice_stack(benchmark):
    """The compiled mixed-chain plan (PR 2): befores/afters folded at
    compile time around the all-around recursion."""
    Target = make_target()
    weave(Target)
    deploy_mixed_five(Target)
    obj = Target()
    impl = vars(Target)["work"]
    assert "runner" in impl.__code__.co_freevars, "mixed plan not compiled"
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N


def test_mixed_five_advice_interpreted(benchmark):
    """The same five-advice mixed chain through the generic interpreter —
    the only path the seed had for mixed chains.  The compiled plan above
    must beat this by ≥ 1.5×."""
    Target = make_target()
    weave(Target)
    deploy_mixed_five(Target)
    shadow = default_weaver._shadows[Target][("work", JoinPointKind.CALL)]
    impl = plan_mod._chain_impl(
        Target, "work", shadow.original, shadow.entries, False
    )
    obj = Target()

    def loop():
        total = 0
        for i in range(N):
            total += impl(obj, i)
        return total

    assert benchmark(loop) == N * (N - 1) // 2 + N


def deploy_nonseparable_five(Target):
    """Five advice with the before/after sorted BELOW (and between) the
    arounds — the non-separable shape that used to force the generic
    interpreter and now compiles by per-segment nesting."""

    def make_around(level):
        class Wrap(Aspect):
            precedence = level

            @around("call(Target.work(..))")
            def wrap(self, jp):
                return jp.proceed()

        return Wrap()

    class Pre(Aspect):
        precedence = 400

        @before("call(Target.work(..))")
        def pre(self, jp):
            pass

    class Post(Aspect):
        precedence = 200

        @after("call(Target.work(..))")
        def post(self, jp):
            pass

    for aspect in (make_around(500), Pre(), make_around(300), Post(),
                   make_around(100)):
        deploy(aspect)


def test_nonseparable_five_advice_stack(benchmark):
    """The compiled non-separable plan: before/after runs folded into
    the around level beneath them, the around spine fused — zero
    interpreter entries on the hot loop (asserted)."""
    Target = make_target()
    weave(Target)
    deploy_nonseparable_five(Target)
    obj = Target()
    impl = vars(Target)["work"]
    assert "runner" in impl.__code__.co_freevars, "chain did not compile"
    assert impl.__aop_plan_kind__ == "mixed"
    stats = default_weaver.plan_stats
    interpreter_before = stats.interpreter_calls
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N
    assert stats.interpreter_calls == interpreter_before


def test_nonseparable_five_advice_interpreted(benchmark):
    """The same non-separable five-advice chain through the generic
    interpreter — the only path such chains had before per-segment
    nesting.  The compiled plan above must beat this (gated)."""
    Target = make_target()
    weave(Target)
    deploy_nonseparable_five(Target)
    shadow = default_weaver._shadows[Target][("work", JoinPointKind.CALL)]
    impl = plan_mod._chain_impl(
        Target, "work", shadow.original, shadow.entries, False
    )
    obj = Target()

    def loop():
        total = 0
        for i in range(N):
            total += impl(obj, i)
        return total

    assert benchmark(loop) == N * (N - 1) // 2 + N


PACK = 8


def test_batched_pack8_dispatch(benchmark):
    """One 8-piece pack through the compiled batched entry: the advice
    chain runs once per pack (one BatchJoinPoint)."""
    Target = make_target()

    class Pass(Aspect):
        @around("call(Target.work(..))")
        def passthrough(self, jp):
            return jp.proceed()

    weave(Target)
    deploy(Pass())
    obj = Target()
    pieces = [((i,), {}) for i in range(PACK)]
    expected = [i + 1 for i in range(PACK)]

    # invariant: one joinpoint per pack (recorded alongside the timing)
    counts = {"batch": 0, "jp": 0}

    class CountingBatchJP(plan_mod.BatchJoinPoint):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            counts["batch"] += 1
            super().__init__(*args, **kwargs)

    class CountingJP(plan_mod.JoinPoint):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            counts["jp"] += 1
            super().__init__(*args, **kwargs)

    saved = plan_mod.JoinPoint, plan_mod.BatchJoinPoint
    plan_mod.JoinPoint, plan_mod.BatchJoinPoint = CountingJP, CountingBatchJP
    try:
        assert batched_entry(obj, "work")(pieces) == expected
    finally:
        plan_mod.JoinPoint, plan_mod.BatchJoinPoint = saved
    assert counts == {"batch": 1, "jp": 0}

    def loop():
        out = None
        for _ in range(N // PACK):
            out = batched_entry(obj, "work")(pieces)
        return out

    assert benchmark(loop) == expected


def test_unbatched_pack8_dispatch(benchmark):
    """The same 8 pieces as 8 per-item calls — what every skeleton paid
    before batched entry points (one JoinPoint and one advice pass per
    item)."""
    Target = make_target()

    class Pass(Aspect):
        @around("call(Target.work(..))")
        def passthrough(self, jp):
            return jp.proceed()

    weave(Target)
    deploy(Pass())
    obj = Target()

    def loop():
        out = None
        for _ in range(N // PACK):
            out = [obj.work(i) for i in range(PACK)]
        return out

    assert benchmark(loop) == [i + 1 for i in range(PACK)]


def test_replug_with_woven_bystanders(benchmark):
    """Deploy+undeploy one narrowly-scoped aspect while 20 other woven
    classes stand by: the static match index must keep re-plug cost
    independent of how much unrelated code is woven."""
    Target = make_target()
    weave(Target)
    bystanders = []
    for i in range(20):
        cls = type(f"Bystander{i}", (), {"run": lambda self, x: x})
        weave(cls)
        bystanders.append(cls)

    class Pass(Aspect):
        @around("call(Target.work(..))")
        def passthrough(self, jp):
            return jp.proceed()

    def replug():
        aspect = deploy(Pass())
        undeploy(aspect)

    benchmark(replug)


def test_initialization_interception(benchmark):
    Target = make_target()

    class Tag(Aspect):
        @around("initialization(Target.new(..))")
        def tag(self, jp):
            return jp.proceed()

    weave(Target)
    deploy(Tag())

    def build():
        for _ in range(100):
            Target()

    benchmark(build)


# ---------------------------------------------------------------------------
# Submit path: ParallelApp packs over the simulated middleware
# ---------------------------------------------------------------------------


def make_service_app(oneway):
    """A partition-less ParallelApp over simulated MPP — the service
    shape `app.map(pack=...)` targets."""
    from repro.api import ParallelApp, StackSpec
    from repro.cluster import paper_testbed
    from repro.sim import Simulator

    class Service:
        def __init__(self):
            self.calls = 0

        def handle(self, x):
            self.calls += 1
            return x + 1

    sim = Simulator()
    app = ParallelApp(
        StackSpec(
            target=Service,
            work="handle",
            strategy="none",
            concurrency=False,
            middleware="mpp",
            cluster=paper_testbed(sim),
            oneway=("handle",) if oneway else (),
        )
    )
    return sim, app


def test_submit_oneway_pack8(benchmark):
    """`app.map(pack=8, oneway=True)`: the whole pack is ONE message and
    the client never waits for a reply — the trajectory's fire-and-forget
    submit path."""
    sim, app = make_service_app(oneway=True)
    payload = list(range(PACK))
    try:
        app.deploy()
        app.start()
        cluster = app.spec.cluster
        # invariant: one wire message per pack, zero replies, futures
        # resolved to None placeholders at send time
        before_msgs = cluster.network.messages
        before_oneway = app.middleware.oneway_calls
        group = app.map(payload, pack=True, oneway=True)
        assert group.results() == [None] * PACK
        assert cluster.network.messages - before_msgs == 1
        assert app.middleware.oneway_calls - before_oneway == 1

        def loop():
            out = None
            for _ in range(N // PACK):
                out = app.map(payload, pack=True, oneway=True).results()
            return out

        assert benchmark(loop) == [None] * PACK
    finally:
        app.undeploy()
        app.shutdown()
        sim.shutdown()


SUBMITS = 4
STAGE_DELAY = 0.002


def make_pipeline_app():
    """A 3-stage thread-backend pipeline whose stages cost ~2 ms each —
    enough real latency that overlapping in-flight splits dominates the
    wall clock (keeps the CI-gated pair ratio stable across machines)."""
    import time

    from repro.api import ParallelApp, StackSpec
    from repro.parallel import WorkSplitter

    class Stage:
        def run(self, values):
            time.sleep(STAGE_DELAY)
            return [v + 1 for v in values]

    return ParallelApp(
        StackSpec(
            target=Stage,
            work="run",
            splitter=WorkSplitter(duplicates=3, combine=lambda rs: rs[0]),
            strategy="pipeline",
            backend="thread",
        )
    )


def test_submit_overlapped_pipeline(benchmark):
    """4 overlapped submissions through ONE deployed pipeline: per-call
    dispatch contexts let the splits share the stages concurrently.
    CI gates this pair's ratio (overlapped/serial) against the committed
    trajectory — see tools/check_bench_regression.py."""
    app = make_pipeline_app()
    payload = list(range(8))
    expected = [[v + 3 for v in payload]] * SUBMITS
    try:
        app.deploy()
        app.start()

        def overlapped():
            futures = [app.submit(list(payload)) for _ in range(SUBMITS)]
            return [f.result() for f in futures]

        assert benchmark(overlapped) == expected
        # the tentpole invariant: the pipeline genuinely sustained >= 2
        # concurrent in-flight splits
        assert app.peak_in_flight >= 2
        assert app.in_flight == 0
    finally:
        app.undeploy()
        app.shutdown()


def test_submit_serial_pipeline(benchmark):
    """The same 4 submissions strictly serialised (each result awaited
    before the next submit) — what the seed's per-aspect collector
    forced on every deployed pipeline."""
    app = make_pipeline_app()
    payload = list(range(8))
    expected = [[v + 3 for v in payload]] * SUBMITS
    try:
        app.deploy()
        app.start()

        def serial():
            return [
                app.submit(list(payload)).result() for _ in range(SUBMITS)
            ]

        assert benchmark(serial) == expected
        assert app.peak_in_flight == 1  # never overlapped by construction
    finally:
        app.undeploy()
        app.shutdown()


def make_farm_app():
    """A 2-worker farm over simulated MPP — the shape pack-aware
    partition routing targets."""
    from repro.api import ParallelApp, StackSpec
    from repro.cluster import paper_testbed
    from repro.parallel import WorkSplitter
    from repro.sim import Simulator

    class Service:
        def __init__(self):
            self.calls = 0

        def handle(self, x):
            self.calls += 1
            return x + 1

    sim = Simulator()
    app = ParallelApp(
        StackSpec(
            target=Service,
            work="handle",
            splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
            strategy="farm",
            middleware="mpp",
            cluster=paper_testbed(sim),
        )
    )
    return sim, app


def test_map_pack4_farm_mpp(benchmark):
    """`app.map(pack=4)` on a farm spec: each whole pack is routed to
    one worker as ONE batched message (invariant asserted) — pack-aware
    partition routing instead of the old eager rejection."""
    sim, app = make_farm_app()
    payload = list(range(8))
    expected = [x + 1 for x in payload]
    try:
        app.deploy()
        app.start()
        cluster = app.spec.cluster
        before = cluster.network.messages
        assert app.map(payload, pack=4).results() == expected
        # 2 packs of 4 -> 2 batched requests + 2 replies, nothing per-item
        assert cluster.network.messages - before == 4
        assert app.middleware.batched_calls == 2

        def loop():
            out = None
            for _ in range(N // (PACK * 16)):
                out = app.map(payload, pack=4).results()
            return out

        assert benchmark(loop) == expected
    finally:
        app.undeploy()
        app.shutdown()
        sim.shutdown()


def test_map_unpacked_farm_mpp(benchmark):
    """The same 8 payloads submitted item by item through the same farm
    — one split, one advice pass and one message round-trip per item:
    the cost pack routing removes."""
    sim, app = make_farm_app()
    payload = list(range(8))
    expected = [x + 1 for x in payload]
    try:
        app.deploy()
        app.start()

        def loop():
            out = None
            for _ in range(N // (PACK * 16)):
                out = app.map(payload).results()
            return out

        assert benchmark(loop) == expected
    finally:
        app.undeploy()
        app.shutdown()
        sim.shutdown()


DYN_WORKERS = 4
DYN_SUBMITS = 4


def make_dynfarm_app(resident):
    """A thread-backend dynamic farm with trivial per-piece work — the
    wall clock is dominated by dispatcher activity management, which is
    exactly what the resident-vs-respawn pair measures."""
    from repro.api import ParallelApp, StackSpec
    from repro.parallel import WorkSplitter
    from repro.runtime import ThreadBackend

    class Service:
        def __init__(self, tag=0):
            self.tag = tag

        def handle(self, x):
            return x + 1

    backend = ThreadBackend()
    app = ParallelApp(
        StackSpec(
            target=Service,
            work="handle",
            splitter=WorkSplitter(
                duplicates=DYN_WORKERS, combine=lambda rs: rs[0]
            ),
            strategy="dynamic-farm",
            strategy_options=dict(resident_pool=resident),
            backend=backend,
        )
    )
    return backend, app


def test_submit_resident_dynfarm(benchmark):
    """4 submissions per round through a dynamic farm whose deployment
    owns a RESIDENT dispatcher pool: zero dispatcher spawns on the hot
    path (invariant asserted) — the spawn cost is paid once per
    deployment instead of once per split.  Recorded for the trajectory
    only: since spawns reuse parked threads the respawn side no longer
    pays a thread start per dispatcher, so the ratio stopped measuring
    the resident pool (tests/runtime/test_thread_pool.py counts the
    zero steady-state thread starts instead)."""
    backend, app = make_dynfarm_app(resident=True)
    try:
        app.deploy()
        app.start()
        app.submit(0).result()  # warm-up: spawns the resident pool
        before = backend.spawned

        def round_trip():
            futures = [app.submit(i) for i in range(DYN_SUBMITS)]
            return [f.result() for f in futures]

        assert round_trip() == [i + 1 for i in range(DYN_SUBMITS)]
        # invariant: only the submission activities were spawned — the
        # dispatchers are resident
        assert backend.spawned - before == DYN_SUBMITS
        assert benchmark(round_trip) == [i + 1 for i in range(DYN_SUBMITS)]
    finally:
        app.undeploy()
        app.shutdown()


def test_submit_respawn_dynfarm(benchmark):
    """The same 4 submissions with resident_pool=False — the paper's
    literal formulation spawns one fresh dispatcher activity per worker
    per split call (invariant asserted): the cost the resident pool
    amortises away."""
    backend, app = make_dynfarm_app(resident=False)
    try:
        app.deploy()
        app.start()
        app.submit(0).result()
        before = backend.spawned

        def round_trip():
            futures = [app.submit(i) for i in range(DYN_SUBMITS)]
            return [f.result() for f in futures]

        assert round_trip() == [i + 1 for i in range(DYN_SUBMITS)]
        # invariant: every submission paid DYN_WORKERS dispatcher spawns
        assert backend.spawned - before == DYN_SUBMITS * (1 + DYN_WORKERS)
        assert benchmark(round_trip) == [i + 1 for i in range(DYN_SUBMITS)]
    finally:
        app.undeploy()
        app.shutdown()


# ---------------------------------------------------------------------------
# Out-of-process execution: thread-vs-process on CPU-bound splits, and
# one-marshal-per-pack across the pipe
# ---------------------------------------------------------------------------

CPU_WORKERS = 4
CPU_SPAN = 200_000


class Burner:
    """Pure-Python CPU burn — GIL-bound on threads, genuinely parallel
    across resident worker processes.  Module-level so the servant
    pickles by reference into forked workers."""

    def __init__(self, tag=0):
        self.tag = tag

    def burn(self, span):
        lo, hi = span
        total = 0
        for i in range(lo, hi):
            total += i * i
        return total


def _burn_pieces(args, kwargs):
    from repro.parallel.partition import CallPiece

    lo, hi = args[0]
    step = (hi - lo) // CPU_WORKERS
    spans = [
        (lo + i * step, hi if i == CPU_WORKERS - 1 else lo + (i + 1) * step)
        for i in range(CPU_WORKERS)
    ]
    return [CallPiece(i, (span,)) for i, span in enumerate(spans)]


CPU_EXPECTED = sum(i * i for i in range(CPU_SPAN))


def make_cpu_farm_app(backend):
    from repro.api import ParallelApp, StackSpec
    from repro.parallel import WorkSplitter

    return ParallelApp(
        StackSpec(
            target=Burner,
            work="burn",
            splitter=WorkSplitter(
                duplicates=CPU_WORKERS, split=_burn_pieces, combine=sum
            ),
            strategy="farm",
            backend=backend,
        )
    )


def _best_cpu_round(app, rounds=3):
    import time

    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        assert app.submit((0, CPU_SPAN)).result(timeout=60) == CPU_EXPECTED
        best = min(best, time.perf_counter() - t0)
    return best


def test_submit_cpu_farm_process(benchmark):
    """One CPU-bound call split 4 ways across resident worker PROCESSES:
    the payoff bench for out-of-process execution.  On a >= 4-core
    machine the process farm must beat the thread farm >= 2x (asserted;
    single-core CI boxes skip the speedup assert but still track the
    pair's trajectory ratio via tools/bench_gates.json)."""
    import os

    app = make_cpu_farm_app("process")
    try:
        app.deploy()
        app.start()

        def call():
            return app.submit((0, CPU_SPAN)).result(timeout=60)

        assert benchmark(call) == CPU_EXPECTED
        if (os.cpu_count() or 1) >= 4:
            thread_app = make_cpu_farm_app("thread")
            try:
                thread_app.deploy()
                thread_app.start()
                speedup = _best_cpu_round(thread_app) / _best_cpu_round(app)
            finally:
                thread_app.undeploy()
                thread_app.shutdown()
            assert speedup >= 2.0, (
                f"process farm only {speedup:.2f}x over threads on "
                f"{os.cpu_count()} cores — the GIL is back in the loop"
            )
    finally:
        app.undeploy()
        app.shutdown()


def test_submit_cpu_farm_thread(benchmark):
    """The same CPU-bound 4-way split on the THREAD backend — every
    piece contends for one GIL: the denominator of the speedup pair."""
    app = make_cpu_farm_app("thread")
    try:
        app.deploy()
        app.start()

        def call():
            return app.submit((0, CPU_SPAN)).result(timeout=60)

        assert benchmark(call) == CPU_EXPECTED
    finally:
        app.undeploy()
        app.shutdown()


# ---------------------------------------------------------------------------
# Event-loop execution: asyncio-vs-thread on an I/O-bound high-fan-out
# farm — loop tasks vs a spawned thread per concurrent wait
# ---------------------------------------------------------------------------

IO_WORKERS = 64
IO_LATENCY = 0.001  # one simulated endpoint round trip, seconds


class AsyncFetcher:
    """I/O-bound async servant: the wait is an ``await`` on the loop."""

    def __init__(self, tag=0):
        self.tag = tag

    async def fetch(self, index):
        import asyncio

        await asyncio.sleep(IO_LATENCY)
        return 1


class ThreadFetcher:
    """The same endpoint wait as a blocking sleep (thread backend)."""

    def __init__(self, tag=0):
        self.tag = tag

    def fetch(self, index):
        import time

        time.sleep(IO_LATENCY)
        return 1


def _io_pieces(args, kwargs):
    from repro.parallel.partition import CallPiece

    return [CallPiece(i, (i,)) for i in range(args[0])]


def make_io_farm_app(backend, target):
    from repro.api import ParallelApp, StackSpec
    from repro.parallel import WorkSplitter

    return ParallelApp(
        StackSpec(
            target=target,
            work="fetch",
            splitter=WorkSplitter(
                duplicates=IO_WORKERS, split=_io_pieces, combine=sum
            ),
            strategy="farm",
            backend=backend,
        )
    )


def test_submit_io_farm_asyncio(benchmark):
    """One I/O-bound call fanned out IO_WORKERS ways as ``async def``
    awaits on ONE event loop: per-piece dispatch proceeds inline (the
    concurrency aspect's native-async path) and the only concurrency
    cost is a loop task per piece — no thread per concurrent wait.
    Guarded by a count, not a ratio (the thread farm it was compared
    with reuses parked threads now): every call costs exactly one
    backend spawn and one loop task per piece."""
    app = make_io_farm_app("asyncio", AsyncFetcher)
    try:
        app.deploy()
        app.start()

        def call():
            return app.submit(IO_WORKERS).result(timeout=60)

        assert call() == IO_WORKERS
        # invariant: the fan-out genuinely overlapped on the loop (the
        # full 64 only coexist on a quiet box — early awaits can finish
        # before the last pieces bridge, so assert overlap, not count)
        assert app.backend.peak_tasks >= 2
        assert app.backend.tasks_started >= IO_WORKERS
        spawned, tasks = app.backend.spawned, app.backend.tasks_started
        assert call() == IO_WORKERS
        # invariant: one spawn (the submission activity) per call and
        # one loop task per piece
        assert app.backend.spawned - spawned == 1
        assert app.backend.tasks_started - tasks == IO_WORKERS
        assert benchmark(call) == IO_WORKERS
    finally:
        app.undeploy()
        app.shutdown()


def test_submit_io_farm_thread(benchmark):
    """The same fan-out on the THREAD backend: every piece's wait holds
    a pooled thread for its whole sleep."""
    app = make_io_farm_app("thread", ThreadFetcher)
    try:
        app.deploy()
        app.start()

        def call():
            return app.submit(IO_WORKERS).result(timeout=60)

        assert benchmark(call) == IO_WORKERS
    finally:
        app.undeploy()
        app.shutdown()


class ProcService:
    """Pack-bench servant (module-level: pickles by reference)."""

    def handle(self, x):
        return x + 1


def make_pack_process_app():
    from repro.api import ParallelApp, StackSpec

    return ParallelApp(
        StackSpec(
            target=ProcService,
            work="handle",
            strategy="none",
            concurrency=False,
            middleware="process",
        )
    )


def test_map_pack8_process(benchmark):
    """`app.map(pack=8)` across the process boundary: the whole pack is
    ONE marshalled request envelope (serializer.messages delta asserted)
    — communication packing carried over the real pipe transport."""
    app = make_pack_process_app()
    payload = list(range(PACK))
    expected = [x + 1 for x in payload]
    try:
        app.deploy()
        app.start()
        serializer = app.middleware.serializer
        before_msgs = serializer.messages
        before_batched = app.middleware.batched_calls
        assert app.map(payload, pack=True).results() == expected
        # one encode for the whole pack (replies are billed to the
        # sender, i.e. the worker): one marshal per pack, not per item
        assert serializer.messages - before_msgs == 1
        assert app.middleware.batched_calls - before_batched == 1

        def loop():
            out = None
            for _ in range(N // (PACK * 16)):
                out = app.map(payload, pack=True).results()
            return out

        assert benchmark(loop) == expected
    finally:
        app.undeploy()
        app.shutdown()


def test_map_unpacked_process(benchmark):
    """The same 8 payloads item by item through the same process-backed
    service — one marshal and one pipe round-trip per item: the cost
    pack routing removes from the real transport."""
    app = make_pack_process_app()
    payload = list(range(PACK))
    expected = [x + 1 for x in payload]
    try:
        app.deploy()
        app.start()
        serializer = app.middleware.serializer
        before = serializer.messages
        assert app.map(payload).results() == expected
        assert serializer.messages - before == PACK  # one per item

        def loop():
            out = None
            for _ in range(N // (PACK * 16)):
                out = app.map(payload).results()
            return out

        assert benchmark(loop) == expected
    finally:
        app.undeploy()
        app.shutdown()


def test_submit_roundtrip_pack8(benchmark):
    """The same 8-item pack with a reply wait (oneway off): one request
    message + one reply per pack — the cost the oneway path removes."""
    sim, app = make_service_app(oneway=False)
    payload = list(range(PACK))
    expected = [i + 1 for i in range(PACK)]
    try:
        app.deploy()
        app.start()
        cluster = app.spec.cluster
        before_msgs = cluster.network.messages
        group = app.map(payload, pack=True)
        assert group.results() == expected
        assert cluster.network.messages - before_msgs == 2  # request + reply

        def loop():
            out = None
            for _ in range(N // PACK):
                out = app.map(payload, pack=True).results()
            return out

        assert benchmark(loop) == expected
    finally:
        app.undeploy()
        app.shutdown()
        sim.shutdown()


# ---------------------------------------------------------------------------
# Pack-aware optimisation aspects: one cache lookup per pack on a 50%
# partial-hit workload, and replica-served reads vs remote round-trips
# ---------------------------------------------------------------------------


def make_cached_target():
    from repro.parallel import ObjectCacheAspect

    Target = make_target()
    weave(Target)
    cache = ObjectCacheAspect(cached_calls="call(Target.work(..))")
    deploy(cache)
    return Target, cache


def test_pack8_cache_partial_hit(benchmark):
    """An 8-piece pack through the pack-aware cache on a 50% partial-hit
    workload: ONE locked digest+lookup pass for the pack (invariant
    asserted), cached items answered locally, the 4 misses proceeding as
    a smaller pack, results re-interleaved in piece order."""
    Target, cache = make_cached_target()
    obj = Target()
    pieces = [((i,), {}) for i in range(PACK)]
    expected = [i + 1 for i in range(PACK)]

    # invariant: 50% pre-warmed -> exactly one cache lookup for the
    # pack, correct in-order results
    for i in range(0, PACK, 2):
        obj.work(i)
    hits_before, lookups_before = cache.hits, cache.pack_lookups
    assert batched_entry(obj, "work")(pieces) == expected
    assert cache.pack_lookups - lookups_before == 1
    assert cache.hits - hits_before == PACK // 2

    def loop():
        out = None
        for _ in range(N // PACK):
            cache.clear()
            for i in range(0, PACK, 2):  # re-warm half the pack
                obj.work(i)
            out = batched_entry(obj, "work")(pieces)
        return out

    assert benchmark(loop) == expected


def test_peritem_cache_partial_hit(benchmark):
    """The same 50% partial-hit workload as 8 per-item cached calls —
    one digest, one lock acquisition and one advice pass per item: the
    cost the pack path collapses into a single locked pass."""
    Target, cache = make_cached_target()
    obj = Target()
    expected = [i + 1 for i in range(PACK)]

    def loop():
        out = None
        for _ in range(N // PACK):
            cache.clear()
            for i in range(0, PACK, 2):
                obj.work(i)
            out = [obj.work(i) for i in range(PACK)]
        return out

    assert benchmark(loop) == expected


READS = 200


def make_read_scenario(replicated):
    """A distributed Store over simulated MPP: the client holds a woven
    instance whose ``get`` is redirected to a remote servant.  The
    replicated variant deploys :class:`ReadReplicaAspect` above the
    distribution layer so reads are served by a local replica instead of
    a per-read message round-trip."""
    from repro.cluster import paper_testbed
    from repro.middleware import MppMiddleware, use_node
    from repro.parallel import MppDistributionAspect, ReadReplicaAspect
    from repro.parallel.partition.base import PartitionAspect
    from repro.runtime import SimBackend, use_backend
    from repro.sim import Simulator

    class Store:
        def __init__(self):
            self.data = {i: i * 2 for i in range(16)}

        def get(self, key):
            return self.data.get(key)

    weave(Store)
    sim = Simulator()
    cluster = paper_testbed(sim)
    mpp = MppMiddleware(cluster)
    deploy(
        MppDistributionAspect(
            mpp,
            remote_new="initialization(Store.new(..))",
            remote_calls="call(Store.get(..))",
        )
    )
    backend = SimBackend(sim)
    holder = {}

    def build():
        with use_backend(backend), use_node(cluster.head):
            holder["store"] = Store()

    sim.spawn(build)
    sim.run()
    store = holder["store"]

    aspect = None
    if replicated:
        # a minimal partition exposing the store as a managed servant
        partition = PartitionAspect.__new__(PartitionAspect)
        partition.managed = {}
        partition.instances = []
        partition.remember(store, 0)
        aspect = ReadReplicaAspect(
            partition, read_calls="call(Store.get(..))"
        )
        deploy(aspect)

    expected = sum((i % 16) * 2 for i in range(READS))

    def round_trip():
        out = {}

        def main():
            with use_backend(backend), use_node(cluster.head):
                total = 0
                for i in range(READS):
                    total += store.get(i % 16)
                out["total"] = total

        sim.spawn(main)
        sim.run()
        return out["total"]

    def teardown():
        mpp.shutdown()
        sim.shutdown()

    return cluster, aspect, round_trip, teardown, expected


def test_replicated_read_store(benchmark):
    """200 reads on the distributed store with read-replica serving:
    after the first read builds the replica, not one message crosses the
    simulated network (invariant asserted) and no advice below the
    replica aspect runs."""
    cluster, aspect, round_trip, teardown, expected = make_read_scenario(
        replicated=True
    )
    try:
        assert round_trip() == expected  # builds the replica
        msgs_before = cluster.network.messages
        assert round_trip() == expected
        assert cluster.network.messages == msgs_before  # zero remote reads
        assert aspect.local_reads >= 2 * READS
        assert aspect.replica_builds == 1
        assert benchmark(round_trip) == expected
    finally:
        teardown()


def test_remote_read_store(benchmark):
    """The same 200 reads without replication — every read is a request
    + reply round-trip through the simulated MPP middleware (invariant
    asserted): the per-item message cost read replicas remove."""
    cluster, _, round_trip, teardown, expected = make_read_scenario(
        replicated=False
    )
    try:
        msgs_before = cluster.network.messages
        assert round_trip() == expected
        assert cluster.network.messages - msgs_before == 2 * READS
        assert benchmark(round_trip) == expected
    finally:
        teardown()


# ---------------------------------------------------------------------------
# Fault injection: farm throughput under 1-in-50 worker kills with the
# retry plane absorbing them, vs the clean (retry off, no faults) farm
# ---------------------------------------------------------------------------

FAULT_SUBMITS = 4


def make_fault_farm_app(faulted):
    """A thread-backend static farm with trivial per-piece work; the
    faulted variant kills the dispatched-to worker on every 50th piece
    dispatch and arms a retry policy so every kill is absorbed by a
    re-dispatch — the pair prices the whole recovery plane (fault-plane
    consultation + retry bookkeeping + occasional re-dispatch)."""
    from repro.api import ParallelApp, StackSpec
    from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
    from repro.parallel import WorkSplitter
    from repro.runtime import ThreadBackend

    class Service:
        def __init__(self, tag=0):
            self.tag = tag

        def handle(self, x):
            return x + 1

    fields = dict(
        target=Service,
        work="handle",
        splitter=WorkSplitter(duplicates=4, combine=lambda rs: rs[0]),
        strategy="farm",
        backend=ThreadBackend(),
    )
    schedule = None
    if faulted:
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="dispatch", every=50)],
            name="bench-kills",
        )
        fields.update(faults=schedule, retry=RetryPolicy(max_attempts=3))
    return schedule, ParallelApp(StackSpec(**fields))


def test_submit_faulted_farm_retry(benchmark):
    """Farm throughput with a 1-in-50 ``kill_worker`` schedule and retry
    ON: every kill is recovered by re-dispatching the piece to the next
    worker (invariant: the schedule genuinely fired, and every
    submission still succeeded).  CI gates this pair's ratio
    (faulted/clean) via tools/check_bench_regression.py."""
    schedule, app = make_fault_farm_app(faulted=True)
    try:
        app.deploy()
        app.start()

        def round_trip():
            futures = [app.submit(i) for i in range(FAULT_SUBMITS)]
            return [f.result() for f in futures]

        # warm past the first 50-dispatch kill mark so the invariant
        # below holds even under --benchmark-disable's single round
        for _ in range(1 + 50 // FAULT_SUBMITS):
            assert round_trip() == [i + 1 for i in range(FAULT_SUBMITS)]
        assert schedule.fired_count() >= 1, "the kill schedule never fired"
        result = benchmark(round_trip)
        assert result == [i + 1 for i in range(FAULT_SUBMITS)]
    finally:
        app.undeploy()
        app.shutdown()


def test_submit_clean_farm(benchmark):
    """The same farm with no fault schedule and no retry policy — the
    clean throughput the faulted run is gated against (the fast path of
    ``fire_fault`` is one truthiness check, so the gap is the price of
    actual kills plus retry bookkeeping, not of the instrumentation).
    Also the numerator of the trivial-submit pair: four overlapped
    trivial submits against a plain 1000-call loop, capped absolutely
    in tools/bench_gates.json."""
    _, app = make_fault_farm_app(faulted=False)
    try:
        app.deploy()
        app.start()

        def round_trip():
            futures = [app.submit(i) for i in range(FAULT_SUBMITS)]
            return [f.result() for f in futures]

        assert round_trip() == [i + 1 for i in range(FAULT_SUBMITS)]
        assert benchmark(round_trip) == [
            i + 1 for i in range(FAULT_SUBMITS)
        ]
    finally:
        app.undeploy()
        app.shutdown()
