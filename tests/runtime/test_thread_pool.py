"""The thread backend's parked-thread pool.

``ThreadBackend`` runs every spawned activity on a pooled OS thread: a
finished activity's thread parks and the next spawn takes it, so a
steady stream of submissions starts no threads.  These tests hold the
pool to its contract:

* zero ``Thread.start`` per steady-state submit, for every strategy on
  ``thread`` and for the farms on ``process`` and ``asyncio`` (the two
  backends that inherit the thread backend's caller side);
* a spawn never waits for a busy thread — more blocked activities than
  parked threads still complete, because the pool grows;
* a recycled thread carries no ambient state from its last activity,
  even one that raised mid-flight;
* a forked child starts with an empty registry instead of handing work
  to parked threads that only exist in the parent;
* a parked thread runs under its task's name and exits after the
  keep-alive.
"""

from __future__ import annotations

import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro.aop import weave
from repro.aop.cflow import (
    entered_advice,
    entered_joinpoint,
    bypassing_construction,
    flow_state,
)
from repro.aop.weaver import default_weaver
from repro.api import ParallelApp, StackSpec
from repro.middleware.context import (
    current_node,
    in_server_dispatch,
    server_dispatch,
    use_node,
)
from repro.parallel import WorkSplitter
from repro.parallel.optimisation.replication import ReplicationAspect
from repro.parallel.partition import CallPiece
from repro.runtime import ThreadBackend, threads
from repro.runtime import backend as backend_module
from repro.runtime.admission import current_envelope, use_envelope
from repro.runtime.backend import current_backend, use_backend
from repro.runtime.dispatch import (
    current_dispatch,
    current_piece,
    use_dispatch,
    use_piece,
)

STRATEGIES = ["farm", "dynamic-farm", "pipeline", "heartbeat", "divide-conquer"]
WARM_UP = 20
MEASURED = 30


def wait_until(cond, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if cond():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture()
def thread_starts(monkeypatch):
    """A live count of ``threading.Thread.start`` calls."""
    count = [0]
    start = threading.Thread.start

    def counted(thread):
        count[0] += 1
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return count


class Echo:
    def __init__(self, tag=0):
        self.tag = tag

    def bump(self, values):
        if any(v < 0 for v in values):
            raise ValueError("negative payload")
        return [v * 2 for v in values]


class Block:
    def __init__(self, size=4):
        self.size = size

    def step(self, iterations):
        return 1.0

    def get_boundary(self, side):
        return 0.0

    def set_boundary(self, side, data):
        return None


class Summer:
    gate: threading.Barrier | None = None

    def total(self, values):
        if Summer.gate is not None:
            Summer.gate.wait()
        if any(v < 0 for v in values):
            raise ValueError("negative payload")
        return sum(values)


def _halves(args, kwargs):
    values = args[0]
    return [
        CallPiece(0, (values[: len(values) // 2],)),
        CallPiece(1, (values[len(values) // 2:],)),
    ]


def case(strategy):
    """(spec fields, start args, payload(i), expected(i)) for a strategy."""
    if strategy in ("farm", "dynamic-farm", "pipeline"):
        factor = 4 if strategy == "pipeline" else 2
        return (
            dict(
                target=Echo,
                work="bump",
                splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
                strategy=strategy,
            ),
            (),
            lambda i: ([i, i + 10],),
            lambda i: [i * factor, (i + 10) * factor],
        )
    if strategy == "heartbeat":
        return (
            dict(
                target=Block,
                work="step",
                splitter=WorkSplitter(duplicates=2, combine=sum),
                strategy="heartbeat",
            ),
            (4,),
            lambda i: (2,),
            lambda i: 2.0,
        )
    return (
        dict(
            target=Summer,
            work="total",
            strategy="divide-conquer",
            strategy_options=dict(
                should_divide=lambda args, kwargs, depth: len(args[0]) > 4,
                divide=_halves,
                merge=sum,
            ),
        ),
        (),
        lambda i: (list(range(i, i + 8)),),
        lambda i: sum(range(i, i + 8)),
    )


# ---------------------------------------------------------------------------
# Zero thread starts in steady state
# ---------------------------------------------------------------------------

ZERO_START_MATRIX = (
    [("thread", s) for s in STRATEGIES]
    + [("process", s) for s in ("farm", "dynamic-farm")]
    + [("asyncio", s) for s in ("farm", "dynamic-farm")]
)


@pytest.mark.parametrize("backend,strategy", ZERO_START_MATRIX)
def test_steady_state_submit_starts_no_thread(backend, strategy, thread_starts):
    fields, start_args, payload, expected = case(strategy)
    app = ParallelApp(StackSpec(backend=backend, **fields))
    with app:
        app.start(*start_args)
        for i in range(WARM_UP):
            assert app.submit(*payload(i)).result(timeout=10) == expected(i)
        starts, spawns = thread_starts[0], app.backend.spawned
        for i in range(MEASURED):
            assert app.submit(*payload(i)).result(timeout=10) == expected(i)
        assert thread_starts[0] - starts == 0
        # spawn() is still called (and counted) once per activity
        assert app.backend.spawned - spawns >= MEASURED


# ---------------------------------------------------------------------------
# The pool grows, never queues
# ---------------------------------------------------------------------------


def test_more_blocked_activities_than_parked_threads_complete(thread_starts):
    """A divide-and-conquer call split into 32 leaves that all wait on
    ONE barrier: the call needs every leaf running at once, while the
    submission activity blocks on them.  A pool that made a spawn wait
    for a busy thread would deadlock here (the barrier times out
    instead)."""
    leaves = 32
    assert threads.parked_threads() < leaves
    Summer.gate = threading.Barrier(leaves, timeout=10)
    fields, _, _, _ = case("divide-conquer")
    fields["strategy_options"]["divide"] = lambda args, kwargs: [
        CallPiece(i, ([value],)) for i, value in enumerate(args[0])
    ]
    app = ParallelApp(StackSpec(backend="thread", **fields))
    try:
        with app:
            app.start()
            starts = thread_starts[0]
            values = list(range(leaves))
            assert app.submit(values).result(timeout=30) == sum(values)
            assert thread_starts[0] - starts > 0  # the pool grew
    finally:
        Summer.gate = None


def test_spawn_never_waits_for_a_busy_thread():
    backend = ThreadBackend()
    release = threading.Event()
    blocked = [backend.spawn(lambda: release.wait(10)) for _ in range(16)]
    # every activity above is busy; one more must still run right away
    assert backend.spawn(lambda: 42).join() == 42
    release.set()
    assert all(handle.join() for handle in blocked)


# ---------------------------------------------------------------------------
# Thread-local hygiene on recycled threads
# ---------------------------------------------------------------------------


def _ambient_state(aspects=()):
    flow = flow_state()
    return dict(
        ticket=current_dispatch(),
        piece=current_piece(),
        envelope=current_envelope(),
        node=current_node(),
        server_dispatch=in_server_dispatch(),
        backend_stack=list(backend_module._STATE.stack),
        flow=(list(flow.stack), flow.advice_depth, flow.construction_bypass),
        skip_init=set(default_weaver._ctor_state.skip_init_ids),
        aspect_flags=[
            getattr(local, attr, default) for local, attr, default in aspects
        ],
    )


def _clean_state(backend, aspects=()):
    return dict(
        ticket=None,
        piece=None,
        envelope=None,
        node=None,
        server_dispatch=False,
        # the spawn template wraps every activity in use_backend(backend)
        backend_stack=[backend],
        flow=([], 0, 0),
        skip_init=set(),
        aspect_flags=[default for _, _, default in aspects],
    )


def _probe_parked(backend, aspects=()):
    """Run one state probe on every parked thread at once (a barrier
    keeps each probe on its own thread); returns the observed states."""
    count = max(threads.parked_threads(), 1)
    barrier = threading.Barrier(count, timeout=10)

    def probe():
        barrier.wait()
        return _ambient_state(aspects)

    handles = [backend.spawn(probe, name="hygiene.probe") for _ in range(count)]
    return [handle.join() for handle in handles]


def test_recycled_thread_sees_no_state_from_a_task_that_raised():
    backend = ThreadBackend()
    other = ThreadBackend()
    ran_on: list[int] = []

    def dirty():
        ran_on.append(threading.get_ident())
        with use_dispatch(SimpleNamespace(context_id=-1)), use_piece(
            CallPiece(0, ())
        ), use_envelope(object()), use_node(object()), use_backend(
            other
        ), server_dispatch(), entered_advice(), entered_joinpoint(
            object()
        ), bypassing_construction():
            assert current_backend() is other
            raise RuntimeError("mid-flight")

    with pytest.raises(RuntimeError, match="mid-flight"):
        backend.spawn(dirty, name="hygiene.dirty").join()
    # the most recently parked thread is handed out first; retry until
    # the probe lands on the thread the failing task ran on
    for _ in range(200):
        state, ident = backend.spawn(
            lambda: (_ambient_state(), threading.get_ident())
        ).join()
        if ident == ran_on[0]:
            break
        time.sleep(0.005)
    else:  # pragma: no cover - the pool lost the thread
        pytest.fail("the failing task's thread was never recycled")
    assert state == _clean_state(backend)


@pytest.mark.parametrize(
    "strategy", ["farm", "dynamic-farm", "pipeline", "divide-conquer"]
)
def test_failed_submission_leaves_recycled_threads_clean(strategy):
    fields, start_args, payload, expected = case(strategy)
    app = ParallelApp(StackSpec(backend="thread", **fields))
    with app:
        app.start(*start_args)
        assert app.submit(*payload(1)).result(timeout=10) == expected(1)
        bad = ([-1, -2],) if strategy != "divide-conquer" else (
            [-1] * 8,
        )
        with pytest.raises(ValueError, match="negative payload"):
            app.submit(*bad).result(timeout=10)
        partition = app.partition
        aspects = [
            (partition._depth, "value", 0)
            if strategy == "divide-conquer"
            else (partition._internal, "active", False)
        ]
        wait_until(lambda: threads.parked_threads() > 0)
        for state in _probe_parked(app.backend, aspects):
            assert state == _clean_state(app.backend, aspects)
        # and the stack still serves calls correctly afterwards
        assert app.submit(*payload(2)).result(timeout=10) == expected(2)


def test_replica_race_flag_is_reset_on_recycled_threads():
    class Node:
        def query(self, key):
            raise KeyError(key)

    weave(Node)
    partition = SimpleNamespace(instances=[Node(), Node()])
    replication = ReplicationAspect(
        partition, replicas=2, replicated_calls="call(Node.query(..))"
    )
    default_weaver.deploy(replication)
    backend = ThreadBackend()
    with use_backend(backend):
        with pytest.raises(KeyError):
            partition.instances[0].query("k")
    aspects = [(replication._local, "racing", False)]
    wait_until(lambda: threads.parked_threads() > 0)
    for state in _probe_parked(backend, aspects):
        assert state == _clean_state(backend, aspects)


# ---------------------------------------------------------------------------
# Fork safety
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_spawns_on_its_own_threads():
    """Park threads, fork, then spawn and join in the child.  The
    child inherits the registry's memory but none of its threads: a
    spawn handed to an inherited parked entry would never run."""
    backend = ThreadBackend()
    for handle in [backend.spawn(lambda: time.sleep(0.01)) for _ in range(4)]:
        handle.join()
    assert wait_until(lambda: threads.parked_threads() >= 1)
    pid = os.fork()
    if pid == 0:  # child: report through the exit code only
        code = 1
        try:
            ran = threading.Event()
            backend.spawn(ran.set, name="child.task")
            code = 0 if ran.wait(5) else 3
        finally:
            os._exit(code)
    deadline = time.time() + 20
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.time() > deadline:  # pragma: no cover - hung child
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung spawning on the thread pool")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


# ---------------------------------------------------------------------------
# Names and keep-alive
# ---------------------------------------------------------------------------


def test_parked_thread_takes_each_tasks_name():
    backend = ThreadBackend()
    names = [
        backend.spawn(lambda: threading.current_thread().name, name=n).join()
        for n in ("first", "second", "third")
    ]
    assert names == ["first", "second", "third"]
    assert backend.spawn(lambda: threading.current_thread().name).join() == (
        f"task-{backend.spawned}"
    )


def test_parked_thread_exits_after_keep_alive(monkeypatch):
    monkeypatch.setattr(threads, "KEEP_ALIVE", 0.05)
    backend = ThreadBackend()
    thread = backend.spawn(threading.current_thread).join()
    assert wait_until(lambda: not thread.is_alive(), timeout=5)
