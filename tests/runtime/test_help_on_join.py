"""Help-on-join: a waiter runs the activity behind its future.

A ``ThreadTask`` is claimed exactly once — by the pooled thread it was
handed to, or by a thread waiting in ``Future.result()`` on the future
it resolves, which then runs it on its own thread.  These tests hold
that mechanism to its contract:

* every activity runs exactly once, however joiners and pooled threads
  race for it;
* helping never grows the pool: the thread woken for a task a waiter
  took is reused by the next spawn;
* a helped activity runs on a fresh context record (what a new thread
  sees), keeping only the ticket and piece bound at spawn time, and the
  waiter's own record comes back afterwards — even when the activity
  raised;
* ``result(timeout)`` runs a claimed activity to completion, while the
  deadline-bounded wait inside ``submit(timeout=...)`` never helps and
  so still returns control at the deadline;
* futures whose activity cannot move between threads (the simulation
  backend's) never help.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.aop.cflow import (
    entered_advice,
    entered_joinpoint,
    flagged,
    flow_state,
)
from repro.api import ParallelApp, StackSpec
from repro.errors import DeadlineExceeded
from repro.middleware.context import (
    current_node,
    in_server_dispatch,
    server_dispatch,
    use_node,
)
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece
from repro.runtime import ThreadBackend, threads
from repro.runtime.admission import current_envelope, use_envelope
from repro.runtime.backend import current_backend
from repro.runtime.dispatch import (
    current_dispatch,
    current_piece,
    use_dispatch,
    use_piece,
)
from repro.runtime.futures import Future


@pytest.fixture()
def unserved_pool(monkeypatch):
    """Hand every task to a pool slot that no thread serves, so the only
    way it runs is a waiter claiming it — the moment before the pooled
    thread gets the GIL, held open.  Slots a claim parked on the spare
    list are dropped afterwards (no thread would ever take them)."""
    slots = []

    def hand_off(cls, task):
        slots.append(threads._Parked(task))
        return slots[-1]

    monkeypatch.setattr(threads._Parked, "hand_off", classmethod(hand_off))
    try:
        yield
    finally:
        with threads._Parked.idle_lock:
            threads._Parked.spare[:] = [
                parked for parked in threads._Parked.spare if parked not in slots
            ]


def spawn_future(backend, fn, name="help.task"):
    """A future resolved by an activity spawned for ``fn``, carrying
    that activity as its producer (the shape the runtime builds)."""
    future = Future(name=name, backend=backend)

    def task():
        try:
            future.set_result(fn())
        except Exception as exc:  # noqa: BLE001 - delivered via future
            future.set_exception(exc)

    future.producer = backend.spawn(task, name=name)
    return future


# ---------------------------------------------------------------------------
# Exactly once
# ---------------------------------------------------------------------------


def test_each_task_runs_exactly_once_under_racing_joiners(monkeypatch):
    # the race grows the pool well past its usual size; a short
    # keep-alive lets it shrink back before the next test
    monkeypatch.setattr(threads, "KEEP_ALIVE", 0.05)
    backend = ThreadBackend()
    count, joiners = 3000, 3
    runs = [[] for _ in range(count)]
    futures = []

    def body(i):
        runs[i].append(threading.get_ident())  # list.append is atomic
        time.sleep(0.0002)  # widen the started-but-unfinished window
        return i

    ready = threading.Barrier(joiners + 1, timeout=10)
    failures = []

    def join_all(seed):
        order = list(range(count))
        random.Random(seed).shuffle(order)
        ready.wait()
        try:
            for i in order:
                while len(futures) <= i:  # not spawned yet
                    time.sleep(0)
                assert futures[i].result(timeout=10) == i
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    racers = [
        threading.Thread(target=join_all, args=(seed,))
        for seed in range(joiners)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads as often as possible
    try:
        for racer in racers:
            racer.start()
        ready.wait()
        main = threading.get_ident()
        for i in range(count):
            futures.append(spawn_future(backend, lambda i=i: body(i)))
        for racer in racers:
            racer.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(racer.is_alive() for racer in racers)
    assert not failures
    assert all(len(ran) == 1 for ran in runs)
    helpers = {ident for ran in runs for ident in ran}
    joiner_idents = {racer.ident for racer in racers}
    # both sides won some: joiners helped, pooled threads ran the rest
    assert helpers & joiner_idents
    assert helpers - joiner_idents - {main}
    deadline = time.monotonic() + 10
    while threads.parked_threads() > 4 and time.monotonic() < deadline:
        time.sleep(0.01)


def test_a_waiter_runs_an_unstarted_task_itself(unserved_pool):
    backend = ThreadBackend()
    future = spawn_future(backend, threading.get_ident)
    assert future.result() == threading.get_ident()
    # the claim is final: the task is done, nobody else can run it
    assert future.producer.done
    assert future.producer.help() is False


def test_a_started_task_is_not_claimed_again():
    backend = ThreadBackend()
    started, release = threading.Event(), threading.Event()

    def body():
        started.set()
        release.wait(10)
        return threading.get_ident()

    future = spawn_future(backend, body)
    assert started.wait(10)
    assert future.producer.help() is False
    release.set()
    assert future.result(timeout=10) != threading.get_ident()


# ---------------------------------------------------------------------------
# No pool growth
# ---------------------------------------------------------------------------


class Service:
    def __init__(self, tag=0):
        self.tag = tag

    def handle(self, x):
        return x + 1


@pytest.fixture()
def no_idle_threads():
    """Occupy every currently parked thread, so the pool under test
    starts empty and any growth shows up as thread starts."""
    backend = ThreadBackend()
    release = threading.Event()
    busy = [
        backend.spawn(lambda: release.wait(30))
        for _ in range(threads.parked_threads())
    ]
    try:
        yield
    finally:
        release.set()
        for handle in busy:
            handle.join()


def test_helped_submits_keep_the_pool_bounded(no_idle_threads, monkeypatch):
    starts = [0]
    start = threading.Thread.start

    def counted(thread):
        starts[0] += 1
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    app = ParallelApp(
        StackSpec(
            target=Service,
            work="handle",
            splitter=WorkSplitter(duplicates=4, combine=lambda rs: rs[0]),
            strategy="farm",
            backend="thread",
        )
    )
    with app:
        app.start()
        for i in range(50):
            assert app.submit(i).result(timeout=10) == i + 1
        base_threads, base_starts = threading.active_count(), starts[0]
        peak_threads, peak_parked = base_threads, threads.parked_threads()
        for i in range(2000):
            assert app.submit(i).result(timeout=10) == i + 1
            peak_threads = max(peak_threads, threading.active_count())
            peak_parked = max(peak_parked, threads.parked_threads())
        # one call needs at most 5 activities (a submission + 4 pieces);
        # a pool that woke a new thread per helped task grows by dozens
        assert starts[0] - base_starts <= 5
        assert peak_threads <= base_threads + 5
        assert peak_parked <= 10


# ---------------------------------------------------------------------------
# The helped activity's context record
# ---------------------------------------------------------------------------


def snapshot():
    flow = flow_state()
    return dict(
        ticket=current_dispatch(),
        piece=current_piece(),
        envelope=current_envelope(),
        node=current_node(),
        server_dispatch=in_server_dispatch(),
        backends=list(flow.backends),
        stack=list(flow.stack),
        advice_depth=flow.advice_depth,
        construction_bypass=flow.construction_bypass,
        skip_init=set(flow.skip_init_ids),
        flags=dict(flow.flags),
        thread=threading.get_ident(),
    )


def test_helped_task_sees_a_fresh_record_with_its_bound_ticket(
    unserved_pool,
):
    backend = ThreadBackend()
    ticket = SimpleNamespace(context_id=-7)
    piece = CallPiece(3, ())
    aspect = object()
    with use_dispatch(ticket), use_piece(piece), use_envelope(
        object()
    ), use_node(object()), server_dispatch(), entered_advice(), (
        entered_joinpoint(object())
    ), flagged(aspect):
        before = snapshot()
        future = spawn_future(backend, snapshot)
        seen = future.result()
        assert snapshot() == before
    assert seen["thread"] == threading.get_ident()  # it was helped
    assert seen == dict(
        ticket=ticket,
        piece=piece,
        envelope=None,
        node=None,
        server_dispatch=False,
        backends=[backend],
        stack=[],
        advice_depth=0,
        construction_bypass=0,
        skip_init=set(),
        flags={},
        thread=threading.get_ident(),
    )


def test_joiners_record_is_restored_after_a_task_that_raises(
    unserved_pool,
):
    backend = ThreadBackend()
    other = ThreadBackend()
    ran_on = []

    def dirty():
        ran_on.append(threading.get_ident())
        flow = flow_state()
        flow.skip_init_ids.add(-1)
        flow.flags["dirty"] = True
        flow.backends.append(other)
        flow.advice_depth += 1
        raise RuntimeError("mid-flight")

    record = flow_state()
    with entered_advice(), flagged("mine", 1):
        before = snapshot()
        future = spawn_future(backend, dirty)
        with pytest.raises(RuntimeError, match="mid-flight"):
            future.result()
        assert flow_state() is record
        assert snapshot() == before
    assert ran_on == [threading.get_ident()]  # it was helped
    assert current_backend() is not other


# ---------------------------------------------------------------------------
# result(timeout) and deadlines
# ---------------------------------------------------------------------------


class Sleeper:
    delay = 0.3

    def handle(self, x):
        time.sleep(Sleeper.delay)
        return x + 1


def sleeper_app():
    # partition-less: the concurrency aspect spawns the call, and the
    # submission activity unwraps its future under the call's deadline
    return ParallelApp(
        StackSpec(
            target=Sleeper,
            work="handle",
            strategy="none",
            concurrency=True,
            backend="thread",
        )
    )


def test_submit_deadline_returns_control_at_the_deadline(unserved_pool):
    app = sleeper_app()
    with app:
        app.start()
        began = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            app.submit(1, timeout=0.05).result()
        assert time.monotonic() - began < 0.15


def test_result_timeout_runs_a_claimed_task_to_completion(unserved_pool):
    app = sleeper_app()
    with app:
        app.start()
        future = app.submit(1)
        began = time.monotonic()
        # the caller claims the submission (and, through it, the call):
        # the timeout bounds waiting for another thread, not claimed work
        assert future.result(timeout=0.05) == 2
        assert time.monotonic() - began >= Sleeper.delay


# ---------------------------------------------------------------------------
# Simulation futures never help
# ---------------------------------------------------------------------------


def test_simulation_futures_never_help():
    app = ParallelApp(
        StackSpec(
            target=Service,
            work="handle",
            splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
            strategy="farm",
            backend="sim",
        )
    )
    helped = []
    with app:
        app.start()

        def inside():
            future = app.submit(4)
            helped.append(future.producer.help())
            return future.result()

        assert app.execute(inside) == 5
        # from outside the simulation the call is driven to completion
        assert app.submit(5).producer is None
    assert helped == [False]
