"""Real-thread execution backend (functional mode).

``spawn`` runs each activity on its own OS thread — the paper's
concurrency aspect (``new Thread() { run() { proceed; } }``) with the
thread pool it names as a later optimisation plugged in underneath.
A thread whose activity finishes parks on its own lock; the next spawn
takes a parked thread and starts a new one only when none is idle, so
a steady stream of submissions starts no threads at all.  The pool
never makes a spawn wait: activities block on one another (submissions
on their pieces, pipeline stages on queues, divide-and-conquer parents
on their children), so a busy pool grows instead of queueing.  A parked
thread exits after :data:`KEEP_ALIVE` idle seconds.

Help on join: an activity is claimed exactly once, by whichever side
gets to it first — the pooled thread it was handed to, or a thread
waiting in :meth:`Future.result() <repro.runtime.futures.Future.result>`
on the future it resolves (:meth:`ThreadTask.help`).  A waiter that
claims the activity runs it on its own thread instead of sleeping until
another thread (which must first win the GIL) gets round to it.  The
pooled thread woken for a task a waiter took is reused by the next
spawn before any other thread is woken or started, so helping never
grows the pool.

Every activity, pooled or helped, runs on a fresh per-activity context
record (:func:`repro.aop.cflow.swap_flow`): it sees exactly the state a
newly started thread sees, and a helping waiter gets its own record
back afterwards, even when the activity raised.

Because of the GIL this buys no CPU-bound speed-up in CPython; it gives
the correct *semantics* (overlap, synchronisation, futures) for tests and
examples, while the performance experiments run on the simulation
backend (see DESIGN.md).
"""

from __future__ import annotations

import os
import queue as _queue
import threading
from typing import Any, Callable

from repro.aop.cflow import swap_flow
from repro.api.registry import register_backend
from repro.runtime.backend import ExecutionBackend, TaskHandle

__all__ = ["ThreadBackend", "ThreadTask", "KEEP_ALIVE", "parked_threads"]

#: seconds a parked thread waits for its next activity before exiting
KEEP_ALIVE = 10.0
#: the name a parked thread carries between activities
_PARKED_NAME = "threads.parked"


class ThreadTask(TaskHandle):
    """Handle on one activity, run by a pooled thread or by a waiter."""

    def __init__(self, fn: Callable[[], Any], name: str):
        self.name = name
        self._fn: Callable[[], Any] | None = fn
        self._result: Any = None
        self._exception: BaseException | None = None
        self._done = False
        #: held until the activity finishes; joiners wait on it
        self._running = threading.Lock()
        self._running.acquire()
        #: the pooled thread the task was handed to; the task is still
        #: unclaimed while that thread's ``task`` slot holds it
        self._parked = _Parked.hand_off(self)

    def _run(self) -> None:
        try:
            self._result = self._fn()  # type: ignore[misc]
        except BaseException as exc:  # noqa: BLE001 - re-raised in join
            self._exception = exc
        finally:
            self._fn = None
            self._done = True
            self._running.release()

    def help(self) -> bool:
        """Run the activity on the calling thread if no pooled thread has
        started it yet; False when another thread has claimed it.

        The activity runs on a fresh context record and the caller's
        record is put back afterwards, whatever the activity did."""
        if not _Parked.claim(self):
            return False
        saved = swap_flow()
        try:
            self._run()
        finally:
            swap_flow(saved)
        return True

    def join(self) -> Any:
        """Wait for the activity; return its result or re-raise its
        exception."""
        if not self._done:
            with self._running:
                pass
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def done(self) -> bool:
        """Has the activity finished (successfully or not)?"""
        return self._done


class _Parked:
    """One pooled thread: runs an activity, then parks on ``wake`` (held
    while parked) until a spawn hands it the next one.

    ``task`` is the activity handed to the thread and not yet claimed.
    It is read and cleared only under ``idle_lock``: the thread clears
    it to start the activity, a helping waiter to run it itself
    (:meth:`claim`), so each activity runs exactly once."""

    __slots__ = ("wake", "task")

    #: idle threads, most recently parked last; spawns take from the end,
    #: so the oldest idle threads are the ones whose keep-alive runs out
    idle: list["_Parked"] = []
    #: threads already woken for a task that a waiter took: each is on
    #: its way to look for its task, so the next spawn hands it one
    #: instead of waking or starting another thread
    spare: list["_Parked"] = []
    idle_lock = threading.Lock()

    def __init__(self, task: ThreadTask):
        self.wake = threading.Lock()
        self.wake.acquire()
        self.task: ThreadTask | None = task

    @classmethod
    def hand_off(cls, task: ThreadTask) -> "_Parked":
        """Hand ``task`` to a spare or idle thread, or start a new one."""
        with cls.idle_lock:
            if cls.spare:
                parked = cls.spare.pop()
                parked.task = task
                return parked
            parked = cls.idle.pop() if cls.idle else None
            if parked is not None:
                parked.task = task
        if parked is None:
            parked = cls(task)
            threading.Thread(
                target=parked._serve, name=task.name, daemon=True
            ).start()
        else:
            parked.wake.release()
        return parked

    @classmethod
    def claim(cls, task: ThreadTask) -> bool:
        """Take ``task`` away from its pooled thread before the thread
        starts it; False when the thread already has."""
        parked = task._parked
        with cls.idle_lock:
            if parked.task is not task:
                return False
            parked.task = None
            cls.spare.append(parked)
        return True

    def _serve(self) -> None:
        thread = threading.current_thread()
        idle_lock = _Parked.idle_lock
        while True:
            with idle_lock:
                task, self.task = self.task, None
                if task is None:
                    # a waiter took this thread's task: park again
                    _Parked.spare.remove(self)
                    _Parked.idle.append(self)
            if task is not None:
                thread.name = task.name
                swap_flow()  # each activity starts on a fresh record
                task._run()
                del task  # a parked thread must not pin a finished result
                thread.name = _PARKED_NAME
                with idle_lock:
                    _Parked.idle.append(self)
            if self.wake.acquire(timeout=KEEP_ALIVE):
                continue
            with idle_lock:
                if self in _Parked.idle:
                    _Parked.idle.remove(self)
                    return
            # a spawn claimed this thread as its keep-alive ran out:
            # the activity is on its way
            self.wake.acquire()

    @classmethod
    def _after_fork(cls) -> None:
        # the child has none of the parent's parked threads, and the
        # registry lock may have been held by a parent thread mid-fork
        cls.idle = []
        cls.spare = []
        cls.idle_lock = threading.Lock()


os.register_at_fork(after_in_child=_Parked._after_fork)


def parked_threads() -> int:
    """How many pooled threads are parked, waiting for an activity."""
    return len(_Parked.idle)


class _ThreadEvent:
    """threading.Event with a value slot, matching SimEvent's surface."""

    def __init__(self, name: str = "event"):
        self.name = name
        self._event = threading.Event()
        self.value: Any = None

    @property
    def is_set(self) -> bool:
        return self._event.is_set()

    def set(self, value: Any = None) -> None:
        if not self._event.is_set():
            self.value = value
            self._event.set()

    def clear(self) -> None:
        self._event.clear()
        self.value = None

    def wait(self, timeout: float | None = None) -> bool:
        return self._event.wait(timeout)


class _ThreadQueue:
    """queue.Queue adapter matching SimQueue's surface."""

    def __init__(self, name: str = "queue"):
        self.name = name
        self._q: _queue.Queue = _queue.Queue()

    def put(self, item: Any) -> None:
        self._q.put(item)

    def get(self, timeout: float | None = None) -> Any:
        try:
            return self._q.get(timeout=timeout)
        except _queue.Empty:
            raise TimeoutError(f"queue {self.name} get() timed out") from None

    def try_get(self) -> tuple[bool, Any]:
        try:
            return True, self._q.get_nowait()
        except _queue.Empty:
            return False, None

    def __len__(self) -> int:
        return self._q.qsize()


class ThreadBackend(ExecutionBackend):
    """Real threading: one pooled OS thread per running activity."""

    name = "threads"

    def __init__(self) -> None:
        self.spawned = 0

    def _spawn(
        self, fn: Callable[[], Any], name: str | None = None, daemon: bool = True
    ) -> ThreadTask:
        # all worker threads are OS daemons already; the flag only
        # matters for the simulation backend's deadlock detection.  The
        # ExecutionBackend.spawn template has already bound fn to the
        # spawning call's dispatch ticket.
        self.spawned += 1
        return ThreadTask(fn, name or f"task-{self.spawned}")

    def make_lock(self, name: str = "lock") -> threading.Lock:
        """A plain (non-reentrant) ``threading.Lock``."""
        return threading.Lock()

    def make_event(self, name: str = "event") -> _ThreadEvent:
        """A ``threading.Event`` carrying a value slot (SimEvent's
        surface)."""
        return _ThreadEvent(name)

    def make_queue(self, name: str = "queue") -> _ThreadQueue:
        """A ``queue.Queue`` adapter matching SimQueue's surface."""
        return _ThreadQueue(name)


@register_backend("thread")
def _make_thread_backend(cluster: Any = None, sim: Any = None) -> ThreadBackend:
    """Registry factory for the functional (real-thread) backend; the
    cluster/sim context is irrelevant here and ignored."""
    return ThreadBackend()
