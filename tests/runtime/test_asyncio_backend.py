"""Unit coverage for the asyncio execution backend: the loop clock,
the dual-face event, coroutine bridging, fire-and-forget detachment,
the base backend's awaitable rejection, registry/spec rules, and the
``"loop"`` fault site."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.api import StackSpec
from repro.api.registry import BACKENDS
from repro.errors import BackendError, DeploymentError
from repro.faults.schedule import FAULT_SITES, FaultEvent
from repro.runtime import AsyncioBackend, AsyncioEvent, ThreadBackend
from repro.runtime.futures import Future


@pytest.fixture()
def backend():
    return AsyncioBackend()


class TestLoopClock:
    def test_now_is_the_loop_clock(self, backend):
        assert abs(backend.now() - backend.loop.time()) < 0.5

    def test_now_advances(self, backend):
        t0 = backend.now()
        time.sleep(0.01)
        assert backend.now() > t0


class TestAsyncioEvent:
    def test_make_event_is_dual_face(self, backend):
        event = backend.make_event(name="gate")
        assert isinstance(event, AsyncioEvent)
        assert not event.is_set
        event.set("payload")
        assert event.is_set
        assert event.value == "payload"
        assert event.wait(timeout=1.0)
        event.clear()
        assert not event.is_set
        assert event.value is None

    def test_set_wakes_a_loop_side_awaiter(self, backend):
        event = backend.make_event(name="gate")

        async def parked():
            await event.wait_async()
            return "woken"

        # bridge() owns starting the loop; the await parks loop-side
        future = backend.bridge(parked())
        assert not future.resolved
        event.set()
        assert future.result(timeout=5.0) == "woken"


class TestBridge:
    def test_plain_value_resolves_without_the_loop(self, backend):
        started = backend.tasks_started
        future = backend.bridge(42)
        assert future.resolved
        assert future.result() == 42
        assert backend.tasks_started == started  # no loop round-trip

    def test_coroutine_runs_as_a_loop_task(self, backend):
        async def produce():
            await asyncio.sleep(0.001)
            return "done"

        future = backend.bridge(produce())
        assert isinstance(future, Future)
        assert future.result(timeout=5.0) == "done"
        assert backend.tasks_started >= 1
        assert backend.tasks_finished >= 1

    def test_exceptions_cross_the_bridge(self, backend):
        async def explode():
            raise ValueError("loop-side failure")

        with pytest.raises(ValueError, match="loop-side failure"):
            backend.bridge(explode()).result(timeout=5.0)

    def test_pack_list_gathers_concurrently_in_order(self, backend):
        async def item(i):
            await asyncio.sleep(0.01)
            return i

        # mixed pack: plain values keep their slots, awaitables gather
        t0 = time.perf_counter()
        out = backend.finish([item(0), "plain", item(2), item(3)])
        elapsed = time.perf_counter() - t0
        assert out == [0, "plain", 2, 3]
        # concurrent, not sequential: 3 x 10ms awaits well under 30ms
        assert elapsed < 0.25

    def test_finish_passes_plain_values_through(self, backend):
        assert backend.finish("untouched") == "untouched"
        assert backend.finish([1, 2]) == [1, 2]

    def test_detach_schedules_and_forgets(self, backend):
        done = []

        async def work():
            done.append(True)

        backend.detach(work())
        deadline = time.time() + 5.0
        while time.time() < deadline and not done:
            time.sleep(0.005)
        assert done == [True]


class Fetcher:
    def __init__(self, tag=0):
        self.tag = tag

    async def fetch(self, index):
        await asyncio.sleep(0.001)
        return 1


class TestFanOutCounts:
    """The asyncio farm's concurrency cost, counted: one backend spawn
    (the submission activity) per submit and one loop task per piece —
    no thread per concurrent wait, whatever the box's timing."""

    def test_one_spawn_per_submit_and_one_loop_task_per_piece(self):
        from repro.api import ParallelApp
        from repro.parallel import WorkSplitter
        from repro.parallel.partition import CallPiece

        pieces = 16
        app = ParallelApp(
            StackSpec(
                target=Fetcher,
                work="fetch",
                splitter=WorkSplitter(
                    duplicates=pieces,
                    split=lambda args, kwargs: [
                        CallPiece(i, (i,)) for i in range(args[0])
                    ],
                    combine=sum,
                ),
                strategy="farm",
                backend="asyncio",
            )
        )
        with app:
            app.start()
            assert app.submit(pieces).result(timeout=30) == pieces
            for _ in range(5):
                spawned = app.backend.spawned
                tasks = app.backend.tasks_started
                assert app.submit(pieces).result(timeout=30) == pieces
                assert app.backend.spawned - spawned == 1
                assert app.backend.tasks_started - tasks == pieces


class TestBaseBackendRejection:
    def test_thread_finish_rejects_coroutines(self):
        async def orphan():
            return 1

        with pytest.raises(BackendError, match="backend='asyncio'"):
            ThreadBackend().finish(orphan())

    def test_thread_finish_rejects_packs_with_awaitables(self):
        async def orphan():
            return 1

        with pytest.raises(BackendError, match="backend='asyncio'"):
            ThreadBackend().finish([1, orphan()])

    def test_thread_finish_passes_plain_values(self):
        assert ThreadBackend().finish([1, 2, 3]) == [1, 2, 3]


class TestRegistryAndSpec:
    def test_registered_under_asyncio(self):
        import repro.runtime  # noqa: F401 - triggers registration

        made = BACKENDS.get("asyncio")()
        assert isinstance(made, AsyncioBackend)
        assert made.name == "asyncio"

    def test_factory_rejects_clusters(self):
        import repro.runtime  # noqa: F401

        with pytest.raises(BackendError, match="simulated cluster"):
            BACKENDS.get("asyncio")(cluster=object())

    def _spec(self, **overrides):
        class Io:
            async def ping(self, x):
                return x

        fields = dict(target=Io, work="ping", strategy="none", backend="asyncio")
        fields.update(overrides)
        return StackSpec(**fields)

    def test_spec_rejects_cluster(self):
        with pytest.raises(DeploymentError, match="simulated cluster"):
            self._spec(cluster=object()).validate()

    def test_spec_rejects_placement(self):
        with pytest.raises(DeploymentError, match="placement"):
            self._spec(placement=object()).validate()

    def test_spec_rejects_middlewares(self):
        with pytest.raises(DeploymentError, match="pairs only with middleware"):
            self._spec(middleware="rmi", cluster=None).validate()

    def test_spec_allows_native_oneway(self):
        # middleware-less oneway is legal ONLY on asyncio (the loop is
        # the transport); the thread backend still rejects it
        self._spec(oneway=("ping",)).validate()
        with pytest.raises(DeploymentError, match="distribution middleware"):
            self._spec(backend="thread", oneway=("ping",)).validate()


class TestLoopFaultSite:
    def test_loop_is_a_known_site(self):
        assert "loop" in FAULT_SITES
        assert FaultEvent("drop_reply", site="loop").site == "loop"

    def test_delay_reply_is_awaitable(self, backend):
        from repro.faults import FaultSchedule
        from repro.faults.schedule import use_faults

        async def quick():
            return "v"

        schedule = FaultSchedule(
            [FaultEvent("delay_reply", site="loop", on_call=1, delay=0.05)]
        )
        with use_faults(schedule):
            t0 = time.perf_counter()
            assert backend.finish(quick()) == "v"
            assert time.perf_counter() - t0 >= 0.04
        assert schedule.fired_count() == 1
