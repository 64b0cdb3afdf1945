"""The benchmark's three workloads, each built from a public ``StackSpec``.

A workload owns everything the program under test must not see: the
seeded payload generator, the check of every result, and the unwoven
sequential baseline.  The program only ever receives the
generated payloads through ``ParallelApp.submit``.

Each workload stresses different layers (see README.md for the reasons):

* ``tiny-farm-thread``   — a body that costs nothing, so the stack's own
  submit path (admission, hand-off, spawns, advice chain, future
  resolution) is the whole call;
* ``sieve-farm-process`` — the paper's prime sieve on worker processes,
  where the body and the marshal/transport of big numpy envelopes
  dominate;
* ``io-fanout-asyncio``  — ``async def`` servants awaiting seeded delays
  through the loop bridge, with two calls in flight.
"""

from __future__ import annotations

import asyncio
import random
import time
from statistics import median
from typing import Any, Callable

import numpy as np

from repro.api import ParallelApp, StackSpec
from repro.apps.primes import PrimeFilter, SieveWorkload
from repro.apps.primes.reference import expected_sieve_output
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece

__all__ = ["WORKLOADS", "Workload", "TinyFarmThread", "SieveFarmProcess",
           "IoFanoutAsyncio", "Bump", "Waiter"]

#: a probe wraps one of the benchmark's own functions for tracing; the
#: untraced runs pass the identity
Probe = Callable[[Callable[..., Any], str], Callable[..., Any]]


def _no_probe(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    return fn


class Bump:
    """The tiny farm's servant: one ``x + 1`` per piece."""

    def bump(self, x):
        return x + 1


class Waiter:
    """The fan-out's servant: await one seeded delay, echo it back."""

    async def wait(self, delay):
        await asyncio.sleep(delay)
        return delay


def _each_item(args: tuple, kwargs: dict) -> list[CallPiece]:
    """One piece per payload item."""
    return [CallPiece(i, (item,)) for i, item in enumerate(args[0])]


def _in_order(results: list) -> list:
    return list(results)


class Workload:
    """One seeded set of inputs plus the stack that serves them."""

    name = "workload"
    #: closed-loop clients, each with one call in flight
    clients = 1

    def __init__(self, seed: int, probe: Probe = _no_probe):
        self.rng = random.Random(seed)
        self.probe = probe
        #: the generated inputs; closed-loop clients cycle through them
        self.payloads: list[Any] = []

    def correct(self, result: Any, index: int) -> bool:
        """Is ``result`` the right answer for ``payloads[index]``?"""
        raise NotImplementedError

    def spec(self) -> StackSpec:
        raise NotImplementedError

    def ctor_args(self) -> tuple:
        return ()

    def sequential_s(self) -> float:
        """One timed slice of the sequential baseline: seconds per call
        of the plain servant code, unwoven (its bound methods are taken
        in ``__init__``, before any ``ParallelApp`` weaves the class)."""
        raise NotImplementedError

    def piece_body_ms(self) -> float | None:
        """In-process body time per piece for workloads whose body runs
        in another process (``None``: the traced run measures it)."""
        return None

    def servant_class(self, cls: type, method: str) -> type:
        """``cls``, or a subclass whose ``method`` is probed as the body."""
        if self.probe is _no_probe:
            return cls
        body = self.probe(getattr(cls, method), "body.piece")
        return type(cls.__name__, (cls,), {method: body})

    def build(self) -> ParallelApp:
        """Assemble, deploy and start one app (what ``setup_s`` times)."""
        app = ParallelApp(self.spec())
        app.deploy()
        app.start(*self.ctor_args())
        return app


class TinyFarmThread(Workload):
    """Four duplicates of ``x + 1`` on real threads.

    ``servant`` replaces the farmed class (the self-test farms wrong
    ones); the sequential baseline always runs :class:`Bump`."""

    name = "tiny-farm-thread"
    #: passes over the 1024 payloads per sequential-baseline slice
    SEQUENTIAL_PASSES = 32

    def __init__(self, seed: int, probe: Probe = _no_probe, servant: type = Bump):
        super().__init__(seed, probe)
        self.payloads = [[self.rng.randrange(1 << 30) for _ in range(4)] for _ in range(1024)]
        self.plain_bump = Bump().bump
        self.target = self.servant_class(servant, "bump")

    def correct(self, result: Any, index: int) -> bool:
        return result == [x + 1 for x in self.payloads[index]]

    def spec(self) -> StackSpec:
        return StackSpec(
            target=self.target,
            work="bump",
            splitter=WorkSplitter(
                duplicates=4,
                split=self.probe(_each_item, "parallel.partition.split"),
                combine=self.probe(_in_order, "parallel.partition.combine"),
            ),
            strategy="farm",
            backend="thread",
        )

    def sequential_s(self) -> float:
        # one pass over the payloads takes under a millisecond, too short
        # a slice to time steadily on a shared machine
        bump = self.plain_bump
        start = time.perf_counter()
        for _ in range(self.SEQUENTIAL_PASSES):
            for payload in self.payloads:
                [bump(x) for x in payload]
        took = time.perf_counter() - start
        return took / (self.SEQUENTIAL_PASSES * len(self.payloads))


class SieveFarmProcess(Workload):
    """The paper's section 6 prime sieve, farmed over worker processes.

    The seed picks the sieve's upper bound within 2,000,000 + [0, 1000),
    so every seed sends about 8 MB of candidates per call in 16 packs.
    """

    name = "sieve-farm-process"

    def __init__(self, seed: int, probe: Probe = _no_probe):
        super().__init__(seed, probe)
        self.sieve = SieveWorkload(2_000_000 + self.rng.randrange(1000), 16)
        self.payloads = [self.sieve.candidates]
        self.answer = expected_sieve_output(self.sieve.maximum)
        self.plain_filter = PrimeFilter(2, self.sieve.sqrt).filter

    def correct(self, result: Any, index: int) -> bool:
        return isinstance(result, np.ndarray) and np.array_equal(result, self.answer)

    def spec(self) -> StackSpec:
        sieve = self.sieve
        return StackSpec(
            target=PrimeFilter,
            work="filter",
            splitter=WorkSplitter(
                duplicates=2,
                split=self.probe(sieve.split_call, "parallel.partition.split"),
                combine=self.probe(sieve.combine, "parallel.partition.combine"),
                merge_pieces=sieve.merge_pieces,
            ),
            strategy="farm",
            backend="process",
        )

    def ctor_args(self) -> tuple:
        return (2, self.sieve.sqrt)

    def sequential_s(self) -> float:
        start = time.perf_counter()
        result = self.plain_filter(self.sieve.candidates)
        took = time.perf_counter() - start
        if not np.array_equal(result, self.answer):
            raise RuntimeError("the sequential sieve baseline is wrong")
        return took

    def piece_body_ms(self) -> float:
        sieve = self.sieve
        times = []
        for piece in sieve.split_call((sieve.candidates,), {}):
            start = time.perf_counter()
            self.plain_filter(*piece.args)
            times.append(time.perf_counter() - start)
        return median(times) * 1e3


class IoFanoutAsyncio(Workload):
    """Sixteen ``async def`` servants awaiting seeded 10-30 ms delays.

    A call waits about 29 ms for its longest delay plus 2-3 ms of the
    stack's own work.  On a contended host each of the call's thread
    wake-ups waits for a CPU, which adds about the same 3-4 ms whatever
    the delays; with 1-3 ms delays that swung ``call_p50_ms`` by 60-70%
    between runs, with 10-30 ms by about 11%."""

    name = "io-fanout-asyncio"
    clients = 2
    #: range of the seeded per-piece delays, in seconds
    DELAY_S = (0.010, 0.030)

    def __init__(self, seed: int, probe: Probe = _no_probe):
        super().__init__(seed, probe)
        self.payloads = [[self.rng.uniform(*self.DELAY_S) for _ in range(16)] for _ in range(256)]
        self.plain_wait = Waiter().wait
        self.target = self.servant_class(Waiter, "wait")
        self.next_payload = 0

    def correct(self, result: Any, index: int) -> bool:
        # all 16 delays echoed back, in piece order
        return result == self.payloads[index]

    def spec(self) -> StackSpec:
        return StackSpec(
            target=self.target,
            work="wait",
            splitter=WorkSplitter(
                duplicates=16,
                split=self.probe(_each_item, "parallel.partition.split"),
                combine=self.probe(_in_order, "parallel.partition.combine"),
            ),
            strategy="farm",
            backend="asyncio",
        )

    def sequential_s(self) -> float:
        wait = self.plain_wait

        async def one_by_one(payloads: list[list[float]]) -> None:
            for payload in payloads:
                for delay in payload:
                    await wait(delay)

        # one payload (about 0.3 s of awaits) per slice, taken in turn so
        # every slice differs
        first = self.next_payload
        self.next_payload = (first + 1) % len(self.payloads)
        loop = asyncio.new_event_loop()
        try:
            start = time.perf_counter()
            loop.run_until_complete(one_by_one(self.payloads[first:first + 1]))
            return time.perf_counter() - start
        finally:
            loop.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TinyFarmThread, SieveFarmProcess, IoFanoutAsyncio)
}
