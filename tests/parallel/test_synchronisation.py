"""``SynchronisationAspect`` on real threads: the per-target lock is
created exactly once even when two first callers race for it, and a
guarded target is not kept alive by its lock."""

from __future__ import annotations

import gc
import threading
import time
import weakref

from repro.aop import weave
from repro.aop.weaver import default_weaver
from repro.parallel import SynchronisationAspect
from repro.runtime import ThreadBackend, use_backend


class Counter:
    """Records how many callers are inside ``slow`` at once."""

    def __init__(self):
        self.inside = 0
        self.peak = 0

    def slow(self):
        self.inside += 1
        self.peak = max(self.peak, self.inside)
        time.sleep(0.05)
        self.inside -= 1
        return self.peak


class GatedBackend(ThreadBackend):
    """Holds the first lock creation until a second one starts (or half
    a second passes): the window in which two first callers on one
    target could each make their own lock."""

    def __init__(self):
        super().__init__()
        self.locks_made = 0
        self._second = threading.Event()

    def make_lock(self, name="lock"):
        self.locks_made += 1
        if self.locks_made == 1:
            self._second.wait(0.5)
        else:
            self._second.set()
        return super().make_lock(name)


def deploy_sync():
    weave(Counter)
    aspect = SynchronisationAspect(guarded_calls="call(Counter.slow(..))")
    default_weaver.deploy(aspect)
    return aspect


def test_two_first_callers_share_one_lock():
    deploy_sync()
    backend = GatedBackend()
    target = Counter()
    start = threading.Barrier(2, timeout=10)

    def call():
        with use_backend(backend):
            start.wait()
            target.slow()

    callers = [threading.Thread(target=call) for _ in range(2)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(10)
    assert backend.locks_made == 1
    assert target.peak == 1


def test_a_guarded_target_is_not_pinned_by_its_lock():
    aspect = deploy_sync()
    target = Counter()
    assert target.slow() == 1
    assert len(aspect._locks) == 1
    ref = weakref.ref(target)
    del target
    gc.collect()
    assert ref() is None
    assert aspect._locks == {}


def test_a_live_target_keeps_its_lock():
    aspect = deploy_sync()
    target = Counter()
    target.slow()
    lock = aspect._lock_for(target)
    gc.collect()
    assert aspect._lock_for(target) is lock
