"""Synchronisation (paper Section 4.2, Figure 12 bottom).

"each PrimeFilter object must be protected against concurrent
invocations to avoid data races, since its implementation is not thread
safe" — an around advice serialising calls per *target object*, the
aspect rendition of ``synchronized (target) { proceed; }``.

Declared after the spawn advice in the concurrency module, so it runs
*inside* the spawned activity: many activities may exist per object, but
only one executes the object's method at a time.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable

from repro.aop import abstract_pointcut, around, pointcut
from repro.parallel.concern import LAYER, Concern, ParallelAspect
from repro.runtime.backend import current_backend

__all__ = ["SynchronisationAspect"]


class SynchronisationAspect(ParallelAspect):
    """Per-target mutual exclusion."""

    concern = Concern.CONCURRENCY
    # one step below the spawn advice so it nests inside the new activity
    precedence = LAYER["concurrency"] - 1

    guarded_calls = abstract_pointcut("calls to serialise per target")

    def __init__(self, guarded_calls: str | None = None):
        if guarded_calls is not None:
            self.guarded_calls = pointcut(guarded_calls)
        #: id(target) -> (weak reference to the target, its lock).  Keyed
        #: by id because targets need not be hashable; the reference is
        #: weak so a guarded target is not kept alive by its lock
        self._locks: dict[int, tuple[Callable[[], Any], Any]] = {}
        #: creates each target's lock exactly once (two first callers
        #: must share one lock); reentrant because a reference callback
        #: may run on a thread that already holds it
        self._guard = threading.RLock()
        self.guarded = 0

    def _lock_for(self, target: Any) -> Any:
        key = id(target)
        entry = self._locks.get(key)
        if entry is not None and entry[0]() is target:
            return entry[1]
        with self._guard:
            entry = self._locks.get(key)
            if entry is None or entry[0]() is not target:
                entry = (
                    self._reference(target, key),
                    current_backend().make_lock(name=f"sync.{key}"),
                )
                self._locks[key] = entry
            return entry[1]

    def _reference(self, target: Any, key: int) -> Callable[[], Any]:
        """A weak reference to ``target`` that drops its lock entry when
        the target is collected (a strong one for targets that cannot be
        weakly referenced: those stay until undeploy)."""

        def forget(ref: Any) -> None:
            with self._guard:
                entry = self._locks.get(key)
                if entry is not None and entry[0] is ref:
                    del self._locks[key]

        try:
            return weakref.ref(target, forget)
        except TypeError:
            return lambda: target

    @around("guarded_calls")
    def serialise(self, jp):
        if self.passthrough(jp):
            return jp.proceed()
        self.guarded += 1
        with self._lock_for(jp.target):
            return jp.proceed()

    def on_undeploy(self) -> None:
        with self._guard:
            self._locks.clear()
