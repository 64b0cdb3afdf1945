"""Outside-in span tracer for the benchmark's traced runs.

Nothing here changes the program: the tracer wraps public entry points
of each layer at class level (and the benchmark's own functions) for
the length of a traced phase, then puts every attribute back.  A span
is ``(id, name, start_ns, end_ns, parent_id, ticket_id)``:

* the parent is the innermost open span on the same thread, or — for
  the first span of a spawned activity — the ``spawn`` call that
  created it, so a layer's self time can subtract work that another
  thread did while the spawning call was still on the stack (on a GIL
  box ``Thread.start`` often returns only after the child ran);
* the ticket is the ambient dispatch ticket
  (:func:`repro.runtime.dispatch.dispatch_id`) when the span closes;
  spans opened before the ticket exists inherit their root's ticket,
  which the client sets from ``future.admission.ticket_id``.

Spans stay in memory until :meth:`Tracer.export` writes them as JSON
lines.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Iterable

from repro.runtime.dispatch import dispatch_id

__all__ = ["Tracer", "self_times"]

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder plus the class-level patches feeding it."""

    def __init__(self) -> None:
        #: recorded spans; ``list.append`` is atomic, so no lock
        self.spans: list[tuple] = []
        #: recording switch: wrappers installed for the whole run (the
        #: benchmark's own functions) pass straight through while off
        self.active = False
        #: ``Thread.start`` calls while active
        self.thread_starts = 0
        #: root-span id -> ticket id, filled in by the client
        self.root_tickets: dict[int, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[type, str, bool, Any]] = []
        self._lock = threading.Lock()

    # -- span recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int | None, int]:
        """Start a span on this thread; returns ``(id, parent, start)``."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, _now()

    def close(self, name: str, sid: int, parent: int | None, start: int) -> None:
        end = _now()
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, dispatch_id()))

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` recording one span per call while the tracer is active.

        Coroutine functions get a leaf span around the awaited body: a
        loop thread interleaves many tasks, so they cannot share the
        thread's span stack."""
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active:
                    return await fn(*args, **kwargs)
                start = _now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.spans.append(
                        (next(tracer._ids), name, start, _now(), None, dispatch_id())
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent, start = tracer.open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(name, sid, parent, start)

        return traced

    # -- class-level patches ----------------------------------------------------

    def _patch(self, owner: type, attr: str, replacement: Any) -> None:
        own = attr in owner.__dict__
        self._patches.append((owner, attr, own, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def patch(self, owner: type, attr: str, name: str) -> None:
        """Record a span around every ``owner.attr`` call."""
        self._patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def patch_spawn(self, backend_cls: type) -> None:
        """Span ``backend_cls.spawn`` and the activity it starts.

        The callable handed to ``spawn`` is wrapped, so the activity's
        first line opens a child span of the spawn: hand-off time is
        ``activity.start - spawn.start`` and the spawn's self time
        excludes whatever the activity ran before ``spawn`` returned."""
        tracer = self
        spawn = backend_cls.spawn

        @functools.wraps(spawn)
        def traced_spawn(backend: Any, fn: Callable[[], Any], *args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return spawn(backend, fn, *args, **kwargs)
            sid, parent, start = tracer.open()

            def activity() -> Any:
                stack = tracer._stack()
                aid = next(tracer._ids)
                stack.append(aid)
                began = _now()
                try:
                    return fn()
                finally:
                    stack.pop()
                    tracer.spans.append(
                        (aid, "runtime.backend.activity", began, _now(), sid, dispatch_id())
                    )

            # a shielded thunk must stay uncaptured by bind_dispatch
            activity.__dispatch_shielded__ = getattr(fn, "__dispatch_shielded__", False)
            try:
                return spawn(backend, activity, *args, **kwargs)
            finally:
                tracer.close("runtime.backend.spawn", sid, parent, start)

        self._patch(backend_cls, "spawn", traced_spawn)

    def patch_thread_start(self) -> None:
        """Count ``threading.Thread.start`` calls while active."""
        tracer = self
        start = threading.Thread.start

        @functools.wraps(start)
        def counted_start(thread: threading.Thread) -> None:
            if tracer.active:
                with tracer._lock:
                    tracer.thread_starts += 1
            start(thread)

        self._patch(threading.Thread, "start", counted_start)

    def unpatch(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- export -------------------------------------------------------------------

    def tickets(self) -> dict[int, int | None]:
        """Span id -> ticket id, spans without an ambient ticket taking
        their nearest ancestor's (roots: the client-set ticket)."""
        by_id = {span[0]: span for span in self.spans}
        resolved: dict[int, int | None] = {}

        def ticket_of(sid: int) -> int | None:
            if sid not in resolved:
                _, _, _, _, parent, ticket = by_id[sid]
                if ticket is None:
                    ticket = self.root_tickets.get(sid)
                if ticket is None and parent in by_id:
                    ticket = ticket_of(parent)
                resolved[sid] = ticket
            return resolved[sid]

        for sid in by_id:
            ticket_of(sid)
        return resolved

    def export(self, path: str) -> int:
        """Write every span as one JSON line; returns the line count."""
        tickets = self.tickets()
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, _ in sorted(self.spans, key=lambda s: s[2]):
                out.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "ticket": tickets.get(sid),
                }) + "\n")
        return len(self.spans)


def _covered(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> self time in ns: its duration minus the part of it
    that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, start, end, _, _ in spans
    }
