"""The per-activity context record, and control-flow state for dynamic
pointcuts.

Every piece of ambient, per-activity state the framework keeps lives in
ONE plain ``__slots__`` record per thread (simulated processes are real
threads, so this covers every execution backend):

* the stack of joinpoints currently executing — powering ``cflow(..)``
  and ``cflowbelow(..)``;
* the advice-execution depth — powering ``adviceexecution()`` and the
  default rule that *initialization* joinpoints are not re-matched for
  constructions performed inside advice (the paper: "This pointcut only
  intercepts object creations in the core functionality");
* the construction-bypass depth and the weaver's skip-init set;
* the ambient dispatch tickets and pieces (:mod:`repro.runtime.dispatch`),
  backends (:mod:`repro.runtime.backend`) and admission envelopes
  (:mod:`repro.runtime.admission`);
* the placement node and server-dispatch depth
  (:mod:`repro.middleware.context`);
* aspect-private per-activity flags (``flags``, keyed by the aspect).

Every attribute read on a ``threading.local`` pays a thread-dictionary
lookup, which adds up on the woven hot path (the compiled dispatch plans
touch flow state half a dozen times per call).  The record is therefore
reachable through *one* ``threading.local`` attribute: ``flow_state()``
resolves the thread dictionary once, and every subsequent field access
is an ordinary slot load.

Because it is one record, an activity's whole context is swapped with
one pointer store (:func:`swap_flow`): a pooled thread installs a fresh
record for each activity it runs, and a caller that runs a pending
activity while it waits for it (help-on-join, see
:mod:`repro.runtime.threads`) installs a fresh record around it and puts
its own back afterwards.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aop.joinpoint import JoinPoint

__all__ = [
    "flow_state",
    "swap_flow",
    "current_stack",
    "advice_depth",
    "in_advice",
    "entered_joinpoint",
    "entered_advice",
    "construction_bypass",
    "bypassing_construction",
    "flag",
    "flagged",
]


class _Flow:
    """Per-activity context record; plain slots so field access is cheap.

    A fresh record is exactly what a newly started thread sees: every
    stack empty, every depth zero, no node and no flags.
    """

    __slots__ = (
        "stack",
        "advice_depth",
        "construction_bypass",
        "skip_init_ids",
        "tickets",
        "pieces",
        "backends",
        "envelopes",
        "node",
        "server_depth",
        "flags",
    )

    def __init__(self) -> None:
        self.stack: list["JoinPoint"] = []
        self.advice_depth: int = 0
        self.construction_bypass: int = 0
        #: ids of instances whose woven ``__init__`` must not run again
        self.skip_init_ids: set[int] = set()
        #: ambient dispatch tickets and in-flight pieces, innermost last
        self.tickets: list[Any] = []
        self.pieces: list[Any] = []
        #: ambient execution backends, innermost last
        self.backends: list[Any] = []
        #: ambient admission slots, innermost last
        self.envelopes: list[Any] = []
        #: the cluster node the activity is placed on
        self.node: Any = None
        #: nesting depth of middleware server dispatch
        self.server_depth: int = 0
        #: aspect-private per-activity flags, keyed by the aspect
        self.flags: dict[Any, Any] = {}


class _FlowLocal(threading.local):
    def __init__(self) -> None:
        self.flow = _Flow()


_LOCAL = _FlowLocal()


def flow_state() -> _Flow:
    """This thread's flow state; fetch once, then use plain attributes."""
    return _LOCAL.flow


def swap_flow(flow: _Flow | None = None) -> _Flow:
    """Install ``flow`` (a fresh record when ``None``) as this thread's
    context record; returns the record it replaced, which the caller
    puts back with another ``swap_flow`` when the activity is done."""
    local = _LOCAL
    previous = local.flow
    local.flow = _Flow() if flow is None else flow
    return previous


def current_stack() -> list["JoinPoint"]:
    """The joinpoints currently executing on this thread, outermost first."""
    return _LOCAL.flow.stack


def advice_depth() -> int:
    return _LOCAL.flow.advice_depth


def in_advice() -> bool:
    """Is this thread currently executing advice code?"""
    return _LOCAL.flow.advice_depth > 0


def construction_bypass() -> bool:
    """Is construction currently bypassing the weaver (``proceed`` of an
    initialization joinpoint, or :func:`repro.aop.raw_construct`)?"""
    return _LOCAL.flow.construction_bypass > 0


@contextmanager
def entered_joinpoint(jp: "JoinPoint") -> Iterator[None]:
    """Push ``jp`` on the thread's control-flow stack for cflow matching."""
    stack = _LOCAL.flow.stack
    stack.append(jp)
    try:
        yield
    finally:
        stack.pop()


@contextmanager
def entered_advice() -> Iterator[None]:
    """Mark advice execution (for ``adviceexecution()`` pointcuts)."""
    flow = _LOCAL.flow
    flow.advice_depth += 1
    try:
        yield
    finally:
        flow.advice_depth -= 1


@contextmanager
def bypassing_construction() -> Iterator[None]:
    """Run a block during which woven constructors use the raw path."""
    flow = _LOCAL.flow
    flow.construction_bypass += 1
    try:
        yield
    finally:
        flow.construction_bypass -= 1


_UNSET = object()


def flag(key: Any, default: Any = None) -> Any:
    """The activity's flag under ``key`` (an aspect keeps its private
    per-activity state here, keyed by itself), or ``default``."""
    return _LOCAL.flow.flags.get(key, default)


@contextmanager
def flagged(key: Any, value: Any = True) -> Iterator[None]:
    """Set the activity's flag under ``key`` to ``value`` within the
    block; the previous value (or its absence) comes back afterwards."""
    flags = _LOCAL.flow.flags
    previous = flags.get(key, _UNSET)
    flags[key] = value
    try:
        yield
    finally:
        if previous is _UNSET:
            del flags[key]
        else:
            flags[key] = previous
