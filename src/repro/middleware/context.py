"""Where-am-I context for distributed execution.

Tracks, per activity (on the context record of
:mod:`repro.aop.cflow`; one per thread = per simulated process):

* the :class:`~repro.cluster.machine.Node` the current activity runs on —
  the cost model charges CPU there and the network computes src→dst
  delays from it;
* whether we are inside a middleware *server dispatch* — the distribution
  aspects consult this to avoid re-redirecting the servant's own
  execution back through the middleware (the server side of the paper's
  Figure 13 executes the call locally).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.aop.cflow import _LOCAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Node

__all__ = [
    "current_node",
    "use_node",
    "in_server_dispatch",
    "server_dispatch",
]


def current_node() -> "Node | None":
    """The node the calling activity is placed on (``None`` = unplaced,
    treated as colocated/loopback by the network model)."""
    return _LOCAL.flow.node


@contextmanager
def use_node(node: "Node | None") -> Iterator[None]:
    """Pin the calling thread/process to ``node`` within the block."""
    flow = _LOCAL.flow
    previous = flow.node
    flow.node = node
    try:
        yield
    finally:
        flow.node = previous


def in_server_dispatch() -> bool:
    """Is this activity executing a servant method on behalf of the
    middleware?"""
    return _LOCAL.flow.server_depth > 0


@contextmanager
def server_dispatch() -> Iterator[None]:
    """Mark servant execution (distribution aspects must not redirect)."""
    flow = _LOCAL.flow
    flow.server_depth += 1
    try:
        yield
    finally:
        flow.server_depth -= 1
