#!/usr/bin/env python3
"""Self-test of run.py: wrong results are counted as failed.

Run from the repository root::

    python3 perfbench/selftest.py

It swaps the tiny farm's ``x + 1`` servant for deliberately wrong ones
and runs the benchmark end to end for a second each.  Every wrong result
and every raised exception must show up in ``failed`` (and make the run
incorrect) while the run itself completes and keeps calling, and the
result line must stay strict JSON (no ``NaN`` from figures derived from
failed calls).
"""

from __future__ import annotations

import json
import sys

import run
from workloads import TinyFarmThread

NAME = TinyFarmThread.name


class OffByOne:
    """Returns ``x + 2``: every call's result is wrong."""

    def bump(self, x):
        return x + 2


class RaisesOnThrees:
    """Raises for multiples of three: some calls fail, the rest are right."""

    def bump(self, x):
        if x % 3 == 0:
            raise ValueError(f"{x} is a multiple of three")
        return x + 1


def with_servant(servant: type) -> type:
    class Wrong(TinyFarmThread):
        def __init__(self, seed, *probe):
            super().__init__(seed, *probe, servant=servant)

    return Wrong


def strict_json(line: str) -> dict:
    """Parse ``line`` as strict JSON: NaN and Infinity are rejected."""

    def reject(constant: str) -> None:
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(line, parse_constant=reject)


def check(servant: type, trace: bool) -> None:
    run.WORKLOADS[NAME] = with_servant(servant)
    result, lines = run.run(NAME, 7, 1.0, trace)
    summary = "\n".join(lines)
    # the result line as run.py prints it must parse as strict JSON
    assert strict_json(json.dumps(result)) == result, summary
    attempted, failed = result["attempted"], result["failed"]
    assert attempted > 0, summary
    assert result["correct"] is False, summary
    assert lines[-1].startswith("first failed call: "), summary
    if servant is OffByOne:
        assert failed == attempted, summary
        assert "failed_frac=1 fraction" in lines[0], summary
    else:
        # about a fifth of the seeded 4-int payloads hold no multiple of 3
        assert 0 < failed < attempted, summary
    print(f"ok {servant.__name__} trace={int(trace)}: {failed}/{attempted} failed")


def main() -> int:
    original = run.WORKLOADS[NAME]
    try:
        for servant in (OffByOne, RaisesOnThrees):
            for trace in (False, True):
                check(servant, trace)
    finally:
        run.WORKLOADS[NAME] = original
    return 0


if __name__ == "__main__":
    sys.exit(main())
