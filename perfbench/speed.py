"""Timings on a shared machine, scaled to a nominal speed.

The machines this benchmark runs on are shared, and their speed swings by up
to 2x for spells of a fraction of a second to many seconds (another tenant on
the same core).  Raw times would make run-to-run spread swamp any change to
the program.  So each measured interval is bracketed by timings of a fixed
pure-Python reference task, three before and three after, and its time is
scaled by ``NOMINAL_REF_NS / median of the six``: the time it takes at the
speed where the reference task takes ``NOMINAL_REF_NS``.  That is about the
reference's time on an idle core of the 2-CPU machine the bounds were set
on, so scaled times read close to raw times there.  On that machine, the
pass times of one fixed op list within a run varied by about 2% scaled
(coefficient of variation) and 6% raw.  Of the reference tasks tried (dict
updates, nested-list scans, recursive calls, JSON encoding), dict updates
left the least noise.  The report prints raw times beside scaled ones.

An interpreter's start, before its first statement, is mostly process
creation and loading, which the reference task follows poorly.  It is
scaled instead by a bare interpreter's start just before it, to
``NOMINAL_START_NS``: about a bare start on that machine at the speed where
the reference task takes ``NOMINAL_REF_NS``.  No change to the program can
change this part, so at nominal speed it reads nearly the same every time.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

NOMINAL_REF_NS = 150_000
NOMINAL_START_NS = 40_000_000
BRACKET = 3  # reference timings on each side of an interval


def _task() -> dict:
    # Dict and integer work, like the interpreter-bound code it calibrates.
    table: dict[int, int] = {}
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
    return table


def references() -> list[int]:
    """Time the reference task ``BRACKET`` times."""
    times = []
    for _ in range(BRACKET):
        start = perf_counter_ns()
        _task()
        times.append(perf_counter_ns() - start)
    return times


def scale(duration_ns: int, bracket: list[int]) -> float:
    """``duration_ns`` at nominal speed, given the reference timings around it."""
    return duration_ns * NOMINAL_REF_NS / statistics.median(bracket)


def scale_start(duration_ns: int, bare_ns: int) -> float:
    """An interpreter start's time at nominal speed, given a bare start beside it."""
    return duration_ns * NOMINAL_START_NS / bare_ns
