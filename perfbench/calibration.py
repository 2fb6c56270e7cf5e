"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared machine the same Python code runs up to 1.5 times slower from
one moment to the next, with the load other tenants put on the cores, and
the share of slow time shifts from minute to minute. The benchmark times
this loop next to every command it times and reports each command's time
scaled to the speed at which the loop takes REFERENCE_S, so the drift of
the machine cancels while a change in the program's own work does not. The
loop uses none of the program's code, so no change to the program can
alter its cost.
"""

from __future__ import annotations

import time

ROUNDS = 1_500
# Seconds ROUNDS of the loop take on the baseline machine (2-core x86-64,
# Python 3.11) at its fast speed; times are reported at this speed.
REFERENCE_S = 0.0018


def _loop(rounds: int) -> int:
    """Table lookups, shifts and xors on small ints, the kind of work the program does."""
    table = list(range(256))
    acc = 0
    for _ in range(rounds):
        for x in table[:16]:
            acc ^= table[(x * 7 + acc) & 255] >> 1
    return acc


def calibrate() -> float:
    """Seconds one run of the loop takes now."""
    start = time.perf_counter()
    _loop(ROUNDS)
    return time.perf_counter() - start


def warm() -> None:
    """Touch the loop's code once, so that a freshly forked process pays its page faults here."""
    _loop(10)


def scaled(seconds: float, calibration: float) -> float:
    """`seconds` measured while the loop took `calibration`, at the reference speed."""
    return seconds * REFERENCE_S / calibration
