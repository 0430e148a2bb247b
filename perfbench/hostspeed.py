"""Host-speed normalization: times scaled to a fixed reference speed.

A shared virtual machine does not run at one speed.  On the 2-vCPU host this
benchmark was built on, the same pure-Python code ran about 1.5x slower for
stretches of 5 to 30 seconds, and how much of a 25-second run fell into such
a stretch set most of the spread between runs.  So the runner times a fixed
pure-Python kernel (`tick`) before the first op and after every op, and once
the batch has run scales each op's times by `factors`: REF_TICK_S over the
median of the WINDOW ticks on either side of the op.  One tick alone is
skewed by preemption and by the caches the op before it left, and as the op
order is shuffled by seed, that skew moved results from seed to seed.  A
reported second is then a second at the speed at which the kernel takes
REF_TICK_S.

The kernel uses none of the library, so a change to the library moves the
reported times by the same ratio as the raw ones.  It mixes the operations
the library spends its time in: products of large integers, small big-integer
steps, joining and slicing strings, and a character-by-character scan with a
running minimum.  Small-int loops were left out: the slow stretches slowed
them less than the library's code.  The raw times are printed too, on the
lines before the result.
"""

from __future__ import annotations

import statistics
import time

# About the kernel's median time on the reference host (Intel Xeon, 2 vCPU,
# Python 3.11); it fixes the unit, so it must not change between commits.
REF_TICK_S = 0.003
# Ticks on each side of an op that set its factor; ops take milliseconds to
# a second, the slow stretches last seconds.
WINDOW = 4

_BIG = 3**40000
_PARTS = tuple("ab"[i & 1] * (i % 7) for i in range(6000))
_TEXT = "aab" * 1000


def tick() -> float:
    """Seconds the fixed kernel takes now (about REF_TICK_S).

    It creates no container, so it never starts a garbage-collection pass.
    """
    t0 = time.perf_counter()
    x = (_BIG * _BIG) & 1  # one large product; it is odd, so x starts at 1
    for i in range(1, 1500):
        x = x * 3 + i
    text = "".join(_PARTS)
    hits = 0
    for i in range(0, len(text), 3):
        if text[i : i + 4] == "abab":
            hits += 1
    c = lo = 0
    for ch in _TEXT:
        c += 1 if ch == "a" else -1
        if c < lo:
            lo = c
    return time.perf_counter() - t0


def factors(ticks: list[float]) -> list[float]:
    """Scale factor of each op, where op i ran between ticks[i] and ticks[i + 1]."""
    return [
        REF_TICK_S / statistics.median(ticks[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i in range(len(ticks) - 1)
    ]
