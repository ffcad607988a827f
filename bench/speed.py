"""The machine's current speed, measured by a fixed kernel.

The shared machines this benchmark runs on change speed by 10-60% over
seconds to minutes (other tenants of the host; CPU time drifts with wall
time, so the core itself runs slower). ``calibrate`` times a fixed mix of
the kinds of work latstab's loops do: float Gram-Schmidt and an integer
Bareiss determinant on 6x6 lists, tuple hashing, sorting and big-integer
arithmetic, and small numpy calls. A command timed between two calibrations
is rescaled to the speed at which the kernel takes ``REFERENCE_S``.
The kernel does not call latstab, so a faster program still reads faster
in proportion.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the kernel's time on the quiet machine the baseline was recorded on
REFERENCE_S = 1.0e-3

_FLOATS = [[float((7 * i + 3 * j) % 11 - 5) + 9.0 * (i == j)
            for j in range(6)] for i in range(6)]
_INTS = [[(5 * i + 2 * j) % 13 - 6 + 20 * (i == j) for j in range(6)]
         for i in range(6)]
_SMALL = np.array([[1.3, 0.2], [0.4, 0.9]])


def _gram_schmidt(rows) -> list[float]:
    bstar = [r[:] for r in rows]
    c = [0.0] * len(rows)
    for i, bi in enumerate(bstar):
        for j in range(i):
            mij = sum(x * y for x, y in zip(rows[i], bstar[j])) / c[j]
            for t, bjt in enumerate(bstar[j]):
                bi[t] -= mij * bjt
        c[i] = sum(x * x for x in bi)
    return c


def _bareiss(mat) -> int:
    a = [r[:] for r in mat]
    prev = 1
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def _objects() -> int:
    seen: dict[tuple, int] = {}
    for i in range(100):
        key = tuple((i * j + 3) % 17 for j in range(6))
        seen[key] = seen.get(key, 0) + 1
    order = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    big = 1
    for i in range(1, 25):
        big = (big * (2**61 - i)) // (i + 1) + 1
    return len(order) + big % 7


def _numpy() -> None:
    for _ in range(20):
        b = np.array(_SMALL, dtype=float)
        np.linalg.cond(b)
        float(np.abs(b @ b.T).max())


def _kernel() -> None:
    for _ in range(8):
        _gram_schmidt(_FLOATS)
        _bareiss(_INTS)
    _objects()
    _numpy()


def calibrate() -> float:
    """Seconds the kernel takes now; the best of two repeats drops one that
    was preempted."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
