"""Floating-point Gram-Schmidt and LLL reduction for small bases.

The engine works on plain lists of floats; at the dimensions this package
targets (n <= 8 or so) that is faster than numpy row operations. The integer
change-of-basis matrix is accumulated alongside the float rows so callers
can replay the reduction on exact integer data.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegenerateBasisError
from .intmat import IntMatrix, identity

DEFAULT_DELTA = 0.99


def dot(u, v) -> float:
    return sum(x * y for x, y in zip(u, v))


def gso(rows) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """Gram-Schmidt data (mu, c, bstar) with c[i] = |b*_i|^2."""
    m = len(rows)
    bstar = [list(map(float, r)) for r in rows]
    mu = [[0.0] * m for _ in range(m)]
    c = [0.0] * m
    for i in range(m):
        bi = bstar[i]
        for j in range(i):
            cj = c[j]
            mij = dot(rows[i], bstar[j]) / cj if cj > 0.0 else 0.0
            mu[i][j] = mij
            bj = bstar[j]
            for t in range(len(bi)):
                bi[t] -= mij * bj[t]
        c[i] = dot(bi, bi)
    return mu, c, bstar


class Frame(NamedTuple):
    """Gram-Schmidt frame of independent basis rows.

    b_i = b*_i + sum_{j<i} mu[i][j] b*_j with c[i] = |b*_i|^2 > 0; kept
    current by lll_rows, which hands it down with the reduced rows, and
    shared by Babai and the enumerators.
    """

    rows: list[list[float]]
    mu: list[list[float]]
    c: list[float]
    bstar: list[list[float]]


def lll_rows(rows, delta: float = DEFAULT_DELTA) -> tuple[Frame, IntMatrix]:
    """LLL-reduce the given basis rows.

    Returns (frame, transform): the Gram-Schmidt frame of the reduced rows
    and the integer unimodular matrix U with frame.rows == U @ rows. Raises
    DegenerateBasisError if the rows are numerically dependent or the
    reduction fails to converge.
    """
    if not 0.25 < delta < 1.0:
        raise ValueError(f"LLL delta must lie in (1/4, 1), got {delta}")
    b = [list(map(float, r)) for r in rows]
    m = len(b)
    u: IntMatrix = identity(m)
    max_swaps = 4096 + 256 * m * m
    mu, c, bstar = gso(b)
    if min(c, default=0.0) <= 0.0:
        raise DegenerateBasisError("dependent rows passed to LLL")
    k = 1
    swaps = 0
    while k < m:
        # size-reduce b_k; the mu updates below keep the GSO data exact
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                bj = b[j]
                bk = b[k]
                for t in range(len(bk)):
                    bk[t] -= q * bj[t]
                uj = u[j]
                uk = u[k]
                for t in range(m):
                    uk[t] -= q * uj[t]
                muk = mu[k]
                muj = mu[j]
                for t in range(j):
                    muk[t] -= q * muj[t]
                muk[j] -= q
        if c[k] >= (delta - mu[k][k - 1] ** 2) * c[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            swaps += 1
            if swaps > max_swaps:
                raise DegenerateBasisError("LLL failed to converge")
            mu, c, bstar = gso(b)
            if min(c) <= 0.0:
                raise DegenerateBasisError("dependent rows passed to LLL")
            k = max(k - 1, 1)
    return Frame(b, mu, c, bstar), u


def nearest_plane(frame: Frame, target) -> list[int]:
    """Babai nearest-plane coordinates of target w.r.t. the frame's rows."""
    rows, _, c, bstar = frame
    r = list(map(float, target))
    x = [0] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        xi = round(dot(r, bstar[i]) / c[i])
        x[i] = xi
        if xi:
            bi = rows[i]
            for t in range(len(r)):
                r[t] -= xi * bi[t]
    return x
