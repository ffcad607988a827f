"""Floating-point Gram-Schmidt and LLL reduction for small bases.

The engine works on plain lists of floats; at the dimensions this package
targets (n <= 8 or so) that is faster than numpy row operations. The integer
change-of-basis matrix is accumulated alongside the float rows so callers
can replay the reduction on exact integer data.

LLL computes one Gram-Schmidt row per stage (Schnorr and Euchner, Math.
Programming 66, 1994), not the whole frame after each swap. Cohen's swap
update (Alg. 2.6.3) is not used: in doubles its mu drifts on the raw
Goldstein-Mayer basis, and LLL then stops on bases that are not reduced.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .errors import DegenerateBasisError
from .intmat import IntMatrix, identity

DEFAULT_DELTA = 0.99
_ROW_PASSES = 32  # Gram-Schmidt passes over one row in one LLL stage


def dot(u, v) -> float:
    return sum(map(mul, u, v))


def _gso_row(rows, i, mu, c, bstar) -> None:
    """Fill row i of the Gram-Schmidt data from rows[i] and rows 0..i-1."""
    bi = list(map(float, rows[i]))
    for j in range(i):
        cj = c[j]
        mij = dot(rows[i], bstar[j]) / cj if cj > 0.0 else 0.0
        mu[i][j] = mij
        bj = bstar[j]
        for t in range(len(bi)):
            bi[t] -= mij * bj[t]
    bstar[i] = bi
    c[i] = dot(bi, bi)


def gso(rows) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """Gram-Schmidt data (mu, c, bstar) with c[i] = |b*_i|^2."""
    m = len(rows)
    mu = [[0.0] * m for _ in range(m)]
    c = [0.0] * m
    bstar: list[list[float]] = [[] for _ in range(m)]
    for i in range(m):
        _gso_row(rows, i, mu, c, bstar)
    return mu, c, bstar


class Frame(NamedTuple):
    """Gram-Schmidt frame of independent basis rows.

    b_i = b*_i + sum_{j<i} mu[i][j] b*_j with c[i] = |b*_i|^2 > 0; built
    row by row by lll_rows, which hands it down with the reduced rows, and
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
    if not m:
        raise DegenerateBasisError("no rows passed to LLL")
    u: IntMatrix = identity(m)
    mu = [[0.0] * m for _ in range(m)]
    c = [0.0] * m
    bstar: list[list[float]] = [[] for _ in range(m)]
    max_swaps = 4096 + 256 * m * m
    # stage k: rows 0..k-1 of the frame are current; row k is computed from
    # b_k, and again from the size-reduced b_k while a |q| > 1 step may have
    # left float error in mu[k] (Schnorr-Euchner)
    k = 0
    swaps = 0
    while k < m:
        for _ in range(_ROW_PASSES):
            _gso_row(b, k, mu, c, bstar)
            if c[k] <= 0.0:
                raise DegenerateBasisError("dependent rows passed to LLL")
            bk, uk, muk = b[k], u[k], mu[k]
            large = False
            for j in range(k - 1, -1, -1):
                q = round(muk[j])
                if q:
                    large = large or abs(q) > 1
                    bj, uj, muj = b[j], u[j], mu[j]
                    for t in range(len(bk)):
                        bk[t] -= q * bj[t]
                    for t in range(m):
                        uk[t] -= q * uj[t]
                    for t in range(j):
                        muk[t] -= q * muj[t]
                    muk[j] -= q
            if not large:
                break
        else:
            raise DegenerateBasisError("LLL size reduction failed to converge")
        if k == 0 or c[k] >= (delta - mu[k][k - 1] ** 2) * c[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            swaps += 1
            if swaps > max_swaps:
                raise DegenerateBasisError("LLL failed to converge")
            k -= 1
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
