"""Gram-Schmidt and LLL reduction for small bases, in floats and in integers.

The float engine works on plain lists of floats; at the dimensions this
package targets (n <= 8 or so) that is faster than numpy row operations. The
integer change-of-basis matrix is accumulated alongside the float rows so
callers can replay the reduction on exact integer data. lll_integral reduces
integer rows exactly, and faster on an ill-conditioned Goldstein-Mayer basis.

LLL computes one Gram-Schmidt row per stage (Schnorr and Euchner, Math.
Programming 66, 1994), not the whole frame after each swap. Cohen's swap
update (Alg. 2.6.3) is not used: in doubles its mu drifts on the raw
Goldstein-Mayer basis, and LLL then stops on bases that are not reduced.

LLL works only on the columns a stage can reach. The rows 0..top that have
entered it are integer combinations of the input rows 0..top, so they, and
their Gram-Schmidt rows, are +0.0 from the largest width w of those input
rows on (the raw Goldstein-Mayer basis gains one column per row), and the
transform rows are 0 from column top + 1 on. Row updates stop at w and
transform updates at top + 1, and no bit of the result moves: a skipped
step subtracts q * (+0.0) = +-0.0 from +0.0, and +0.0 - (+-0.0) is +0.0.
The dot products still run over whole rows, which costs less than cutting
them: their extra terms are (+0.0) * (+0.0), and adding +0.0 to a sum that
starts at int 0 changes nothing, because such a sum is never -0.0. A -0.0
entry counts towards the width (_width), since -0.0 - (-0.0) is +0.0.
"""

from __future__ import annotations

from math import copysign
from operator import mul
from typing import NamedTuple

from .errors import DegenerateBasisError
from .intmat import IntMatrix, identity, matmul

DEFAULT_DELTA = 0.99
_ROW_PASSES = 32  # Gram-Schmidt passes over one row in one LLL stage


def dot(u, v) -> float:
    return sum(map(mul, u, v))


def _width(row) -> int:
    """Index just past the last entry of row that is not +0.0 (-0.0 counts)."""
    t = len(row)
    while t and not row[t - 1] and copysign(1.0, row[t - 1]) > 0.0:
        t -= 1
    return t


def _gso_row(rows, i, mu, c, bstar, width) -> None:
    """Fill row i of the Gram-Schmidt data from the float rows[i] and rows
    0..i-1. Entries from column width on are +0.0 in all of these rows, so
    they stay +0.0 in b*_i and the updates stop there."""
    ri = rows[i]
    bi = ri[:]
    mui = mu[i]
    for j in range(i):
        bj = bstar[j]
        cj = c[j]
        mij = sum(map(mul, ri, bj)) / cj if cj > 0.0 else 0.0
        mui[j] = mij
        for t in range(width):
            bi[t] -= mij * bj[t]
    bstar[i] = bi
    c[i] = sum(map(mul, bi, bi))


def gso(rows) -> tuple[list[list[float]], list[float], list[list[float]]]:
    """Gram-Schmidt data (mu, c, bstar) with c[i] = |b*_i|^2."""
    rows = [list(map(float, r)) for r in rows]
    m = len(rows)
    mu = [[0.0] * m for _ in range(m)]
    c = [0.0] * m
    bstar: list[list[float]] = [[] for _ in range(m)]
    for i in range(m):
        _gso_row(rows, i, mu, c, bstar, len(rows[i]))
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
    # left float error in mu[k] (Schnorr-Euchner). Rows 0..top are integer
    # combinations of the input rows 0..top, so they are +0.0 from column w
    # on, and u's rows are 0 from column top + 1 on
    k = top = swaps = 0
    w = _width(b[0])
    while k < m:
        if k > top:
            top = k
            w = max(w, _width(b[k]))
        for _ in range(_ROW_PASSES):
            _gso_row(b, k, mu, c, bstar, w)
            if c[k] <= 0.0:
                raise DegenerateBasisError("dependent rows passed to LLL")
            bk, uk, muk = b[k], u[k], mu[k]
            large = False
            for j in range(k - 1, -1, -1):
                q = round(muk[j])
                if q:
                    large = large or abs(q) > 1
                    bj, uj, muj = b[j], u[j], mu[j]
                    for t in range(w):
                        bk[t] -= q * bj[t]
                    for t in range(top + 1):
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


def lll_integral(rows) -> tuple[IntMatrix, IntMatrix]:
    """(R, U) with R == U @ rows LLL-reduced exactly: |mu| <= 1/2 and
    Lovasz' condition at delta = 99/100, the value of DEFAULT_DELTA.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7) on the Gram determinants d[i] of the leading i rows
    and lam[k][j] = d[j + 1] mu_kj; R is formed once, as U @ rows. Raises
    DegenerateBasisError on dependent rows.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    u: IntMatrix = identity(m)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]

    def reduce(k: int, j: int) -> None:
        # u_k -= round(mu_kj) u_j if |mu_kj| > 1/2 (u is 0 past column top)
        uk, uj, lk, lj = u[k], u[j], lam[k], lam[j]
        dj = d[j + 1]
        if 2 * abs(lk[j]) <= dj:
            return
        q = (2 * lk[j] + dj) // (2 * dj)
        for t in range(top + 1):
            uk[t] -= q * uj[t]
        for t in range(j):
            lk[t] -= q * lj[t]
        lk[j] -= q * dj

    k, top = 0, -1
    while k < m:
        lk = lam[k]
        if k > top:  # row k enters, still input row k: its Gram-Schmidt data
            top = k
            g = [sum(map(mul, r, a[k])) for r in a[:k + 1]]
            for j in range(k + 1):
                x = sum(map(mul, u[j], g))
                for i in range(j):
                    x = (d[i + 1] * x - lk[i] * lam[j][i]) // d[i]
                lk[j] = x
            if not x:
                raise DegenerateBasisError("dependent rows passed to LLL")
            d[k + 1] = x
        if k:
            reduce(k, k - 1)
        dk, dk1, lkk = d[k + 1], d[k], lk[k - 1]
        if k and 100 * (dk * d[k - 1] + lkk * lkk) < 99 * dk1 * dk1:
            # swap rows k - 1 and k; lam[k][k - 1] keeps its value, and no
            # lam[i][j] with j >= i is read
            u[k - 1], u[k] = u[k], u[k - 1]
            lam[k - 1], lam[k] = lk, lam[k - 1]
            lam[k][k - 1] = lkk
            d[k] = (d[k - 1] * dk + lkk * lkk) // dk1
            for li in lam[k + 1:top + 1]:
                t = li[k]
                li[k] = (dk * li[k - 1] - lkk * t) // dk1
                li[k - 1] = (d[k] * t + lkk * li[k]) // dk
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return matmul(u, a), u


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
