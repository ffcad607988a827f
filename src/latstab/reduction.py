"""Gram-Schmidt and LLL reduction for small bases, in floats and in integers.

The float engine works on plain lists of floats; at the dimensions this
package targets (n <= 8 or so) that is faster than numpy row operations. The
integer change-of-basis matrix is accumulated alongside the float rows so
callers can replay the reduction on exact integer data. lll_integral reduces
integer rows exactly, and faster on an ill-conditioned Goldstein-Mayer basis;
it is every lattice's reduction, run on its exact form. It hands down its
exact Gram-Schmidt data with the reduced rows, and integral_frame reads the
float frame of the scaled rows off that data, with each mu and |b*|^2
correctly rounded from an integer ratio; float LLL reduces only projections,
dual frames and the CVP frame. lll_integral is Cohen's algorithm step for
step, with its size reduction written out in the loop, and returns bitwise
what the algorithm as written returns.

LLL computes one Gram-Schmidt row per stage (Schnorr and Euchner, Math.
Programming 66, 1994), not the whole frame after each swap. Cohen's swap
update (Alg. 2.6.3) is not used: in doubles its mu drifts on the raw
Goldstein-Mayer basis, and LLL then stops on bases that are not reduced.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .errors import DegenerateBasisError
from .intmat import IntMatrix, identity, matmul

DEFAULT_DELTA = 0.99
_ETA = 0.5 + 1e-9  # size-reduce only |mu| > _ETA, as L^2's eta > 1/2
_ROW_PASSES = 32  # Gram-Schmidt passes over one row in one LLL stage


def dot(u, v) -> float:
    return sum(map(mul, u, v))


def _gso_row(rows, i, mu, c, bstar) -> None:
    """Fill row i of the Gram-Schmidt data from the float rows[i] and rows
    0..i-1."""
    ri = rows[i]
    bi = ri[:]
    mui = mu[i]
    for j in range(i):
        bj = bstar[j]
        cj = c[j]
        mij = sum(map(mul, ri, bj)) / cj if cj > 0.0 else 0.0
        mui[j] = mij
        for t in range(len(bi)):
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
        _gso_row(rows, i, mu, c, bstar)
    return mu, c, bstar


class Frame(NamedTuple):
    """Gram-Schmidt frame of independent basis rows.

    b_i = b*_i + sum_{j<i} mu[i][j] b*_j with c[i] = |b*_i|^2 > 0; built
    row by row by lll_rows, which hands it down with the reduced rows, or
    read off lll_integral's exact data by integral_frame, and shared by
    Babai and the enumerators.
    """

    rows: list[list[float]]
    mu: list[list[float]]
    c: list[float]
    bstar: list[list[float]]


def lll_rows(rows) -> tuple[Frame, IntMatrix]:
    """LLL-reduce the given basis rows at delta = DEFAULT_DELTA, leaving
    |mu| <= _ETA: a float mu on a tie at 1/2 can flip sign on every pass.

    Returns (frame, transform): the Gram-Schmidt frame of the reduced rows
    and the integer unimodular matrix U with frame.rows == U @ rows. Raises
    DegenerateBasisError if the rows are numerically dependent or the
    reduction fails to converge.
    """
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
    k = swaps = 0
    while k < m:
        for _ in range(_ROW_PASSES):
            _gso_row(b, k, mu, c, bstar)
            if c[k] <= 0.0:
                raise DegenerateBasisError("dependent rows passed to LLL")
            bk, uk, muk = b[k], u[k], mu[k]
            large = False
            for j in range(k - 1, -1, -1):
                q = round(muk[j]) if abs(muk[j]) > _ETA else 0
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
        if k == 0 or c[k] >= (DEFAULT_DELTA - mu[k][k - 1] ** 2) * c[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            swaps += 1
            if swaps > max_swaps:
                raise DegenerateBasisError("LLL failed to converge")
            k -= 1
    return Frame(b, mu, c, bstar), u


class IntegralLLL(NamedTuple):
    """Exact LLL reduction R == U @ rows and the Gram-Schmidt data of R:
    d[i] is the Gram determinant of the leading i rows (d[0] = 1), and
    lam[i][j] = d[j + 1] mu_ij for j < i (entries with j >= i are not
    meaningful)."""

    rows: IntMatrix
    transform: IntMatrix
    d: list[int]
    lam: IntMatrix


def lll_integral(rows) -> IntegralLLL:
    """(R, U, d, lam) with R == U @ rows LLL-reduced exactly: |mu| <= 1/2
    and Lovasz' condition at delta = 99/100, the value of DEFAULT_DELTA.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7) on the Gram determinants d[i] of the leading i rows
    and lam[k][j] = d[j + 1] mu_kj, handed down as they stand at the end;
    R is formed once, as U @ rows. Raises DegenerateBasisError on dependent
    rows. Each row enters when the stage first reaches it; Cohen's size
    reduction REDI is written out at its two sites, and the Lovasz sum is
    reused as the swap's new d. Every step is exact, so the result is
    bitwise that of the algorithm as written.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    u: IntMatrix = identity(m)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for top in range(m):
        # row top enters, still input row top: its Gram-Schmidt data
        lk = lam[top]
        g = [sum(map(mul, r, a[top])) for r in a[:top + 1]]
        for j in range(top + 1):
            x = sum(map(mul, u[j], g))
            lj = lam[j]
            for i in range(j):
                x = (d[i + 1] * x - lk[i] * lj[i]) // d[i]
            lk[j] = x
        if not x:
            raise DegenerateBasisError("dependent rows passed to LLL")
        d[top + 1] = x
        # stage k of rows 0..top: u is 0 past column top
        k = top or 1
        while k <= top:
            i = k - 1
            lk, li, di = lam[k], lam[i], d[k]
            x = lk[i]
            if 2 * abs(x) > di:  # u_k -= round(mu_ki) u_i
                q = (2 * x + di) // (2 * di)
                uk, ui = u[k], u[i]
                for t in range(top + 1):
                    uk[t] -= q * ui[t]
                for t in range(i):
                    lk[t] -= q * li[t]
                x -= q * di
                lk[i] = x
            dk = d[k + 1]
            y = dk * d[i] + x * x
            if 100 * y < 99 * di * di:
                # swap rows i and k; lam[k][i] keeps its value, and no
                # lam[r][j] with j >= r is read
                u[i], u[k] = u[k], u[i]
                lam[i], lam[k] = lk, li
                li[i] = x
                y //= di
                d[k] = y
                for lj in lam[k + 1:top + 1]:
                    t = lj[k]
                    s = (dk * lj[i] - x * t) // di
                    lj[k] = s
                    lj[i] = (y * t + x * s) // dk
                if i:
                    k = i
            else:
                uk = u[k]
                for j in range(k - 2, -1, -1):
                    x, dj = lk[j], d[j + 1]
                    if 2 * abs(x) > dj:
                        q = (2 * x + dj) // (2 * dj)
                        uj, lj = u[j], lam[j]
                        for t in range(top + 1):
                            uk[t] -= q * uj[t]
                        for t in range(j):
                            lk[t] -= q * lj[t]
                        lk[j] = x - q * dj
                k += 1
    return IntegralLLL(matmul(u, a), u, d, lam)


def integral_frame(lll: IntegralLLL, s: float) -> Frame:
    """Frame of the float rows s * R from lll_integral's exact data: mu_ij =
    lam[i][j] / d[j + 1] and c_i = s^2 (d[i + 1] / d[i]), each integer
    ratio correctly rounded, and b*_i = b_i - sum_{j<i} mu_ij b*_j."""
    r, _, d, lam = lll
    m = len(r)
    rows = [[s * x for x in row] for row in r]
    mu = [[lam[i][j] / d[j + 1] if j < i else 0.0 for j in range(m)]
          for i in range(m)]
    s2 = s * s
    c = [s2 * (d[i + 1] / d[i]) for i in range(m)]
    bstar: list[list[float]] = []
    for bi, mui in zip(rows, mu):
        bi = bi[:]
        for mij, bj in zip(mui, bstar):
            for t in range(len(bi)):
                bi[t] -= mij * bj[t]
        bstar.append(bi)
    return Frame(rows, mu, c, bstar)


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
