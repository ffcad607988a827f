"""Independent reference computations used by the tests.

Everything here deliberately avoids the production search paths: minima come
from scans of explicit coordinate boxes, exact values from Fraction
arithmetic, and reference bounds from classical reduction theory applied to
the scan data itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from latstab import Lattice, lll_reduce, subgroup_covolume
from latstab.constants import hermite_upper
from latstab.errors import DegenerateBasisError
from latstab.intmat import IntMatrix, bareiss_det, identity, row_rank
from latstab.reduction import _ROW_PASSES, DEFAULT_DELTA, Frame, dot


def box_coords(n: int, radius: int) -> np.ndarray:
    """All nonzero integer coordinate vectors in [-radius, radius]^n."""
    axes = [np.arange(-radius, radius + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    return grid[np.any(grid != 0, axis=1)]


def integer_gram_det(coords) -> Fraction:
    """Exact Gram determinant det(C C^T) of integer rows in Z^n, computed
    with Fraction Gaussian elimination (independent of the Bareiss code)."""
    rows = [[Fraction(int(x)) for x in row] for row in coords]
    g = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    return _fraction_det(g)


def reference_gram_determinant(lattice: Lattice, coords) -> int:
    """det(C G C^T) with G the exact Gram of the lattice's integer form M,
    formed as C G and then (C G) C^T: the formula exact_gram_determinant
    used before it took the Gram of the small vectors C M instead."""
    gz = lattice._exact_gram
    cg = [[sum(int(ci) * gz[i][j] for i, ci in enumerate(row))
           for j in range(len(gz))] for row in coords]
    small = [[sum(x * int(y) for x, y in zip(r, row)) for row in coords]
             for r in cg]
    return bareiss_det(small)


def fraction_gso(rows) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact Gram-Schmidt data (mu, c) of integer rows, c[i] = |b*_i|^2,
    in Fraction arithmetic (independent of the package's LLL codes)."""
    rows = [[Fraction(int(x)) for x in row] for row in rows]
    mu = [[Fraction(0)] * len(rows) for _ in rows]
    c: list[Fraction] = []
    bstar: list[list[Fraction]] = []
    for i, row in enumerate(rows):
        b = row[:]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(row, bstar[j])) / c[j]
            b = [x - mu[i][j] * y for x, y in zip(b, bstar[j])]
        bstar.append(b)
        c.append(sum(x * x for x in b))
    return mu, c


def _fraction_det(rows) -> Fraction:
    a = [row[:] for row in rows]
    n = len(a)
    det = Fraction(1)
    for i in range(n):
        piv = None
        for r in range(i, n):
            if a[r][i] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        inv = 1 / a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


def reduction_radius(k: int, d_ub: float, minima_product: float) -> float:
    """Norm bound covering a Minkowski-reduced basis of any rank-k subgroup
    of covolume <= d_ub: its k-th minimum is at most
    g_k^(k/2) d_ub / prod_{i<k} lambda_i(ambient), since the subgroup's
    successive minima dominate the ambient ones."""
    c_red = (1.25) ** ((k - 4) / 2.0) if k >= 5 else 1.0
    return c_red * hermite_upper(k) ** (k / 2.0) * d_ub / minima_product


def brute_force_min_covolume(lattice: Lattice, k: int,
                             box: int = 4) -> float:
    """Minimal rank-k covolume by scanning a coordinate box and minimizing
    over k-subsets. Independent of the production subgroup search.

    The corank-1 case at n >= 5 is evaluated through the classical wedge
    identification instead: every (n-1)-tensor is pure, so the minimal
    rank-(n-1) covolume equals covol(L) times the first minimum of the dual,
    which a box scan of the dual basis finds directly (subset enumeration
    over the ~10^8 candidate 4-subsets would be infeasible).
    """
    n = lattice.dim
    if k == n - 1 and n >= 5:
        # invert the reduced primal basis so the inversion is well
        # conditioned; reduction does not change the lattice or its dual
        red_primal = lll_reduce(lattice)
        dual_basis = np.linalg.inv(np.asarray(red_primal.basis, float)).T
        red_dual = lll_reduce(Lattice.from_rows(dual_basis))
        coords = box_coords(n, box)
        norms = np.linalg.norm(coords.astype(float) @ red_dual.basis, axis=1)
        lam1_dual = float(norms.min())
        # certify the box saw everything up to lam1_dual
        dd = np.linalg.inv(red_dual.basis).T
        reach = lam1_dual * float(np.sqrt((dd * dd).sum(axis=1)).max())
        assert reach <= box + 0.5, "dual box scan too small"
        covol = abs(float(np.linalg.det(np.asarray(red_primal.basis, float))))
        return lam1_dual * covol
    red = lll_reduce(lattice)
    while True:
        coords = box_coords(n, box)
        vecs = coords.astype(float) @ red.basis
        norms = np.sqrt(np.sum(vecs * vecs, axis=1))
        order = np.argsort(norms, kind="stable")
        # greedy shortest independent vectors: their norms realize the
        # successive minima, giving the covolume upper bound and the radius
        chosen: list[list[int]] = []
        chosen_norms: list[float] = []
        for idx in order:
            cand = chosen + [coords[idx].tolist()]
            if row_rank(cand) == len(cand):
                chosen = cand
                chosen_norms.append(float(norms[idx]))
                if len(chosen) == k:
                    break
        assert len(chosen) == k, "box too small to find k independent vectors"
        g = red.gram_matrix
        cm = np.array(chosen, dtype=float)
        d_ub = math.sqrt(abs(np.linalg.det(cm @ g @ cm.T))) * (1 + 1e-9)
        minima_product = 1.0
        for nm in chosen_norms[: k - 1]:
            minima_product *= nm
        radius = reduction_radius(k, d_ub, minima_product)
        # certify the box covers the radius via the dual-row bound
        dual_rows = np.linalg.inv(red.basis).T
        reach = radius * float(np.sqrt((dual_rows * dual_rows).sum(axis=1)).max())
        if reach <= box + 0.5:
            break
        box = int(math.ceil(reach))
        assert (2 * box + 1) ** n <= 5e6, \
            "certified oracle box exceeds the scan budget"
    keep = norms <= radius * (1 + 1e-9)
    cand_coords = coords[keep]
    # one representative per +- pair: first nonzero entry positive
    mask = []
    for row in cand_coords:
        first = next(v for v in row if v != 0)
        mask.append(first > 0)
    half = cand_coords[np.array(mask)]
    assert len(half) >= k, "radius filter kept too few vectors"
    g = red.gram_matrix
    combos = np.array(
        list(itertools.combinations(range(len(half)), k)), dtype=int
    )
    stacks = half[combos].astype(float)  # (m, k, n)
    grams = stacks @ g @ stacks.transpose(0, 2, 1)
    dets = np.linalg.det(grams)
    dets[dets <= 0] = np.inf
    # walk ascending until the first exactly independent subset fixes the
    # reference minimum; near-zero float determinants of dependent subsets
    # must not poison the preselection
    order = np.argsort(dets)
    dmin = None
    for idx in order:
        if not math.isfinite(dets[idx]):
            break
        subset = [half[j].tolist() for j in combos[idx]]
        if row_rank(subset) == k:
            dmin = float(dets[idx])
            break
    assert dmin is not None, "no independent k-subset found"
    near = np.nonzero(dets <= dmin * (1 + 1e-6))[0]
    best = None
    for idx in near:
        subset = [half[j].tolist() for j in combos[idx]]
        if row_rank(subset) != k:
            continue  # dependent subset with a tiny positive float det
        covol = subgroup_covolume(red, subset)
        if best is None or covol < best:
            best = covol
    return best


def numpy_babai_distance(lattice: Lattice, target) -> float:
    """Nearest-plane distance computed with numpy QR, independent of the
    package's own Gram-Schmidt code."""
    b = np.asarray(lattice.basis, dtype=float)
    n = b.shape[0]
    q, r = np.linalg.qr(b.T)
    resid = np.asarray(target, dtype=float).copy()
    coeffs = np.zeros(n)
    for i in range(n - 1, -1, -1):
        bstar = q[:, i] * r[i, i]
        c = float(resid @ bstar / (bstar @ bstar))
        coeffs[i] = round(c)
        resid = resid - coeffs[i] * b[i]
    return float(np.linalg.norm(resid))


# -- full-width LLL ------------------------------------------------------------
# reduction.lll_rows and reduction._gso_row as they were before LLL worked
# only on the columns a stage can reach: every loop runs over whole rows.
# reduction.lll_rows must return bitwise the same frame and transform.


def _reference_gso_row(rows, i, mu, c, bstar) -> None:
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


def reference_lll_rows(rows, delta: float = DEFAULT_DELTA
                       ) -> tuple[Frame, IntMatrix]:
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
            _reference_gso_row(b, k, mu, c, bstar)
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
