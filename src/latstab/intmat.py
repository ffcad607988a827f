"""Exact integer matrix routines backing the sublattice arithmetic.

Everything here works on lists of lists of Python ints, so determinants,
normal forms, saturations and indices come out exact regardless of entry
size. Floating point never enters these functions.
"""

from __future__ import annotations

from math import gcd
from operator import mul

IntMatrix = list[list[int]]


def copy_matrix(a) -> IntMatrix:
    return [[int(x) for x in row] for row in a]


def identity(m: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def matmul(a, b) -> IntMatrix:
    """Exact product of two integer matrices (lists of rows)."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def gram(a) -> IntMatrix:
    """a @ a.T for an integer matrix given by rows."""
    return [[sum(map(mul, r, s)) for s in a] for r in a]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def bareiss_det(mat) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    a = copy_matrix(mat)
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[i][i]
        for r in range(i + 1, n):
            ari = a[r][i]
            row_r = a[r]
            row_i = a[i]
            for c in range(i + 1, n):
                row_r[c] = (row_r[c] * piv - ari * row_i[c]) // prev
            row_r[i] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def adjugate(mat) -> tuple[IntMatrix, int]:
    """Return (adj, det) with mat @ adj == det * I, all exact, by one
    fraction-free Gauss-Jordan pass over [mat | I] (Bareiss, Math. Comp.
    22, 1968). A zero pivot is exchanged with a row below it, so the pass
    runs on P mat for a permutation P of sign `sign`; it ends as
    [d I | E] with d = det(P mat) and E = d (P mat)^-1 P, hence
    adj = sign E and det = sign d. Every division is exact. Raises
    ValueError on a singular matrix."""
    n = len(mat)
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(mat)]
    sign = prev = 1
    for i in range(n):
        if not a[i][i]:
            r = next((r for r in range(i + 1, n) if a[r][i]), None)
            if r is None:
                raise ValueError("adjugate of a singular matrix")
            a[i], a[r] = a[r], a[i]
            sign = -sign
        row_i = a[i]
        piv = row_i[i]
        for r in range(n):
            if r != i:
                f = a[r][i]
                a[r] = [(x * piv - f * y) // prev
                        for x, y in zip(a[r], row_i)]
        prev = piv
    return [[sign * x for x in row[n:]] for row in a], sign * prev


def hnf_rows(rows) -> IntMatrix:
    """Canonical row Hermite normal form.

    Pivots are positive, appear in strictly increasing column order, and the
    entries above each pivot are reduced into [0, pivot). For matrices of
    full row rank the result is the unique canonical basis of the row
    lattice; rank-deficient input yields trailing zero rows.
    """
    a = copy_matrix(rows)
    if not a:
        return a
    k, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        if r == k:
            break
        while True:
            nz = [i for i in range(r, k) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, k):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][c]:
                        done = False
            if done:
                break
        if r < k and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            piv = a[r][c]
            for i in range(r):
                q = a[i][c] // piv
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return a


def kernel_rows(rows) -> IntMatrix:
    """Basis of the integer kernel {x in Z^n : rows @ x == 0}.

    The rows must be independent. With w unimodular and w @ [rows^T | I]
    in Hermite normal form, the rows of w whose left part vanishes span the
    kernel over Z, so the result is always saturated.
    """
    r, n = len(rows), len(rows[0])
    aug = [[int(row[j]) for row in rows] + [int(i == j) for i in range(n)]
           for j in range(n)]
    h = hnf_rows(aug)
    if not any(h[r - 1][:r]):
        raise ValueError("kernel of dependent rows")
    return [row[r:] for row in h[r:]]


def row_rank(rows) -> int:
    h = hnf_rows(rows)
    return sum(1 for row in h if any(row))


def diagonalize(rows) -> tuple[list[int], IntMatrix]:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (diag, vinv) where diag holds the diagonal of D = U @ A @ V for
    unimodular U, V, and vinv is the full matrix V^{-1}. The rational row
    space of A is spanned by the rows of V^{-1} matching nonzero diagonal
    entries, which is what the saturation computation needs. Divisibility of
    the diagonal is not normalized; only the product of the entries (the
    subgroup index data) is meaningful.
    """
    a = copy_matrix(rows)
    if not a:
        return [], []
    k, n = len(a), len(a[0])
    vinv = identity(n)

    def col_addmul(src: int, dst: int, q: int) -> None:
        # column dst += q * column src on a; row src -= q * row dst on vinv
        for row in a:
            row[dst] += q * row[src]
        vs, vd = vinv[src], vinv[dst]
        for t in range(n):
            vs[t] -= q * vd[t]

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_negate(i: int) -> None:
        for row in a:
            row[i] = -row[i]
        vinv[i] = [-x for x in vinv[i]]

    for d in range(min(k, n)):
        while True:
            pivot = None
            best = None
            for i in range(d, k):
                for j in range(d, n):
                    v = a[i][j]
                    if v and (best is None or abs(v) < best):
                        best = abs(v)
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != d:
                a[pi], a[d] = a[d], a[pi]
            if pj != d:
                col_swap(pj, d)
            piv = a[d][d]
            for i in range(d + 1, k):
                if a[i][d]:
                    q = a[i][d] // piv
                    a[i] = [x - q * y for x, y in zip(a[i], a[d])]
            for j in range(d + 1, n):
                if a[d][j]:
                    q = a[d][j] // piv
                    col_addmul(d, j, -q)
            if all(a[i][d] == 0 for i in range(d + 1, k)) and all(
                a[d][j] == 0 for j in range(d + 1, n)
            ):
                break
        if d < min(k, n) and a[d][d] < 0:
            col_negate(d)
    diag = [a[i][i] for i in range(min(k, n))]
    return diag, vinv


def saturation(rows) -> tuple[IntMatrix, int]:
    """Canonical basis of the saturation of the row lattice, plus the index.

    The saturation is the intersection of the rational row space with Z^n;
    the returned index satisfies covol(rows) == index * covol(saturation).
    Raises ValueError on rank-deficient input.
    """
    k = len(rows)
    diag, vinv = diagonalize(rows)
    if len(diag) < k or any(d == 0 for d in diag):
        raise ValueError("saturation of a rank-deficient matrix")
    index = 1
    for d in diag:
        index *= abs(d)
    return hnf_rows(vinv[:k]), index


def complete_primitive_row(x) -> IntMatrix:
    """Unimodular matrix whose first row is the primitive vector x."""
    vec = [int(v) for v in x]
    m = len(vec)
    if gcd(*vec) != 1:
        raise ValueError("vector is not primitive")
    w = identity(m)

    def combine(i: int) -> None:
        a, b = vec[0], vec[i]
        if b == 0:
            return
        g, s, t = xgcd(a, b)
        ag, bg = a // g, b // g
        # columns (0, i) of V get the 2x2 op [[s, -bg], [t, ag]]; rows of
        # V^{-1} get its inverse [[ag, bg], [-t, s]] applied on the left
        r0, ri = w[0], w[i]
        w[0] = [ag * u + bg * v for u, v in zip(r0, ri)]
        w[i] = [-t * u + s * v for u, v in zip(r0, ri)]
        vec[0], vec[i] = g, 0

    for i in range(1, m):
        combine(i)
    if vec[0] == -1:
        # absorb the sign so that w[0] matches x itself
        w[0] = [-u for u in w[0]]
        vec[0] = 1
    if w[0] != [int(v) for v in x]:
        raise AssertionError("primitive completion failed")
    return w
