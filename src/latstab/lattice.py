"""Ambient lattices and sublattices, backed by exact integer arithmetic.

A Lattice is a full-rank lattice in R^n given by basis rows. Every lattice
has an exact form: an integer matrix M and a positive scale s with
basis == s * M. The samplers and integer lattice files declare one; for any
other basis the form is dyadic, since every finite float is an integer
times a power of two. Construction refuses a basis whose exact form is
singular. Every lattice is reduced once, by integral LLL of M, and all
covolumes are evaluated in exact integer arithmetic; floating point is used
only for norms, Gram-Schmidt data, enumeration pruning and the
closest-vector search, whose float LLL of the raw rows is the one place a
basis must be well conditioned. A declared form's basis is built once, as
s * M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

import numpy as np

from . import intmat
from .enumeration import (DEFAULT_BUDGET, NodeCounter, _close_r2, close_vectors,
                          short_vectors)
from .errors import (DegenerateBasisError, InvariantViolationError,
                     LatticeParseError)
from .reduction import (Frame, IntegralLLL, integral_frame, lll_integral,
                        lll_rows, nearest_plane)

COVOLUME_RTOL = 1e-9
EXACT_FORM_RTOL = 1e-12
CONDITION_LIMIT = 1e12

IntRows = tuple[tuple[int, ...], ...]


def _freeze_rows(rows) -> IntRows:
    return tuple(tuple(map(int, row)) for row in rows)


@dataclass(frozen=True, eq=False)
class Lattice:
    """Full-rank lattice; rows of `basis` are the basis vectors.

    Every constructor ends in __post_init__, which freezes the exact form
    and makes the basis a read-only float array. from_exact passes
    basis=None, and the basis is built there once, as s * M; a basis given
    with an exact form must agree with s * M."""

    basis: np.ndarray
    exact_basis: IntRows | None = None
    scale: float = 1.0
    provenance: str | None = None

    def __post_init__(self):
        m = self.exact_basis
        if m is not None:
            m = _freeze_rows(m)
            object.__setattr__(self, "exact_basis", m)
        given = self.basis is not None or m is None
        if given:
            b = np.array(self.basis, dtype=float)
        else:
            b = self.scale * np.array(m, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"basis must be square, got shape {b.shape}")
        n = b.shape[0]
        if n < 2:
            raise ValueError("ambient dimension must be at least 2")
        if not np.all(np.isfinite(b)):
            raise DegenerateBasisError("basis contains non-finite entries")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        if m is not None:
            if len(m) != n or any(len(r) != n for r in m):
                raise ValueError("exact form shape does not match the basis")
            if not (self.scale > 0):
                raise ValueError("exact form scale must be positive")
            if given:
                approx = self.scale * np.array(m, dtype=float)
                ref = np.abs(approx).max()
                if np.abs(approx - b).max() > EXACT_FORM_RTOL * ref:
                    raise ValueError("basis and exact form disagree")
        self.covolume  # refuses a singular exact form

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, provenance: str | None = None) -> "Lattice":
        return cls(basis=rows, provenance=provenance)

    @classmethod
    def from_exact(cls, int_rows, scale: float,
                   provenance: str | None = None) -> "Lattice":
        return cls(basis=None, exact_basis=int_rows, scale=float(scale),
                   provenance=provenance)

    @classmethod
    def identity(cls, n: int) -> "Lattice":
        return cls.from_exact(np.eye(n, dtype=int), 1.0)

    # -- cached views ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def _exact(self) -> tuple[IntRows, float]:
        """Exact form (M, s) with basis == s * M: the declared one, or else
        the dyadic one, s = 2^-e with the least e that makes M integral."""
        if self.exact_basis is not None:
            return self.exact_basis, self.scale
        ratios = [[x.as_integer_ratio() for x in row]
                  for row in self.basis.tolist()]
        den = max(q for row in ratios for _, q in row)
        m = tuple(tuple(p * (den // q) for p, q in row) for row in ratios)
        return m, math.ldexp(1.0, 1 - den.bit_length())

    @cached_property
    def covolume(self) -> float:
        m, s = self._exact
        d = abs(intmat.bareiss_det([list(r) for r in m]))
        if d == 0:
            raise DegenerateBasisError("exact basis is singular")
        return math.exp(math.log(d) + self.dim * math.log(s))

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        g = self.basis @ self.basis.T
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
        return g

    @cached_property
    def _rows(self) -> list[list[float]]:
        return [list(map(float, row)) for row in self.basis]

    @cached_property
    def _gram_rows(self) -> list[list[float]]:
        return [list(map(float, row)) for row in self.gram_matrix]

    @cached_property
    def _exact_gram(self) -> IntRows:
        return _freeze_rows(intmat.gram([list(r) for r in self._exact[0]]))

    @cached_property
    def _integral(self) -> IntegralLLL:
        """Integral LLL of the exact form M: U M, U and the exact
        Gram-Schmidt data of U M. The one reduction of every lattice; d[k]
        is the exact Gram determinant of the span of the leading k reduced
        rows."""
        return lll_integral(self._exact[0])

    @cached_property
    def _reduced(self) -> tuple[Frame, IntRows]:
        """Gram-Schmidt frame of the LLL-reduced basis rows R, and the
        transform u with R = u @ basis. The exact form (M, s) is reduced in
        integers, and the frame of s * (U M) is read off that reduction's
        exact data (integral_frame): float LLL of the raw gm basis
        (condition number about p) left norms off by up to 1.5e-7
        relative. Built only when read: a lattice whose every rank the
        leading rows decide needs no frame."""
        lll = self._integral
        frame = integral_frame(lll, self._exact[1])
        return frame, _freeze_rows(lll.transform)

    @cached_property
    def _cvp_frame(self) -> tuple[Frame, IntRows]:
        """_reduced by float LLL of the basis rows, the CVP path's frame and
        the only float LLL of raw rows left: it is kept beside _reduced,
        since covrad's printed distances depend on its bits and its pinned
        outputs were taken on it. It alone needs a well-conditioned basis,
        so it alone refuses one whose 2-norm condition number exceeds
        CONDITION_LIMIT."""
        s = np.linalg.svd(self.basis, compute_uv=False).tolist()
        if not s[-1] > 0 or s[0] / s[-1] > CONDITION_LIMIT:
            raise DegenerateBasisError(
                "basis condition number exceeds 1e12; reduce or rescale first"
            )
        frame, u = lll_rows(self._rows)
        return frame, _freeze_rows(u)

    @cached_property
    def _dual_frame(self) -> tuple[Frame, IntRows]:
        """Frame of a reduced basis of the dual lattice, and the lift V @ J
        from its coordinates to coordinates in the dual basis R^-T of the
        reduced rows R.

        The frame rows are V @ J @ R^-T, with J the row reversal and V the
        LLL transform. Row j of R^-T is b*_j / c_j - sum_{i>j} mu_ij (row i),
        read off R's own frame. The reversed dual of a reduced basis is
        nearly reduced, so this LLL is cheap.
        """
        _, mu, c, bstar = self._reduced[0]
        n = len(c)
        inv_t: list[list[float]] = [[]] * n
        for j in range(n - 1, -1, -1):
            row = [x / c[j] for x in bstar[j]]
            for i in range(j + 1, n):
                f = mu[i][j]
                row = [a - f * b for a, b in zip(row, inv_t[i])]
            inv_t[j] = row
        frame, v = lll_rows(inv_t[::-1])
        return frame, _freeze_rows(row[::-1] for row in v)

    @cached_property
    def _dual_gram(self) -> tuple[list[list[int]], int]:
        """(adj G, det G) of the integer Gram G = R R^T of the reduced rows
        R = u M: the dual basis R^-T, in whose coordinates the dual frame's
        candidates come, has Gram G^-1 = adj G / det G. One fraction-free
        Gauss-Jordan pass, built on the first dual candidate that is not
        the seed (the span of the leading reduced rows, whose determinant
        _integral.d already holds), so most lattices never build it."""
        return intmat.spd_adjugate(intmat.gram(self._integral.rows))

    @cached_property
    def _reduced_inverse(self) -> IntRows:
        """Exact integer inverse of the reduction transform."""
        _, u = self._reduced
        adj, det = intmat.adjugate([list(r) for r in u])
        if det == -1:
            adj = [[-x for x in row] for row in adj]
        return _freeze_rows(adj)

    def is_unimodular(self) -> bool:
        return abs(self.covolume - 1.0) <= COVOLUME_RTOL


@dataclass(frozen=True)
class Sublattice:
    """Rank-k subgroup given by integer coordinates in the ambient basis."""

    rank: int
    coords: IntRows
    covolume: float
    primitive: bool


# -- basic operations ------------------------------------------------------


def gram(lattice: Lattice) -> np.ndarray:
    """Gram matrix B @ B.T of the basis rows."""
    return lattice.gram_matrix


def dual(lattice: Lattice) -> Lattice:
    """Dual lattice (inverse-transpose basis), with a declared exact form."""
    m, s = lattice._exact
    adj, det = intmat.adjugate([list(r) for r in m])
    if det == 0:
        raise DegenerateBasisError("exact basis is singular")
    sign = 1 if det > 0 else -1
    rows = [[sign * adj[j][i] for j in range(len(adj))]
            for i in range(len(adj))]
    return Lattice.from_exact(rows, 1.0 / (s * abs(det)))


def lll_reduce(lattice: Lattice) -> Lattice:
    """LLL-reduced basis of the same lattice, the search's own reduction:
    the exact form u @ M, with u the cached transform of Lattice._reduced,
    so every lattice, a float basis too, is reduced in integers."""
    _, u = lattice._reduced
    m, s = lattice._exact
    return Lattice.from_exact(intmat.matmul(u, m), s,
                              provenance=lattice.provenance)


# -- covolumes of subgroups ------------------------------------------------


def exact_gram_determinant(lattice: Lattice, coords) -> int:
    """det(C G C^T) over the integers, G the exact Gram of the lattice,
    formed as the Gram of the vectors C M, whose entries are far smaller."""
    v = intmat.matmul([list(map(int, row)) for row in coords],
                      lattice._exact[0])
    return intmat.bareiss_det(intmat.gram(v))


def dual_gram_determinant(lattice: Lattice, y) -> int:
    """Exact Gram determinant, on the exact form, of the subgroup D of L
    orthogonal to the primitive rows y, given in coordinates in the dual
    basis R^-T of the reduced rows R (D = y^perp: the x with x @ R
    orthogonal to y @ R^-T, i.e. x . y = 0).

    The Gram of y @ R^-T is y G^-1 y^T with G = R R^T, and D' = span(y) is
    D^perp cap L*, so det(y G^-1 y^T) = det(D) / det(G) (Jacobi's
    complementary-minor theorem). Hence, with r = len(y),
    det(D) = det(y adj(G) y^T) / det(G)^(r-1), a division that must be
    exact.
    """
    adj, det_g = lattice._dual_gram
    z = [[sum(map(mul, yr, col)) for col in adj] for yr in y]  # adj = adj^T
    num = intmat.bareiss_det([[sum(map(mul, zr, yr)) for yr in y]
                              for zr in z])
    d, rem = divmod(num, det_g ** (len(y) - 1))
    if rem or d <= 0:
        raise InvariantViolationError(
            f"dual Gram determinant {num} is not a positive multiple of "
            f"det(G)^{len(y) - 1} = {det_g ** (len(y) - 1)}")
    return d


def subgroup_covolume(lattice: Lattice, coords) -> float:
    """Covolume of the subgroup spanned by the given coordinate rows.

    Evaluated on the lattice's exact form, so every covolume comparison in
    the package gives the same answer for any generators of the same
    subgroup.
    """
    d = exact_gram_determinant(lattice, coords)
    if d <= 0:
        raise ValueError("coordinate rows are not independent")
    return _covolume(lattice, len(coords), d)


def _covolume(lattice: Lattice, k: int, d: int) -> float:
    """Covolume of a rank-k subgroup whose exact Gram determinant on the
    lattice's exact form is d > 0."""
    scale = lattice._exact[1]
    if d.bit_length() < 1000:
        return math.sqrt(float(d)) * scale**k
    return math.exp(0.5 * math.log(d) + k * math.log(scale))


def canonical_form(coords) -> IntRows:
    """Canonical Hermite-normal-form basis of the integer row span."""
    h = intmat.hnf_rows(coords)
    if any(not any(row) for row in h):
        raise ValueError("coordinate rows are not independent")
    return _freeze_rows(h)


def saturate(coords) -> IntRows:
    """Canonical basis of the saturation of the row span.

    The saturation is the intersection of the rational row space with Z^n.
    The result is idempotent and independent of the generators chosen for
    the same row space.
    """
    sat, _ = intmat.saturation([list(map(int, r)) for r in coords])
    return _freeze_rows(sat)


def saturation_index(coords) -> int:
    """Index of the row span inside its saturation."""
    _, index = intmat.saturation([list(map(int, r)) for r in coords])
    return index


def sublattice(lattice: Lattice, coords) -> Sublattice:
    """Build a Sublattice record, computing covolume and primitivity."""
    rows = _freeze_rows(coords)
    k = len(rows)
    if not 1 <= k <= lattice.dim:
        raise ValueError(f"rank {k} out of range for dimension {lattice.dim}")
    if intmat.row_rank([list(r) for r in rows]) != k:
        raise ValueError("coordinate rows are not independent")
    sat = saturate(rows)
    primitive = sat == canonical_form(rows)
    return Sublattice(
        rank=k,
        coords=rows,
        covolume=subgroup_covolume(lattice, rows),
        primitive=primitive,
    )


# -- enumeration-backed operations ------------------------------------------


def vector_norm(lattice: Lattice, coords) -> float:
    """Norm of the lattice vector with the given integer coordinates."""
    return subgroup_covolume(lattice, [list(map(int, coords))])


def enumerate_short_vectors(lattice: Lattice, radius: float,
                            budget: int = DEFAULT_BUDGET):
    """All nonzero lattice vectors with norm <= radius.

    Returns a list of (coords, norm) pairs sorted by ascending norm, with
    both v and -v listed. Coordinates refer to the lattice's own basis rows.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    frame, u = lattice._reduced
    counter = NodeCounter(budget)
    found = short_vectors(frame, radius, counter=counter, half=True)
    limit = radius * (1 + 1e-12)
    out = []
    for x, _ in found:
        coords = tuple(
            sum(x[i] * u[i][j] for i in range(len(x)))
            for j in range(lattice.dim)
        )
        norm = vector_norm(lattice, coords)
        if norm <= limit:
            out.append((coords, norm))
            out.append((tuple(-c for c in coords), norm))
    out.sort(key=lambda item: (item[1], item[0]))
    return out


@dataclass(frozen=True)
class ClosestVector:
    vector: np.ndarray
    distance: float
    coords: tuple[int, ...]


def _cvp_tie_key(coords):
    first = next((c for c in coords if c != 0), 0)
    return (0 if first >= 0 else 1, coords)


def _search_radius(seed_dist):
    """Radius closest_vector searches around a Babai point at seed_dist;
    the same IEEE operations on a float or elementwise on an array."""
    return seed_dist * (1 + 1e-12) + 1e-15


def _babai_recentre(lattice: Lattice, target):
    """The target as floats, its Babai coordinates, the residual t0 from the
    Babai point and the radius closest_vector searches around it (a small
    residual keeps far targets from losing the radius to cancellation)."""
    t = np.asarray(target, dtype=float).ravel().tolist()
    if len(t) != lattice.dim:
        raise ValueError("target dimension mismatch")
    frame, _ = lattice._cvp_frame
    seed = nearest_plane(frame, t)
    shift = [sum(map(mul, seed, col)) for col in zip(*frame.rows)]
    t0 = [tv - sv for tv, sv in zip(t, shift)]
    return t, seed, t0, _search_radius(math.sqrt(sum(map(mul, t0, t0))))


def _babai_caps(lattice: Lattice, points: np.ndarray) -> np.ndarray:
    """sqrt(_close_r2(radius)) of _babai_recentre for every row of points.

    Bitwise the per-target values: _babai_recentre's arithmetic run over the
    coordinate columns, each dot product summed left to right by the same
    sum(map(mul, ...)) and np.rint rounding half to even like round. A
    zero Babai coordinate subtracts +-0 where the list code skips the row,
    which can flip only the sign of a zero residual entry and so no later
    decision.
    """
    frame, _ = lattice._cvp_frame
    rows, _, c, bstar = frame
    r = list(points.T)
    seed = [None] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        xi = np.rint(sum(map(mul, r, bstar[i])) / c[i])
        seed[i] = xi
        r = [rt - xi * bt for rt, bt in zip(r, rows[i])]
    t0 = [tc - sum(map(mul, seed, col))
          for tc, col in zip(points.T, zip(*rows))]
    return np.sqrt(_close_r2(_search_radius(np.sqrt(sum(map(mul, t0, t0))))))


def closest_vector(lattice: Lattice, target,
                   budget: int = DEFAULT_BUDGET) -> ClosestVector:
    """Exact closest lattice point to the target.

    The search is seeded with the Babai nearest-plane candidate and then
    enumerates the closed ball of that radius. Among equal-distance
    solutions the coordinate vector that is lexicographically smallest with
    first nonzero entry positive wins.
    """
    t, seed, t0, radius = _babai_recentre(lattice, target)
    n = lattice.dim
    frame, u = lattice._cvp_frame
    rows = frame.rows
    cands = close_vectors(frame, t0, radius, counter=NodeCounter(budget))
    if not cands:
        raise AssertionError("CVP search returned no candidate")
    # the descent's recurrence gives each candidate's squared distance; map
    # to lattice coordinates only the tied minimizers
    band = min(d2 for _, d2 in cands) * (1 + 1e-12)
    tied = [
        (tuple(sum((x[i] + seed[i]) * u[i][j] for i in range(n))
               for j in range(n)), x, d2)
        for x, d2 in cands if d2 <= band
    ]
    coords, x, d2 = min(tied, key=lambda item: _cvp_tie_key(item[0]))
    resid = [sum(x[i] * rows[i][c] for i in range(n) if x[i]) - t0[c]
             for c in range(n)]
    vec = np.array([tv + rv for tv, rv in zip(t, resid)])
    return ClosestVector(vector=vec, distance=math.sqrt(d2), coords=coords)


# -- text format -------------------------------------------------------------


def _parse_entry(token: str, lineno: int) -> tuple[float, int | None]:
    """Parse one basis entry; returns (value, int_value or None)."""
    try:
        if "/" in token:
            frac = Fraction(token)
            as_int = int(frac) if frac.denominator == 1 else None
            return float(frac), as_int
        if token.lstrip("+-").isdigit():
            v = int(token)
            return float(v), v
        return float(token), None
    except (ValueError, ZeroDivisionError) as exc:
        raise LatticeParseError(f"bad entry {token!r}", lineno) from exc


def parse_lattice_text(text: str) -> Lattice:
    """Parse the lattice text format.

    Line 1 holds n; the next n lines hold n whitespace-separated entries
    each, decimals or exact rationals "p/q". An optional trailing line
    "scale: <decimal>" marks the rows as an exact integer form M with
    basis = scale * M.
    """
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise LatticeParseError("empty lattice file", 1)
    header = lines[idx].strip()
    try:
        n = int(header)
    except ValueError as exc:
        raise LatticeParseError(
            f"expected dimension, found {header!r}", idx + 1
        ) from exc
    if n < 2:
        raise LatticeParseError(f"dimension must be >= 2, got {n}", idx + 1)
    rows: list[list[float]] = []
    int_rows: list[list[int] | None] = []
    lineno = idx + 1
    for r in range(n):
        lineno += 1
        if lineno - 1 >= len(lines):
            raise LatticeParseError(f"missing basis row {r + 1}", lineno)
        tokens = lines[lineno - 1].split()
        if len(tokens) != n:
            raise LatticeParseError(
                f"expected {n} entries, found {len(tokens)}", lineno
            )
        parsed = [_parse_entry(tok, lineno) for tok in tokens]
        rows.append([p[0] for p in parsed])
        if all(p[1] is not None for p in parsed):
            int_rows.append([p[1] for p in parsed])  # type: ignore[misc]
        else:
            int_rows.append(None)
    scale = None
    for extra in range(lineno, len(lines)):
        stripped = lines[extra].strip()
        if not stripped:
            continue
        if stripped.lower().startswith("scale:"):
            if scale is not None:
                raise LatticeParseError("duplicate scale line", extra + 1)
            try:
                scale = float(stripped.split(":", 1)[1])
            except ValueError as exc:
                raise LatticeParseError("bad scale value", extra + 1) from exc
            if not scale > 0:
                raise LatticeParseError("scale must be positive", extra + 1)
        else:
            raise LatticeParseError(
                f"unexpected content {stripped!r}", extra + 1
            )
    if scale is not None:
        if any(row is None for row in int_rows):
            raise LatticeParseError(
                "scale line requires integer basis rows", lineno
            )
        return Lattice.from_exact(int_rows, scale)
    if all(row is not None for row in int_rows):
        return Lattice.from_exact(int_rows, 1.0)
    return Lattice.from_rows(rows)


def format_lattice_text(lattice: Lattice) -> str:
    lines = [str(lattice.dim)]
    if lattice.exact_basis is not None:
        for row in lattice.exact_basis:
            lines.append(" ".join(str(x) for x in row))
        if lattice.scale != 1.0:
            lines.append(f"scale: {lattice.scale!r}")
    else:
        for row in lattice.basis:
            lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def read_lattice(path) -> Lattice:
    with open(path, "r", encoding="ascii") as fh:
        return parse_lattice_text(fh.read())


def write_lattice(lattice: Lattice, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_lattice_text(lattice))
