"""Search for low-covolume rank-k subgroups of a lattice.

The search branches on a short primitive generator and recurses in the
projection orthogonal to it. Completeness rests on two classical facts:

* a rank-k lattice of covolume d contains a nonzero vector of norm at most
  sqrt(g_k) * d^(1/k), where g_k bounds the rank-k Hermite constant
  (Minkowski's theorem), and the shortest vector of a saturated subgroup is
  primitive in the ambient lattice;
* projecting a primitive subgroup along one of its primitive vectors v
  yields a primitive rank-(k-1) subgroup of the projected lattice with
  covolume covol / |v|, and every such pair (v, projected subgroup) lifts
  back to the subgroup it came from.

So every primitive subgroup with covolume <= T is reached by branching over
primitive vectors of norm <= sqrt(g_k) * T^(1/k) and recursing with
threshold T / |v|. Every candidate is primitive by construction: a primitive
vector completed to a unimodular basis, followed by a primitive candidate of
the projection. Its Hermite normal form is therefore the canonical basis of
its saturation, and candidates are canonicalised by HNF alone. Every
covolume is evaluated in exact arithmetic before any decision is made; the
floating-point search radii only ever carry a small relative slack.

Ranks k > n/2 are searched at rank n - k in the dual lattice, where the
search is far cheaper (see _route). A dual candidate is decided in the
dual's own coordinates, by the exact Gram determinant of the subgroup of
the lattice it stands for (lattice.dual_gram_determinant); only the
candidates a driver returns are mapped back to the lattice and
canonicalised.

exists_below tries the span of the leading k reduced rows first, at every
rank: their exact Gram determinants, for all k at once, are the leading
principal minors of the reduced form's Gram matrix (Lattice._leading_dets),
which the integral LLL of a declared form already holds. A rank that span
decides runs no search and spends no node, and a lattice whose every rank
it decides builds no search frame.
"""

from __future__ import annotations

from math import sqrt
from operator import mul

from . import intmat
from .constants import hermite_upper
from .enumeration import (
    DEFAULT_BUDGET,
    NodeCounter,
    primitive_half_vectors,
)
from .lattice import (
    IntRows,
    Lattice,
    _covolume,
    canonical_form,
    dual_gram_determinant,
    exact_gram_determinant,
    subgroup_covolume,
)
from .reduction import dot, lll_rows

SLACK = 1 + 1e-9


class _Search(NodeCounter):
    """Node budget and threshold (in the lattice's own units) of one search
    for rank-k subgroups, run at the given rank."""

    __slots__ = ("threshold", "k", "rank")

    def __init__(self, threshold: float, budget: int, k: int, rank: int):
        super().__init__(budget)
        self.threshold = threshold
        self.k = k
        self.rank = rank

    def context(self) -> str:
        where = "the dual lattice" if self.rank != self.k else "the lattice"
        return (f" in a rank-{self.k} subgroup search run at rank "
                f"{self.rank} on {where}, threshold {self.threshold:.12g}")


def _direct(rows):
    return canonical_form(rows)


def _check_rank(lattice: Lattice, k: int) -> int:
    n = lattice.dim
    if not 1 <= k <= n:
        raise ValueError(f"rank {k} out of range for dimension {n}")
    return n


def _route(lattice: Lattice, k: int):
    """(level, rank, scale, to_lattice) of the search for rank-k subgroups.

    A level is a (frame, lift) pair: the Gram-Schmidt frame of LLL-reduced
    float rows in R^n (projected below the top level), and the integer lift
    of its coordinates to coordinates in the searched lattice's basis.

    Ranks above n/2 are searched at rank n - k in the dual L*:
    D -> D' = D^perp cap L* is a bijection of primitive subgroups with
    covol(D') = covol(D) / covol(L), so with scale covol(L) the search
    threshold stays in L's units. The dual's floats only steer that search;
    the drivers decide each dual candidate y on the exact Gram determinant
    of D = y^perp, dual_gram_determinant, with no map back to L.

    to_lattice gives the canonical form in L of the subgroup a candidate
    stands for: _direct on a direct route, where candidates are L's own
    coordinates; on a dual route the integer kernel of y, mapped to L once
    per distinct subgroup.
    """
    n = _check_rank(lattice, k)
    if 2 * k <= n or k == n:
        return lattice._reduced, k, 1.0, _direct
    u = lattice._reduced[1]
    mapped: list[tuple[list, IntRows]] = []

    def to_lattice(rows):
        # candidates come in coordinates y in the dual basis R^-T of the
        # reduced rows R = u B, and x @ R is orthogonal to y @ R^-T iff
        # x . y = 0; a kernel and y^perp are both primitive of rank k, so a
        # candidate orthogonal to a kernel already mapped is its subgroup
        for kernel, canon in mapped:
            if not any(sum(map(mul, x, y)) for x in kernel for y in rows):
                return canon
        kernel = intmat.kernel_rows(rows)
        canon = canonical_form(intmat.matmul(kernel, u))
        mapped.append((kernel, canon))
        return canon

    return lattice._dual_frame, n - k, lattice.covolume, to_lattice


def _project(rows, lift, x):
    """Split the level with these float rows and lift along the primitive
    residual vector x.

    Returns (ambient coords of the branch vector, its residual norm, and the
    reduced level formed by the remaining rows projected orthogonally to it).
    """
    w = intmat.complete_primitive_row(x)
    cols = list(zip(*rows))
    new_rows = [[sum(map(mul, wi, col)) for col in cols] for wi in w]
    lift2 = intmat.matmul(w, lift)
    v = new_rows[0]
    vn2 = dot(v, v)
    vnorm = sqrt(vn2)
    proj = []
    for r in new_rows[1:]:
        f = dot(r, v) / vn2
        proj.append([rc - f * vc for rc, vc in zip(r, v)])
    frame, u = lll_rows(proj)
    return lift2[0], vnorm, (frame, intmat.matmul(u, lift2[1:]))


def _candidates(level, k: int, scale: float, search: _Search):
    """Yield generator row lists (ambient integer coords) of candidate
    subgroups with covolume below roughly search.threshold.

    The first yield of each level is the span of the leading reduced rows,
    which gives the drivers a cheap valid witness and, in minimization mode,
    an immediate upper bound before any radius is computed. exists_below
    has decided that span already, and skips it on a direct route.
    """
    frame, lift = level
    yield list(lift[:k])
    if k == len(lift):
        # the only primitive rank-m subgroup of a rank-m lattice is itself
        return
    bound = sqrt(hermite_upper(k))
    radius = bound * (search.threshold / scale) ** (1.0 / k) * SLACK
    if radius <= 0:
        return
    for x, n2 in primitive_half_vectors(frame, radius, counter=search):
        if sqrt(n2) > bound * (search.threshold / scale) ** (1.0 / k) * SLACK:
            break  # sorted ascending; threshold may have shrunk
        if k == 1:
            yield intmat.matmul([x], lift)
            continue
        vcoords, vnorm, sub = _project(frame.rows, lift, x)
        for rest in _candidates(sub, k - 1, scale * vnorm, search):
            yield [vcoords] + rest


def _tie_key(coords: IntRows):
    # prefer generators supported on the earliest coordinates: read the
    # flattened canonical matrix backwards and take the lexicographic min
    flat = [entry for row in coords for entry in row]
    return tuple(reversed(flat))


def minimal_subgroup(lattice: Lattice, k: int,
                     budget: int = DEFAULT_BUDGET) -> tuple[float, IntRows]:
    """Minimal covolume over rank-k subgroups, with a canonical minimizer.

    The returned coordinate matrix is the Hermite normal form of the
    minimizer, which is primitive by construction; among exact covolume
    ties the canonical matrix preferred by _tie_key wins.

    Each candidate is decided on its exact Gram determinant d, a dual
    candidate in the dual's coordinates. The tie band holds the candidates
    whose d equals the least so far; only that band is canonicalised in L,
    once per distinct subgroup on a dual route.
    """
    level, rank, scale, to_lattice = _route(lattice, k)
    gram_det = (exact_gram_determinant if to_lattice is _direct
                else dual_gram_determinant)
    search = _Search(float("inf"), budget, k, rank)
    best: int | None = None
    band: list = []
    for rows in _candidates(level, rank, scale, search):
        d = gram_det(lattice, rows)
        if best is None or d < best:
            best, band = d, []
        if d == best:
            band.append(rows)
        covol = _covolume(lattice, k, d)
        if covol * SLACK < search.threshold:
            search.threshold = covol * SLACK
    if best is None:
        raise AssertionError("subgroup search yielded no candidate")
    winner = min({to_lattice(rows) for rows in band}, key=_tie_key)
    return _covolume(lattice, k, best), winner


def subgroups_within(lattice: Lattice, k: int, bound: float,
                     budget: int = DEFAULT_BUDGET) -> list[tuple[float, IntRows]]:
    """All primitive rank-k subgroups with covolume <= bound.

    Returns (covolume, canonical coords) pairs sorted by covolume then by
    coordinate matrix, deduplicated on the canonical form.
    """
    level, rank, scale, to_lattice = _route(lattice, k)
    if not bound > 0:
        raise ValueError("bound must be positive")
    search = _Search(bound, budget, k, rank)
    found: dict[IntRows, float] = {}
    for rows in _candidates(level, rank, scale, search):
        if to_lattice is not _direct:
            # decided in the dual; only a candidate within the bound is mapped
            covol = _covolume(lattice, k, dual_gram_determinant(lattice, rows))
            if covol <= bound:
                found[to_lattice(rows)] = covol
            continue
        canon = canonical_form(rows)
        if canon in found:
            continue
        covol = subgroup_covolume(lattice, canon)
        if covol <= bound:
            found[canon] = covol
    return sorted(((v, c) for c, v in found.items()),
                  key=lambda item: (item[0], item[1]))


def exists_below(lattice: Lattice, k: int, bound: float,
                 budget: int = DEFAULT_BUDGET) -> bool:
    """Whether some rank-k subgroup has covolume strictly below bound; the
    bound math.nextafter(b, math.inf) asks for covolume <= b.

    Early-exits on the first witness, so deciding instability is much
    cheaper than computing the minimum itself. The span of the leading k
    reduced rows is tried first, at every rank and before any routing: a
    rank it decides builds no dual frame, runs no search and spends no
    node of the budget.
    """
    _check_rank(lattice, k)
    if not bound > 0:
        return False
    # a primitive subgroup below the bound proves the answer, which the
    # complete search would reach with the same float of the same exact d
    if _covolume(lattice, k, lattice._leading_dets[k - 1]) < bound:
        return True
    level, rank, scale, to_lattice = _route(lattice, k)
    search = _Search(bound, budget, k, rank)
    candidates = _candidates(level, rank, scale, search)
    # every primitive subgroup below the threshold is a candidate of its own
    # (completeness), so a candidate's own exact covolume decides: a dual
    # candidate's in the dual's coordinates, with no map back to L
    if to_lattice is not _direct:
        return any(_covolume(lattice, k, dual_gram_determinant(lattice, y))
                   < bound for y in candidates)
    next(candidates)  # the leading k rows, refused above
    return any(subgroup_covolume(lattice, rows) < bound
               for rows in candidates)
