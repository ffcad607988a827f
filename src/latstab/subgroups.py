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
search is far cheaper (see _route). The route hands each driver the exact
Gram determinant of the subgroup a candidate stands for, in the
candidate's own coordinates (lattice.dual_gram_determinant for a dual
candidate), the map to its canonical form in the lattice, and a test for
whether the candidate is the seed, so minimal_subgroup, subgroups_within
and exists_below each have one candidate loop on both routes.

The seed is the span of the leading k reduced rows. Its exact Gram
determinant, for all k at once, is a leading principal minor of the
reduced form's Gram matrix, which the integral LLL of the exact form
already holds (Lattice._integral.d). exists_below tries it first, at every
rank: a rank it decides runs no search and spends no node, and a lattice
whose every rank it decides builds no search frame. minimal_subgroup
starts from it on both routes. The dual search finds the seed again on
nearly every lattice; each of the three drops that rediscovery before any
determinant or map, so the adjugate behind dual_gram_determinant and the
kernels of to_lattice are built only for the other subgroups.
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


def _check_rank(lattice: Lattice, k: int) -> int:
    n = lattice.dim
    if not 1 <= k <= n:
        raise ValueError(f"rank {k} out of range for dimension {n}")
    return n


def _route(lattice: Lattice, k: int):
    """(level, rank, scale, gram_det, to_lattice, is_seed) of the search for
    rank-k subgroups.

    A level is a (frame, lift) pair: the Gram-Schmidt frame of LLL-reduced
    float rows in R^n (projected below the top level), and the integer lift
    of its coordinates to coordinates in the searched lattice's basis.

    Ranks above n/2 are searched at rank n - k in the dual L*:
    D -> D' = D^perp cap L* is a bijection of primitive subgroups with
    covol(D') = covol(D) / covol(L), so with scale covol(L) the search
    threshold stays in L's units. The dual's floats only steer that search.

    gram_det(lattice, rows) is the exact Gram determinant, on L's exact
    form, of the subgroup a candidate stands for: exact_gram_determinant of
    L's own coordinates on a direct route, dual_gram_determinant of D =
    y^perp on a dual route, with no map back to L. to_lattice gives that
    subgroup's canonical form in L: canonical_form on a direct route; on a
    dual route the integer kernel of y, mapped to L once per distinct
    subgroup, keyed by the canonical form of y.

    is_seed(rows) says whether a candidate is the seed, the span of the
    leading k reduced rows, whose determinant d[k] and canonical form
    (_seed_form) every caller already holds. On a dual route it is exact:
    y is primitive of rank n - k, so its first k coordinates all vanish
    exactly when span(y) is the coordinate sublattice on e_k..e_{n-1}, that
    is when y^perp is span(R[:k]). On a direct route it is never true, and
    the direct route's candidates are decided as they come.
    """
    n = _check_rank(lattice, k)
    if 2 * k <= n or k == n:
        return (lattice._reduced, k, 1.0, exact_gram_determinant,
                canonical_form, lambda rows: False)
    u = lattice._reduced[1]
    mapped: dict[IntRows, IntRows] = {}

    def to_lattice(rows):
        # candidates come in coordinates y in the dual basis R^-T of the
        # reduced rows R = u B, and x @ R is orthogonal to y @ R^-T iff
        # x . y = 0; the rows y are primitive, so their HNF is canonical
        # for span(y) = D^perp cap L* and keys one subgroup D = y^perp
        key = canonical_form(rows)
        if key not in mapped:
            kernel = intmat.kernel_rows(rows)
            mapped[key] = canonical_form(intmat.matmul(kernel, u))
        return mapped[key]

    def is_seed(rows):
        return not any(x for row in rows for x in row[:k])

    return (lattice._dual_frame, n - k, lattice.covolume,
            dual_gram_determinant, to_lattice, is_seed)


def _seed_form(lattice: Lattice, k: int) -> IntRows:
    """Canonical form in L of the seed, the span of the leading k reduced
    rows; its exact Gram determinant is lattice._integral.d[k]."""
    return canonical_form(lattice._reduced[1][:k])


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

    Every primitive subgroup below the threshold is yielded, by the two
    facts above. Nothing is yielded outside the enumeration but a whole
    level, the only primitive rank-m subgroup of a rank-m lattice.
    """
    frame, lift = level
    if k == len(lift):
        yield list(lift)
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

    The seed gives the first least exact Gram determinant, d[k], and the
    threshold on both routes; a rediscovery of it is dropped before any
    determinant, since the band already holds it. Each other candidate is
    decided on its own exact d. The tie band holds the subgroups whose d
    equals the least so far; only that band is canonicalised in L, once per
    distinct subgroup on a dual route.
    """
    level, rank, scale, gram_det, to_lattice, is_seed = _route(lattice, k)
    best, band, seeded = lattice._integral.d[k], [], True
    search = _Search(_covolume(lattice, k, best) * SLACK, budget, k, rank)
    for rows in _candidates(level, rank, scale, search):
        if is_seed(rows):
            continue
        d = gram_det(lattice, rows)
        if d < best:
            best, band, seeded = d, [], False
        if d == best:
            band.append(rows)
        covol = _covolume(lattice, k, d)
        if covol * SLACK < search.threshold:
            search.threshold = covol * SLACK
    forms = {to_lattice(rows) for rows in band}
    if seeded:
        forms.add(_seed_form(lattice, k))
    return _covolume(lattice, k, best), min(forms, key=_tie_key)


def subgroups_within(lattice: Lattice, k: int, bound: float,
                     budget: int = DEFAULT_BUDGET) -> list[tuple[float, IntRows]]:
    """All primitive rank-k subgroups with covolume <= bound.

    Returns (covolume, canonical coords) pairs sorted by covolume then by
    coordinate matrix, deduplicated on the canonical form. Each candidate
    is canonicalised first, and each subgroup's exact determinant evaluated
    once: the search reaches a subgroup many times, and no candidate lies
    above the bound by more than the slack, so deciding first would
    canonicalise nearly every candidate anyway. The seed is mapped once,
    to d[k] and _seed_form, however often the search reaches it.
    """
    _check_rank(lattice, k)
    if not bound > 0:
        raise ValueError("bound must be positive")
    level, rank, scale, gram_det, to_lattice, is_seed = _route(lattice, k)
    search = _Search(bound, budget, k, rank)
    found: dict[IntRows, float] = {}
    seen_seed = False
    for rows in _candidates(level, rank, scale, search):
        if is_seed(rows):
            seen_seed = True
            continue
        canon = to_lattice(rows)
        if canon not in found:
            found[canon] = _covolume(lattice, k, gram_det(lattice, rows))
    if seen_seed:
        # is_seed is exact, so no other candidate maps to the seed's form
        found[_seed_form(lattice, k)] = _covolume(lattice, k,
                                                  lattice._integral.d[k])
    return sorted((v, c) for c, v in found.items() if v <= bound)


def exists_below(lattice: Lattice, k: int, bound: float,
                 budget: int = DEFAULT_BUDGET) -> bool:
    """Whether some rank-k subgroup has covolume strictly below bound; the
    bound math.nextafter(b, math.inf) asks for covolume <= b.

    Early-exits on the first witness, so deciding instability is much
    cheaper than computing the minimum itself. The span of the leading k
    reduced rows is tried first, at every rank and before any routing: a
    rank it decides builds no dual frame, runs no search and spends no
    node of the budget. A rank it leaves open is decided by the search's
    other candidates alone, on either route.
    """
    _check_rank(lattice, k)
    if not bound > 0:
        return False
    # a primitive subgroup below the bound proves the answer, which the
    # complete search would reach with the same float of the same exact d
    if _covolume(lattice, k, lattice._integral.d[k]) < bound:
        return True
    level, rank, scale, gram_det, _, is_seed = _route(lattice, k)
    search = _Search(bound, budget, k, rank)
    # every primitive subgroup below the threshold is a candidate of its own
    # (completeness), so a candidate's own exact covolume decides; the
    # seed's was refused above
    return any(not is_seed(rows)
               and _covolume(lattice, k, gram_det(lattice, rows)) < bound
               for rows in _candidates(level, rank, scale, search))
