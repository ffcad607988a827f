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
"""

from __future__ import annotations

from math import sqrt

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
    canonical_form,
    exact_gram_determinant,
    subgroup_covolume,
)
from .reduction import dot, gs_frame, lll_rows

SLACK = 1 + 1e-9
TIE_RTOL = 1e-12


class _Level:
    """Residual lattice of one recursion level.

    frame is the Gram-Schmidt frame of the level's LLL-reduced float rows,
    which live in the ambient R^n (projected when the level is below the
    top); lift maps residual integer coordinates back to integer coordinates
    in the ambient lattice basis.
    """

    __slots__ = ("frame", "lift")

    def __init__(self, frame, lift):
        self.frame = frame
        self.lift = lift


class _Search:
    __slots__ = ("threshold", "counter")

    def __init__(self, threshold: float, budget: int):
        self.threshold = threshold
        self.counter = NodeCounter(budget)


def _top_level(lattice: Lattice) -> _Level:
    return _Level(lattice._frame, lattice._reduced[1])


def _project(level: _Level, x):
    """Split the level along the primitive residual vector x.

    Returns (ambient coords of the branch vector, its residual norm, and the
    reduced level formed by the remaining rows projected orthogonally to it).
    """
    rows = level.frame.rows
    w = intmat.complete_primitive_row(x)
    m = len(rows)
    width = len(rows[0])
    new_rows = [
        [sum(w[i][j] * rows[j][c] for j in range(m)) for c in range(width)]
        for i in range(m)
    ]
    lift2 = intmat.matmul(w, level.lift)
    v = new_rows[0]
    vn2 = dot(v, v)
    vnorm = sqrt(vn2)
    proj = []
    for r in new_rows[1:]:
        f = dot(r, v) / vn2
        proj.append([rc - f * vc for rc, vc in zip(r, v)])
    reduced, u = lll_rows(proj)
    sub = _Level(gs_frame(reduced), intmat.matmul(u, lift2[1:]))
    return lift2[0], vnorm, sub


def _candidates(level: _Level, k: int, scale: float, search: _Search):
    """Yield generator row lists (ambient integer coords) of candidate
    subgroups with covolume below roughly search.threshold.

    The first yield of each level is the span of the leading reduced rows,
    which gives the drivers a cheap valid witness and, in minimization mode,
    an immediate upper bound before any radius is computed.
    """
    yield list(level.lift[:k])
    if k == len(level.lift):
        # the only primitive rank-m subgroup of a rank-m lattice is itself
        return
    bound = sqrt(hermite_upper(k))
    radius = bound * (search.threshold / scale) ** (1.0 / k) * SLACK
    if radius <= 0:
        return
    for x, n2 in primitive_half_vectors(level.frame, radius,
                                        counter=search.counter):
        if sqrt(n2) > bound * (search.threshold / scale) ** (1.0 / k) * SLACK:
            break  # sorted ascending; threshold may have shrunk
        if k == 1:
            yield intmat.matmul([x], level.lift)
            continue
        vcoords, vnorm, sub = _project(level, x)
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
    """
    if not 1 <= k <= lattice.dim:
        raise ValueError(f"rank {k} out of range for dimension {lattice.dim}")
    search = _Search(float("inf"), budget)
    best_covol: float | None = None
    ties: dict[IntRows, float] = {}
    for rows in _candidates(_top_level(lattice), k, 1.0, search):
        canon = canonical_form(rows)
        covol = subgroup_covolume(lattice, canon)
        if best_covol is None or covol < best_covol * (1 - TIE_RTOL):
            best_covol = covol
            ties = {canon: covol}
        elif covol <= best_covol * (1 + TIE_RTOL):
            ties.setdefault(canon, covol)
            best_covol = min(best_covol, covol)
        if covol * SLACK < search.threshold:
            search.threshold = covol * SLACK
    if best_covol is None:
        raise AssertionError("subgroup search yielded no candidate")
    finalists = [c for c, v in ties.items() if v <= best_covol * (1 + TIE_RTOL)]
    if len(finalists) > 1 and lattice.exact_basis is not None:
        # resolve near-ties exactly on the integer Gram determinants; the
        # covolume is monotone in the determinant, so every exact minimizer
        # lies in the float band
        exact = {c: exact_gram_determinant(lattice, c) for c in finalists}
        dmin = min(exact.values())
        finalists = [c for c in finalists if exact[c] == dmin]
    winner = min(finalists, key=_tie_key)
    return ties[winner], winner


def subgroups_within(lattice: Lattice, k: int, bound: float,
                     budget: int = DEFAULT_BUDGET) -> list[tuple[float, IntRows]]:
    """All primitive rank-k subgroups with covolume <= bound.

    Returns (covolume, canonical coords) pairs sorted by covolume then by
    coordinate matrix, deduplicated on the canonical form.
    """
    if not 1 <= k <= lattice.dim:
        raise ValueError(f"rank {k} out of range for dimension {lattice.dim}")
    if not bound > 0:
        raise ValueError("bound must be positive")
    search = _Search(bound, budget)
    found: dict[IntRows, float] = {}
    for rows in _candidates(_top_level(lattice), k, 1.0, search):
        canon = canonical_form(rows)
        if canon in found:
            continue
        covol = subgroup_covolume(lattice, canon)
        if covol <= bound:
            found[canon] = covol
    return sorted(((v, c) for c, v in found.items()),
                  key=lambda item: (item[0], item[1]))


def exists_below(lattice: Lattice, k: int, bound: float,
                 budget: int = DEFAULT_BUDGET,
                 inclusive: bool = False) -> bool:
    """Whether some rank-k subgroup has covolume < bound (<= if inclusive).

    Early-exits on the first witness, so deciding instability is much
    cheaper than computing the minimum itself.
    """
    if not 1 <= k <= lattice.dim:
        raise ValueError(f"rank {k} out of range for dimension {lattice.dim}")
    if not bound > 0:
        return False
    search = _Search(bound, budget)
    # every primitive subgroup below the threshold is a candidate of its own
    # (completeness), so a candidate's own exact covolume decides
    for rows in _candidates(_top_level(lattice), k, 1.0, search):
        covol = subgroup_covolume(lattice, rows)
        if covol < bound or (inclusive and covol == bound):
            return True
    return False
