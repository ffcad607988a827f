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
threshold T / |v|. Collected candidates are saturated and every covolume is
evaluated in exact arithmetic before any decision is made; exists_below
decides on each candidate's own covolume, since by completeness a saturation
below the threshold is a candidate itself. The floating-point search radii
only ever carry a small relative slack.
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
    exact_gram_determinant,
    saturate,
    subgroup_covolume,
)
from .reduction import dot, gs_frame, lll_rows

SLACK = 1 + 1e-9
TIE_RTOL = 1e-12


class _Level:
    """Residual lattice of one recursion level.

    rows are float basis vectors living in the ambient R^n (projected when
    the level is below the top); lift maps residual integer coordinates back
    to integer coordinates in the ambient lattice basis.
    """

    __slots__ = ("rows", "lift")

    def __init__(self, rows, lift):
        self.rows = rows
        self.lift = lift


class _Search:
    __slots__ = ("threshold", "counter")

    def __init__(self, threshold: float, budget: int):
        self.threshold = threshold
        self.counter = NodeCounter(budget)


def _top_level(lattice: Lattice) -> _Level:
    rows, u = lattice._reduced
    return _Level([row[:] for row in rows], [list(r) for r in u])


def _reduce_level(level: _Level) -> _Level:
    rows, u = lll_rows(level.rows)
    return _Level(rows, intmat.matmul(u, level.lift))


def _project(level: _Level, x):
    """Split the level along the primitive residual vector x.

    Returns (ambient coords of the branch vector, its residual norm, and the
    level formed by the remaining rows projected orthogonally to it).
    """
    w = intmat.complete_primitive_row(x)
    m = len(level.rows)
    width = len(level.rows[0])
    new_rows = [
        [sum(w[i][j] * level.rows[j][c] for j in range(m)) for c in range(width)]
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
    return lift2[0], vnorm, _Level(proj, lift2[1:])


def _candidates(level: _Level, k: int, scale: float, search: _Search):
    """Yield generator row lists (ambient integer coords) of candidate
    subgroups with covolume below roughly search.threshold.

    The first yield of each level is the span of the leading reduced rows,
    which gives the drivers a cheap valid witness and, in minimization mode,
    an immediate upper bound before any radius is computed.
    """
    level = _reduce_level(level)
    m = len(level.rows)
    if k > m:
        return
    yield [row[:] for row in level.lift[:k]]
    if k == m:
        # the only primitive rank-m subgroup of a rank-m lattice is itself
        return
    if k == 1:
        limit = (search.threshold / scale) * SLACK
        if limit <= 0:
            return
        for x, n2 in primitive_half_vectors(gs_frame(level.rows), limit,
                                            counter=search.counter):
            if sqrt(n2) > (search.threshold / scale) * SLACK:
                break  # sorted ascending; threshold may have shrunk
            yield [_apply_lift(x, level.lift)]
        return
    bound = sqrt(hermite_upper(k))
    radius = bound * (search.threshold / scale) ** (1.0 / k) * SLACK
    if radius <= 0:
        return
    for x, n2 in primitive_half_vectors(gs_frame(level.rows), radius,
                                        counter=search.counter):
        if sqrt(n2) > bound * (search.threshold / scale) ** (1.0 / k) * SLACK:
            break
        vcoords, vnorm, sub = _project(level, x)
        for rest in _candidates(sub, k - 1, scale * vnorm, search):
            yield [list(vcoords)] + rest


def _apply_lift(x, lift):
    return [sum(x[i] * lift[i][j] for i in range(len(x)))
            for j in range(len(lift[0]))]


def _tie_key(coords: IntRows):
    # prefer generators supported on the earliest coordinates: read the
    # flattened canonical matrix backwards and take the lexicographic min
    flat = [entry for row in coords for entry in row]
    return tuple(reversed(flat))


def minimal_subgroup(lattice: Lattice, k: int,
                     budget: int = DEFAULT_BUDGET) -> tuple[float, IntRows]:
    """Minimal covolume over rank-k subgroups, with a canonical minimizer.

    The returned coordinate matrix is the Hermite normal form of the
    saturated minimizer; among exact covolume ties the canonical matrix
    preferred by _tie_key wins.
    """
    if not 1 <= k <= lattice.dim:
        raise ValueError(f"rank {k} out of range for dimension {lattice.dim}")
    search = _Search(float("inf"), budget)
    best_covol: float | None = None
    ties: dict[IntRows, float] = {}
    for rows in _candidates(_top_level(lattice), k, 1.0, search):
        canon = saturate(rows)
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
    if len(ties) > 1 and lattice.exact_basis is not None:
        # resolve near-ties exactly on the integer Gram determinants
        exact = {c: exact_gram_determinant(lattice, c) for c in ties}
        dmin = min(exact.values())
        finalists = [c for c, d in exact.items() if d == dmin]
        winner = min(finalists, key=_tie_key)
        return ties[winner], winner
    finalists = [c for c, v in ties.items() if v <= best_covol * (1 + TIE_RTOL)]
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
        canon = saturate(rows)
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
