"""Stability invariants: the per-rank minimal covolumes, the canonical
polygon, the stability predicate, and a covering-radius lower bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import subgroups
from .enumeration import DEFAULT_BUDGET
from .errors import InvariantViolationError
from .lattice import Lattice, Sublattice, _babai_caps, closest_vector
from .rng import stream_generator

# band inside which a minimal covolume of 1 still counts as stable
STABILITY_TOL = 1e-12
# covrad trials drawn and screened at once; bounds the screen's memory
_COVRAD_BLOCK = 1024


class PolygonPoint(NamedTuple):
    k: int
    y: float
    on_hull: bool


@dataclass(frozen=True)
class AlphaProfile:
    """Per-rank stability data of one unimodular lattice."""

    alphas: tuple[float, ...]
    minimizers: tuple[Sublattice, ...]
    polygon: tuple[PolygonPoint, ...]
    stable: bool

    @property
    def n(self) -> int:
        return len(self.alphas) + 1

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "alphas": list(self.alphas),
            "stable": self.stable,
            "polygon": [[p.k, p.y, p.on_hull] for p in self.polygon],
            "minimizers": [
                [list(row) for row in sub.coords] for sub in self.minimizers
            ],
        }


@dataclass(frozen=True)
class CovradEstimate:
    lower_bound: float
    trials: int
    argmax_point: tuple[float, ...]


def _require_unimodular(lattice: Lattice) -> None:
    if not lattice.is_unimodular():
        raise ValueError(
            f"lattice covolume {lattice.covolume!r} is not 1 within 1e-9; "
            "rescale before computing stability invariants"
        )


def min_covolume(lattice: Lattice, k: int,
                 budget: int = DEFAULT_BUDGET) -> tuple[float, Sublattice]:
    """Minimal covolume over rank-k subgroups, with a primitive minimizer."""
    covol, coords = subgroups.minimal_subgroup(lattice, k, budget)
    sub = Sublattice(rank=k, coords=coords, covolume=covol, primitive=True)
    return covol, sub


def alpha(lattice: Lattice, k: int,
          budget: int = DEFAULT_BUDGET) -> tuple[float, Sublattice]:
    """Minimum of covol(D)^(1/k) over rank-k subgroups D, plus a minimizer.

    The public contract restricts inputs to unimodular lattices.
    """
    if not 1 <= k <= lattice.dim - 1:
        raise ValueError(
            f"k must lie in [1, n-1] = [1, {lattice.dim - 1}], got {k}"
        )
    _require_unimodular(lattice)
    covol, sub = min_covolume(lattice, k, budget)
    return covol ** (1.0 / k), sub


def _lower_hull(points):
    """Vertices of the lower convex hull; input sorted by x."""
    hull: list[tuple[float, float]] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _mark_hull(points):
    hull = _lower_hull(points)
    marked = []
    for x, y in points:
        on = False
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2 and x2 > x1:
                y_line = y1 + (y2 - y1) * (x - x1) / (x2 - x1)
                if y <= y_line + 1e-12 * max(1.0, abs(y_line)):
                    on = True
                    break
        if not on and any(x == hx and y == hy for hx, hy in hull):
            on = True
        marked.append((x, y, on))
    return marked


def alpha_profile(lattice: Lattice,
                  budget: int = DEFAULT_BUDGET) -> AlphaProfile:
    """All alpha_k for k = 1..n-1 with the canonical polygon.

    The polygon is the lower convex hull of (0, 0), (k, log of the minimal
    rank-k covolume) and (n, 0); it is flat exactly for stable lattices.
    """
    _require_unimodular(lattice)
    n = lattice.dim
    alphas = []
    minimizers = []
    logs = []
    for k in range(1, n):
        covol, sub = min_covolume(lattice, k, budget)
        alphas.append(covol ** (1.0 / k))
        minimizers.append(sub)
        logs.append(math.log(covol))
    points = [(0.0, 0.0)] + [(float(k), logs[k - 1]) for k in range(1, n)]
    points.append((float(n), 0.0))
    marked = _mark_hull(points)
    polygon = tuple(
        PolygonPoint(k=int(x), y=y, on_hull=on) for x, y, on in marked
    )
    stable = min(alphas) >= 1.0 - STABILITY_TOL
    return AlphaProfile(
        alphas=tuple(alphas),
        minimizers=tuple(minimizers),
        polygon=polygon,
        stable=stable,
    )


def is_stable(lattice: Lattice, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether every rank-k minimal covolume is at least 1 (within the
    stability band). Early-exits as soon as a witness subgroup is found."""
    _require_unimodular(lattice)
    for k in range(1, lattice.dim):
        bound = (1.0 - STABILITY_TOL) ** k
        if subgroups.exists_below(lattice, k, bound, budget):
            return False
    return True


def in_s_k(lattice: Lattice, k: int, t: float,
           budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the rank-k invariant sits at or above the threshold t.

    Decided in the covolume domain: no rank-k subgroup may have covolume
    strictly below t^k. Monotone non-increasing in t.
    """
    if not t > 0:
        raise ValueError("threshold t must be positive")
    if not 1 <= k <= lattice.dim - 1:
        raise ValueError(
            f"k must lie in [1, n-1] = [1, {lattice.dim - 1}], got {k}"
        )
    _require_unimodular(lattice)
    return not subgroups.exists_below(lattice, k, t**k, budget)


def covrad_lower(lattice: Lattice, trials: int, rng_seed: int,
                 budget: int = DEFAULT_BUDGET) -> CovradEstimate:
    """Covering-radius lower bound from CVP distances at random points.

    Draws uniform points in the fundamental parallelepiped and takes the
    largest closest-vector distance. One-sided by construction up to the
    float error of that distance, about 1e-7 relative (raw gm points lie up
    to about 3e7 from the origin): the true covering radius can only be
    larger.

    The bound is the largest distance over the trials and its point is the
    lowest-index trial at that distance. The search returns sqrt(d2) with
    d2 <= r2, its squared radius around the Babai point, so sqrt(r2) caps a
    trial's distance. The caps of a block of trials come from one batched
    Babai pass that is bitwise the per-trial one; closest_vector then
    searches the block's trials from the highest cap down, equal caps in
    index order, and the block ends at the first trial that cannot win: a
    cap below the maximum, or equal to it at a later index than the
    maximum's trial (a maximum from an earlier block wins ties). Each point
    stays its own u @ basis product, taken over a stack of 1 x n rows: a
    (block x n) @ basis matrix product can round differently in the last
    bits and move the reported point. The node budget is spent per searched
    trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    gen = stream_generator(rng_seed, 0)
    best = -1.0
    arg: tuple[float, ...] = ()
    basis = lattice.basis
    for start in range(0, trials, _COVRAD_BLOCK):
        draws = gen.random((min(_COVRAD_BLOCK, trials - start), lattice.dim))
        # a stack of 1 x n rows: each point is its own u @ basis product
        points = np.matmul(draws[:, None, :], basis)[:, 0, :]
        caps = _babai_caps(lattice, points).tolist()
        win = -1  # index of the block's maximum trial; -1: an earlier block's
        for j in sorted(range(len(caps)), key=caps.__getitem__, reverse=True):
            if caps[j] < best or (caps[j] == best and j > win):
                break
            dist = closest_vector(lattice, points[j], budget).distance
            if dist > best or (dist == best and j < win):
                best, win = dist, j
        if win >= 0:
            arg = tuple(float(v) for v in points[win])
    if best < 0:
        raise InvariantViolationError("covering radius scan found no point")
    return CovradEstimate(lower_bound=best, trials=trials, argmax_point=arg)


def profile_csv_rows(profile: AlphaProfile):
    """Rows (n, k, alpha_k) for the stable CSV summary."""
    return [(profile.n, k + 1, a) for k, a in enumerate(profile.alphas)]
