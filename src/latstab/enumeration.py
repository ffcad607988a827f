"""Complete depth-first enumeration of short and close lattice vectors.

One Fincke-Pohst search over integer coordinates against the Gram-Schmidt
quadratic form of a Frame, centred at 0 for short vectors and at the target
for close vectors. Callers are expected to pass frames of reduced bases
(the search stays complete on any basis, just slower). Node budgets are hard
errors, never silent truncation.
"""

from __future__ import annotations

from math import ceil, floor, gcd, isfinite, sqrt

from .errors import BudgetExceededError
from .reduction import Frame, dot

DEFAULT_BUDGET = 10**8

# relative slack on squared radii inside the search tree; authoritative
# acceptance happens in the callers on recomputed norms
TREE_SLACK = 1 + 1e-9


class NodeCounter:
    """Mutable node budget shared across several enumeration calls."""

    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int = DEFAULT_BUDGET):
        self.nodes = 0
        self.budget = budget

    def spend(self, amount: int) -> None:
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"enumeration exceeded its node budget of {self.budget} "
                f"after {self.nodes} nodes{self.context()}"
            )

    def context(self) -> str:
        """What a budget error should name besides the nodes spent."""
        return ""


def _fincke_pohst(frame: Frame, centre, r2: float, counter: NodeCounter,
                  nonzero: bool, half: bool):
    """All x with sum_i c_i (x_i + sum_{j>i} x_j mu_ji - centre_i)^2 <= r2.

    nonzero drops the zero vector; half (with nonzero) keeps one of each
    +-pair, the one whose highest-index nonzero coordinate is positive.
    Returns (coords, squared distance from the recurrence) pairs.
    """
    if not isfinite(r2):
        raise ValueError(f"search radius must be finite, got squared radius "
                         f"{r2}")
    _, mu, c, _ = frame
    m = len(c)
    out: list[tuple[tuple[int, ...], float]] = []
    x = [0] * m

    def descend(i: int, rho: float, top_zero: bool) -> None:
        if i < 0:
            out.append((tuple(x), rho))
            return
        center = centre[i]
        for j in range(i + 1, m):
            xj = x[j]
            if xj:
                center -= xj * mu[j][i]
        ci = c[i]
        width = sqrt(max(r2 - rho, 0.0) / ci) + 1e-12
        lo = ceil(center - width)
        hi = floor(center + width)
        if half and top_zero:
            lo = max(lo, 0)
        if hi < lo:
            return
        counter.spend(hi - lo + 1)
        for xi in range(lo, hi + 1):
            d = xi - center
            rho2 = rho + d * d * ci
            if rho2 <= r2:
                if top_zero and xi == 0 and i == 0:
                    continue  # the zero vector
                x[i] = xi
                descend(i - 1, rho2, top_zero and xi == 0)
        x[i] = 0

    descend(m - 1, 0.0, nonzero)
    return out


def short_vectors(frame: Frame, radius: float,
                  counter: NodeCounter | None = None, half: bool = True):
    """All nonzero x with |x @ rows| <= radius (up to tree slack).

    With half=True one representative per +-pair is produced, normalized so
    the highest-index nonzero coordinate is positive. Returns a list of
    (coords, norm_sq) pairs in no particular order; norm_sq comes from the
    search recurrence, so callers should re-check borderline vectors against
    their own exact norms.
    """
    if radius <= 0.0:
        return []
    return _fincke_pohst(frame, [0.0] * len(frame.c),
                         radius * radius * TREE_SLACK,
                         counter or NodeCounter(), True, half)


def _close_r2(radius: float) -> float:
    """Squared search radius of close_vectors, a cap on the d2 it returns."""
    return radius * radius * TREE_SLACK + 1e-18


def close_vectors(frame: Frame, target, radius: float,
                  counter: NodeCounter | None = None):
    """All x with |x @ rows - target| <= radius (up to tree slack)."""
    # express target in the Gram-Schmidt frame
    tau = [dot(target, b) / ci for b, ci in zip(frame.bstar, frame.c)]
    return _fincke_pohst(frame, tau, _close_r2(radius),
                         counter or NodeCounter(), False, False)


def primitive_half_vectors(frame: Frame, radius: float,
                           counter: NodeCounter | None = None):
    """Primitive half-vectors within radius, sorted by ascending norm."""
    vecs = short_vectors(frame, radius, counter=counter, half=True)
    prim = sorted((norm_sq, coords) for coords, norm_sq in vecs
                  if gcd(*coords) == 1)
    return [(coords, norm_sq) for norm_sq, coords in prim]
