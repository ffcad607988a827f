"""Closed-form constants evaluated in log space.

Covers unit ball volumes, the integer zeta values with the zeta(1) = 1
convention used throughout this package, the derived quantities
R(j) = j^2 V_j / zeta(j) and B(n, k), the integral value B(n, k) t^n / n,
the thresholds t(n, k) and the per-n minimal admissible constant in the
bound B(n, k) <= (C/n)^(k(n-k)/2). All products over j go through cached
prefix sums of log R(j), so a single (n, k) query is O(1) and nothing
overflows for n up to 10^4.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple


class LogValue(NamedTuple):
    log: float
    value: float


# exact Hermite constants gamma_k = sup (lambda_1^2 / covol^(2/k)), k <= 8
HERMITE_GAMMA = {
    1: 1.0,
    2: 2.0 / math.sqrt(3.0),
    3: 2.0 ** (1.0 / 3.0),
    4: math.sqrt(2.0),
    5: 8.0 ** (1.0 / 5.0),
    6: (64.0 / 3.0) ** (1.0 / 6.0),
    7: 64.0 ** (1.0 / 7.0),
    8: 2.0,
}

# the one classically known constant beyond k = 1 and k = n-1 duality
RANKIN_GAMMA_4_2 = 1.5


def hermite_constant(k: int) -> float:
    """Exact Hermite constant; only known for k <= 8."""
    try:
        return HERMITE_GAMMA[k]
    except KeyError:
        raise ValueError(f"Hermite constant unknown for rank {k}") from None


def hermite_upper(k: int) -> float:
    """Valid upper bound on the rank-k Hermite constant."""
    if k < 1:
        raise ValueError("rank must be positive")
    if k <= 8:
        return HERMITE_GAMMA[k]
    # Hermite's inequality and the linear bound; both valid, take the smaller
    return min((4.0 / 3.0) ** ((k - 1) / 2.0), 2.0 * k / 3.0)


def unit_ball_volume(j: int) -> LogValue:
    """Volume of the unit ball in R^j via log-gamma."""
    if j < 1:
        raise ValueError("dimension must be at least 1")
    lv = 0.5 * j * math.log(math.pi) - math.lgamma(0.5 * j + 1.0)
    return LogValue(lv, math.exp(lv))


def zeta(j: int) -> float:
    """Riemann zeta at integer j >= 2, with zeta(1) defined as 1.

    Direct series with an Euler-Maclaurin tail; the first omitted term is
    below 1e-14 of the value, comfortably inside the 1e-12 target.
    """
    if j < 1:
        raise ValueError("zeta is evaluated at positive integers only")
    if j == 1:
        return 1.0
    if j >= 60:
        return 1.0
    s = float(j)
    m = 64
    head = sum(i ** (-s) for i in range(1, m + 1))
    tail = (
        m ** (1.0 - s) / (s - 1.0)
        - 0.5 * m ** (-s)
        + (s / 12.0) * m ** (-s - 1.0)
        - (s * (s + 1.0) * (s + 2.0) / 720.0) * m ** (-s - 3.0)
    )
    return head + tail


def r_constant(j: int) -> LogValue:
    """R(j) = j^2 V_j / zeta(j)."""
    if j < 1:
        raise ValueError("argument must be at least 1")
    lr = 2.0 * math.log(j) + unit_ball_volume(j).log - math.log(zeta(j))
    return LogValue(lr, math.exp(lr))


class _PrefixCache:
    """Prefix sums of log R(j), grown on demand, safe for concurrent reads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sums = [0.0]  # _sums[m] = sum_{j<=m} log R(j)

    def prefix(self, n: int) -> float:
        if n >= len(self._sums):
            with self._lock:
                while len(self._sums) <= n:
                    j = len(self._sums)
                    self._sums.append(self._sums[-1] + r_constant(j).log)
        return self._sums[n]


_PREFIX = _PrefixCache()


def check_rank(n: int, k: int) -> None:
    """Reject a subgroup rank k outside [1, n-1]."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, n-1], got k={k}, n={n}")


def b_constant_log(n: int, k: int) -> float:
    """log B(n, k) where B(n, k) = prod R(j) over j <= n divided by the
    products over j <= k and j <= n-k.

    Evaluated as prefix(n) - (prefix(k) + prefix(n-k)), which is bitwise
    symmetric under k <-> n-k.
    """
    check_rank(n, k)
    return _PREFIX.prefix(n) - (_PREFIX.prefix(k) + _PREFIX.prefix(n - k))


def thunder_integral_log(n: int, k: int, t: float) -> float:
    """log of B(n, k) * t^n / n."""
    if not t > 0:
        raise ValueError(f"threshold t must be positive, got {t!r}")
    return b_constant_log(n, k) + n * math.log(t) - math.log(n)


def t_threshold(n: int, k: int, c1: float) -> float:
    """Threshold t(n, k) = (n / C1)^((n-k) / (2n))."""
    if not c1 > 0:
        raise ValueError("C1 must be positive")
    check_rank(n, k)
    return (n / c1) ** ((n - k) / (2.0 * n))


def theorem_bound_log(n: int, c: float) -> float:
    """log of (C/n)^((n-1)/2)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not c > 0:
        raise ValueError("C must be positive")
    return 0.5 * (n - 1) * (math.log(c) - math.log(n))


@dataclass(frozen=True)
class LemmaRow:
    n: int
    c_effective: float
    argmax_k: int


def c_effective(n: int) -> LemmaRow:
    """Smallest C for which B(n, k) <= (C/n)^(k(n-k)/2) holds at this n.

    That is max_k n * B(n, k)^(2 / (k(n-k))); the arg-max k is recorded but
    nothing is asserted about where it falls.
    """
    best = None
    best_k = 1
    for k in range(1, n):
        v = n * math.exp(2.0 * b_constant_log(n, k) / (k * (n - k)))
        if best is None or v > best:
            best = v
            best_k = k
    return LemmaRow(n=n, c_effective=best, argmax_k=best_k)


def lemma_bound_check(n_min: int, n_max: int) -> list[LemmaRow]:
    if not 2 <= n_min <= n_max <= 10**4:
        raise ValueError("range must satisfy 2 <= n_min <= n_max <= 10^4")
    return [c_effective(n) for n in range(n_min, n_max + 1)]


def gamma_from_alpha(alpha_bar: float, k: int) -> float:
    """Rankin constant from the normalized extremal value: gamma = a^(2k)."""
    if not alpha_bar > 0:
        raise ValueError("alpha_bar must be positive")
    return alpha_bar ** (2 * k)


def alpha_from_gamma(gamma: float, k: int) -> float:
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return gamma ** (1.0 / (2 * k))


@dataclass(frozen=True)
class RankinRow:
    n: int
    k: int
    alpha_bar: float | None
    gamma: float | None


def rankin_row(n: int, k: int) -> RankinRow:
    """Known Rankin constant data for (n, k); None where no exact value is
    classically known. Covers k = 1 and k = n-1 for n <= 8 (duality) and
    the exactly known (4, 2) case.
    """
    check_rank(n, k)
    gamma = None
    if k in (1, n - 1) and n <= 8:
        gamma = HERMITE_GAMMA[n]
    elif (n, k) == (4, 2):
        gamma = RANKIN_GAMMA_4_2
    if gamma is None:
        return RankinRow(n, k, None, None)
    return RankinRow(n, k, alpha_from_gamma(gamma, k), gamma)


@dataclass(frozen=True)
class ConstantsRow:
    """One (n, k) row of the constants table."""

    n: int
    k: int
    log_b: float
    b_symmetric_gap: float
    t_k: float
    c_effective: float

    def thunder_log(self, t: float) -> float:
        return thunder_integral_log(self.n, self.k, t)


def constants_row(n: int, k: int, c1: float) -> ConstantsRow:
    log_b = b_constant_log(n, k)
    gap = log_b - b_constant_log(n, n - k)
    return ConstantsRow(
        n=n,
        k=k,
        log_b=log_b,
        b_symmetric_gap=gap,
        t_k=t_threshold(n, k, c1),
        c_effective=n * math.exp(2.0 * log_b / (k * (n - k))),
    )
