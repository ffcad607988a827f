"""Random covolume-1 lattice generation.

Three samplers:

* goldstein_mayer: a uniform index-p integer sublattice of Z^n rescaled to
  covolume 1. Its distribution approaches the invariant probability measure
  on the space of covolume-1 lattices as p grows; the residual bias at
  finite p is measured empirically against the exact 2d sampler.
* exact_2d: exact sampling at n = 2 through the classical fundamental
  domain {|x| <= 1/2, x^2 + y^2 >= 1} with density (3/pi) y^-2.
* gaussian_baseline: entrywise normal matrix normalized to determinant 1.
  This is a documented BIASED baseline, kept for comparison runs only.

Every sampler is a pure function of (seed, stream), so parallel sampling is
order-independent by construction.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, InvariantViolationError
from .lattice import Lattice
from .rng import stream_generator

KINDS = ("goldstein_mayer", "exact_2d", "gaussian_baseline")
DEFAULT_P = 2**31 - 1
BIASED_KINDS = frozenset({"gaussian_baseline"})

_Y_MIN = math.sqrt(3.0) / 2.0


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the supported p range."""
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SamplerSpec:
    """Deterministic description of one sampler draw.

    (kind, n, p, seed, stream) fully determines the output lattice.
    """

    kind: str
    n: int
    seed: int
    p: int | None = None
    stream: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.kind == "exact_2d" and self.n != 2:
            raise ValueError("the exact sampler only exists at n = 2")
        if self.kind == "goldstein_mayer":
            p = self.p if self.p is not None else DEFAULT_P
            if not (3 <= p < 2**62):
                raise ValueError("p must satisfy 3 <= p < 2^62")
            if not is_prime(p):
                raise ValueError(f"p = {p} is not prime")
            object.__setattr__(self, "p", p)

    def with_stream(self, stream: int) -> "SamplerSpec":
        # a copy: the fields were validated when this spec was built, so the
        # primality test of p runs once per spec, not once per stream
        spec = copy(self)
        object.__setattr__(spec, "stream", stream)
        return spec

    def label(self) -> str:
        if self.kind == "goldstein_mayer":
            return f"gm(p={self.p})"
        return self.kind


def gm_basis(n: int, p: int, c) -> list[list[int]]:
    """Integer basis of {x in Z^n : c . x == 0 mod p} with determinant p.

    The identity matrix with row i replaced by p e_i and the other rows
    shifted by multiples of e_i, where i is the first index with c_i
    nonzero mod p. Expanding along column i shows the determinant is
    exactly p.
    """
    c = [int(v) % p for v in c]
    if len(c) != n:
        raise ValueError("functional length must match n")
    try:
        pivot = next(i for i, v in enumerate(c) if v)
    except StopIteration:
        raise ValueError("functional must be nonzero mod p") from None
    inv = pow(c[pivot], p - 2, p)
    rows = []
    for m in range(n):
        if m == pivot:
            rows.append([p if j == pivot else 0 for j in range(n)])
        else:
            a = (c[m] * inv) % p
            row = [0] * n
            row[m] = 1
            row[pivot] = -a
            rows.append(row)
    return rows


def sample_gm(n: int, p: int, seed: int, stream: int) -> Lattice:
    """Goldstein-Mayer draw: uniform index-p sublattice, rescaled."""
    gen = stream_generator(seed, stream)
    while True:
        c = [int(v) for v in gen.integers(0, p, size=n)]
        if any(c):
            break
    lattice = Lattice.from_exact(
        gm_basis(n, p, c), p ** (-1.0 / n), provenance=f"gm(p={p})"
    )
    if not lattice.is_unimodular():
        raise InvariantViolationError("sampler produced a non-unimodular lattice")
    return lattice


def sample_exact_2d(seed: int, stream: int) -> Lattice:
    """Exact draw at n = 2.

    (x, y) has density (3/pi) y^-2 on {|x| <= 1/2, x^2 + y^2 >= 1}; the
    proposal draws x uniform and y from the y^-2 profile on [sqrt(3)/2, inf)
    and rejects outside the domain. The lattice with basis rows
    (1/sqrt(y), 0) and (x/sqrt(y), sqrt(y)) has covolume exactly 1.
    """
    gen = stream_generator(seed, stream)
    while True:
        x = gen.random() - 0.5
        y = _Y_MIN / (1.0 - gen.random())
        if x * x + y * y >= 1.0:
            break
    sq = math.sqrt(y)
    basis = [[1.0 / sq, 0.0], [x / sq, sq]]
    return Lattice.from_rows(basis, provenance="exact_2d")


def exact_2d_acceptance_rate() -> float:
    """Analytic acceptance probability of the rejection step.

    Ratio of the y^-2 measure of the fundamental domain (pi/3) to that of
    the proposal strip (2/sqrt(3)).
    """
    return math.pi * math.sqrt(3.0) / 6.0


def exact_2d_y_cdf(y: float) -> float:
    """Marginal CDF of y under the exact 2d sampler."""
    if y <= _Y_MIN:
        return 0.0
    t = 3.0 / math.pi
    if y <= 1.0:
        return t * (
            (2.0 * math.sqrt(1.0 - y * y) - 1.0) / y
            + 2.0 * math.asin(y)
            - 2.0 * math.pi / 3.0
        )
    return (1.0 - t) + t * (1.0 - 1.0 / y)


def sample_gaussian_baseline(n: int, seed: int, stream: int) -> Lattice:
    """Biased baseline: iid normal matrix normalized to determinant 1."""
    gen = stream_generator(seed, stream)
    for _ in range(100):
        g = gen.standard_normal((n, n))
        det = float(np.linalg.det(g))
        if abs(det) < 1e-8:
            continue
        basis = g / abs(det) ** (1.0 / n)
        try:
            return Lattice.from_rows(basis,
                                     provenance="gaussian_baseline[biased]")
        except DegenerateBasisError:
            continue
    raise InvariantViolationError("gaussian baseline kept drawing singular matrices")


def sample_lattice(spec: SamplerSpec) -> Lattice:
    """Dispatch one draw for the given spec."""
    if spec.kind == "goldstein_mayer":
        return sample_gm(spec.n, spec.p, spec.seed, spec.stream)
    if spec.kind == "exact_2d":
        return sample_exact_2d(spec.seed, spec.stream)
    return sample_gaussian_baseline(spec.n, spec.seed, spec.stream)
