"""Counting short pure tensors and the Monte Carlo estimates built on them.

The count for one lattice at threshold t is twice the number of primitive
rank-k subgroups of covolume at most t (both signed tensors of each subgroup
are counted). Averaging the counts over random lattices estimates the
corresponding invariant integral, which has the closed form B(n, k) t^n / n
up to the normalization questions the experiments here are designed to
measure.

All accumulators are mergeable and all sums of integer-valued samples stay
integers, so parallel runs reproduce serial results bit for bit given the
same (seed, stream) assignment.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import constants, subgroups
from .enumeration import DEFAULT_BUDGET, TREE_SLACK
from .errors import InvariantViolationError
from .lattice import Lattice, Sublattice
from .sampling import SamplerSpec, sample_lattice
from .stability import STABILITY_TOL

QUANTILE_PERCENTS = (1, 5, 25, 50, 75, 95, 99)


# -- mergeable estimate ------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo accumulator: counts plus raw first and second moments.

    Merging two estimates equals estimating the concatenated streams; on
    integer-valued samples the merge is exactly associative and commutative
    because the totals are exact integers.
    """

    n_samples: int
    total: int | float
    total_sq: int | float
    sampler: str = ""
    seed: int | None = None

    @classmethod
    def from_values(cls, values, sampler: str = "",
                    seed: int | None = None) -> "McEstimate":
        total = sum(values)
        total_sq = sum(v * v for v in values)
        return cls(len(values), total, total_sq, sampler, seed)

    @property
    def mean(self) -> float:
        if self.n_samples == 0:
            raise ValueError("empty estimate has no mean")
        return self.total / self.n_samples

    @property
    def variance(self) -> float:
        n = self.n_samples
        if n < 2:
            return 0.0
        num = n * self.total_sq - self.total * self.total
        return max(num / (n * (n - 1)), 0.0)

    @property
    def stderr(self) -> float:
        if self.n_samples == 0:
            return float("inf")
        return math.sqrt(self.variance / self.n_samples)

    @property
    def binomial_stderr(self) -> float:
        """Standard error treating the samples as Bernoulli indicators."""
        p = self.mean
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.n_samples)

    def merge(self, other: "McEstimate") -> "McEstimate":
        if (self.sampler, self.seed) != (other.sampler, other.seed):
            raise ValueError("merging estimates from different sources")
        return McEstimate(
            self.n_samples + other.n_samples,
            self.total + other.total,
            self.total_sq + other.total_sq,
            self.sampler,
            self.seed,
        )


# -- the transform of a ball indicator ---------------------------------------


@dataclass(frozen=True)
class TensorCount:
    lattice_id: str
    k: int
    t: float
    count: int
    subgroups: tuple[Sublattice, ...]


def _check_threshold(t: float) -> None:
    # the rank-1 search squares a radius of t * SLACK; it must stay finite
    r = t * subgroups.SLACK
    if not (t > 0 and math.isfinite(r * r * TREE_SLACK)):
        raise ValueError(
            f"threshold t must be positive with a finite square, got {t!r}"
        )


def siegel_transform_count(lattice: Lattice, k: int, t: float,
                           budget: int = DEFAULT_BUDGET) -> TensorCount:
    """Number of signed pure tensors of norm at most t coming from primitive
    rank-k subgroups; always even since both signs are counted."""
    if not 1 <= k <= lattice.dim - 1:
        raise ValueError(
            f"k must lie in [1, n-1] = [1, {lattice.dim - 1}], got {k}"
        )
    _check_threshold(t)
    found = subgroups.subgroups_within(lattice, k, t, budget)
    subs = tuple(
        Sublattice(rank=k, coords=coords, covolume=covol, primitive=True)
        for covol, coords in found
    )
    return TensorCount(
        lattice_id=lattice.provenance or "",
        k=k,
        t=t,
        count=2 * len(subs),
        subgroups=subs,
    )


# -- sample sources and the worker pool ---------------------------------------


def _draw(source, stream: int) -> Lattice:
    if isinstance(source, SamplerSpec):
        return sample_lattice(source.with_stream(stream))
    return source(stream)


def _source_label(source) -> str:
    if isinstance(source, SamplerSpec):
        return source.label()
    return getattr(source, "__name__", "custom")


def _source_seed(source):
    return source.seed if isinstance(source, SamplerSpec) else None


def _source_dim(source) -> int:
    return source.n if isinstance(source, SamplerSpec) else _draw(source, 0).dim


def _task_counts(source, params, start, stop):
    """One search per lattice at the largest threshold, tallied per
    threshold: per-threshold count sums and sums of pairwise products."""
    k, ts, budget = params
    m = len(ts)
    top = max(ts)
    sums = [0] * m
    products = [[0] * m for _ in range(m)]
    for i in range(start, stop):
        lat = _draw(source, i)
        found = subgroups.subgroups_within(lat, k, top, budget)
        counts = [2 * sum(1 for covol, _ in found if covol <= t) for t in ts]
        for a, ca in enumerate(counts):
            sums[a] += ca
            row = products[a]
            for b, cb in enumerate(counts):
                row[b] += ca * cb
    return sums, products


def _task_mass(source, params, start, stop):
    n, budget = params
    per_k = [0] * (n - 1)
    overall = 0
    for i in range(start, stop):
        lat = _draw(source, i)
        good = True
        for k in range(1, n):
            bound = (1.0 - STABILITY_TOL) ** k
            if subgroups.exists_below(lat, k, bound, budget):
                good = False
            else:
                per_k[k - 1] += 1
        overall += 1 if good else 0
    return tuple(per_k), overall


def _task_alpha(source, params, start, stop):
    k, budget = params
    vals = []
    for i in range(start, stop):
        lat = _draw(source, i)
        covol, _ = subgroups.minimal_subgroup(lat, k, budget)
        vals.append(covol ** (1.0 / k))
    return vals


def _execute(task, source, params, n_samples, workers):
    """Run task(source, params, start, stop) over streams 0..n_samples-1,
    returning per-chunk payloads in stream order. Results are independent
    of the worker count."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    picklable = isinstance(source, SamplerSpec)
    if workers <= 1 or not picklable or n_samples < 2 * workers:
        return [task(source, params, 0, n_samples)]
    chunk = max(1, (n_samples + workers * 4 - 1) // (workers * 4))
    ranges = [(s, min(s + chunk, n_samples))
              for s in range(0, n_samples, chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, source, params, a, b)
                   for a, b in ranges]
        return [f.result() for f in futures]


def _count_moments(source, k: int, ts, n_samples: int, workers: int,
                   budget: int):
    """Count sums per threshold and sums of pairwise count products over
    streams 0..n_samples-1, from one search per lattice."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    for t in ts:
        _check_threshold(t)
    payloads = _execute(_task_counts, source, (k, tuple(ts), budget),
                        n_samples, workers)
    m = len(ts)
    sums = [sum(p[0][a] for p in payloads) for a in range(m)]
    products = [[sum(p[1][a][b] for p in payloads) for b in range(m)]
                for a in range(m)]
    return sums, products


# -- experiments --------------------------------------------------------------


def mc_integral(source, k: int, t: float, n_samples: int,
                workers: int = 1, budget: int = DEFAULT_BUDGET) -> McEstimate:
    """Mean transform count over sampled lattices at threshold t."""
    (total,), ((total_sq,),) = _count_moments(source, k, (t,), n_samples,
                                              workers, budget)
    return McEstimate(n_samples, total, total_sq,
                      sampler=_source_label(source), seed=_source_seed(source))


@dataclass(frozen=True)
class ScalingCheck:
    """Paired two-threshold ratio test of the t^n law."""

    n: int
    k: int
    t_small: float
    t_big: float
    n_samples: int
    mean_small: float
    mean_big: float
    ratio: float
    stderr: float
    expected: float
    z: float

    @property
    def consistent(self) -> bool:
        return abs(self.z) <= 3.0


def scaling_ratio(source, k: int, t: float, n_samples: int,
                  factor: float = 2.0, workers: int = 1,
                  budget: int = DEFAULT_BUDGET) -> ScalingCheck:
    """Ratio of mean counts at factor*t versus t against factor^n.

    Counts at both thresholds come from the same lattice stream, so the
    ratio standard error uses the paired covariance (delta method).
    """
    if not t > 0 or factor <= 1.0:
        raise ValueError("need t > 0 and factor > 1")
    n_dim = _source_dim(source)
    t2 = factor * t
    (sx, sy), ((sxx, sxy), (_, syy)) = _count_moments(
        source, k, (t, t2), n_samples, workers, budget)
    n = n_samples
    if sx == 0:
        raise InvariantViolationError(
            "no counts observed at the smaller threshold; "
            "increase t or the sample budget"
        )
    xbar = sx / n
    ybar = sy / n
    var_x = max((n * sxx - sx * sx) / (n * (n - 1)), 0.0)
    var_y = max((n * syy - sy * sy) / (n * (n - 1)), 0.0)
    cov = (n * sxy - sx * sy) / (n * (n - 1))
    ratio = ybar / xbar
    var_ratio = (var_y - 2.0 * ratio * cov + ratio * ratio * var_x) / (
        n * xbar * xbar
    )
    stderr = math.sqrt(max(var_ratio, 0.0))
    expected = factor**n_dim
    z = (ratio - expected) / stderr if stderr > 0 else float("inf")
    return ScalingCheck(
        n=n_dim, k=k, t_small=t, t_big=t2, n_samples=n_samples,
        mean_small=xbar, mean_big=ybar, ratio=ratio, stderr=stderr,
        expected=expected, z=z,
    )


@dataclass(frozen=True)
class MassResult:
    """Estimated measure of the per-rank and overall stability sets."""

    n: int
    sampler: str
    seed: int | None
    n_samples: int
    per_k: tuple[McEstimate, ...]
    overall: McEstimate

    @property
    def stable_fraction(self) -> float:
        return self.overall.mean

    @property
    def stderr(self) -> float:
        return self.overall.binomial_stderr


def stability_mass(source, n_samples: int, workers: int = 1,
                   budget: int = DEFAULT_BUDGET) -> MassResult:
    """Fraction of sampled lattices with every rank-k invariant >= 1."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    n_dim = _source_dim(source)
    payloads = _execute(_task_mass, source, (n_dim, budget), n_samples,
                        workers)
    label = _source_label(source)
    seed = _source_seed(source)
    per_k = []
    for j in range(n_dim - 1):
        tot = sum(p[0][j] for p in payloads)
        per_k.append(McEstimate(n_samples, tot, tot, label, seed))
    overall_tot = sum(p[1] for p in payloads)
    overall = McEstimate(n_samples, overall_tot, overall_tot, label, seed)
    return MassResult(
        n=n_dim, sampler=label, seed=seed, n_samples=n_samples,
        per_k=tuple(per_k), overall=overall,
    )


@dataclass(frozen=True)
class NormalizationRow:
    t: float
    mean: float
    stderr: float
    reference: float
    ratio: float
    ratio_stderr: float


@dataclass(frozen=True)
class NormalizationReport:
    n: int
    k: int
    n_samples: int
    rows: tuple[NormalizationRow, ...]
    max_pairwise_z: float

    @property
    def scaling_consistent(self) -> bool:
        """Whether the measured ratio is constant across thresholds within
        3 sigma, which tests the t^n law independent of normalization."""
        return self.max_pairwise_z <= 3.0


def normalization_ratio(source, k: int, t_list, n_samples: int,
                        workers: int = 1,
                        budget: int = DEFAULT_BUDGET) -> NormalizationReport:
    """Measured count means against the closed-form value B(n,k) t^n / n.

    The per-threshold ratio is reported; constancy of the ratio across the
    thresholds is asserted via pairwise z-scores (shared lattice streams
    make the comparison conservative). Whether the constant itself equals 1
    is only known in closed form at n = 2.
    """
    ts = sorted(float(t) for t in t_list)
    if len(ts) < 2:
        raise ValueError("need at least two thresholds")
    n_dim = _source_dim(source)
    ref_logs = [constants.thunder_integral_log(n_dim, k, t) for t in ts]
    sums, products = _count_moments(source, k, ts, n_samples, workers, budget)
    rows = []
    for a, t in enumerate(ts):
        est = McEstimate(n_samples, sums[a], products[a][a])
        ref = math.exp(ref_logs[a])
        rows.append(NormalizationRow(
            t=t, mean=est.mean, stderr=est.stderr, reference=ref,
            ratio=est.mean / ref, ratio_stderr=est.stderr / ref,
        ))
    max_z = 0.0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            denom = math.hypot(rows[i].ratio_stderr, rows[j].ratio_stderr)
            if denom > 0:
                z = abs(rows[i].ratio - rows[j].ratio) / denom
                max_z = max(max_z, z)
    return NormalizationReport(
        n=n_dim, k=k, n_samples=n_samples, rows=tuple(rows),
        max_pairwise_z=max_z,
    )


@dataclass(frozen=True)
class QuantileReport:
    n: int
    k: int
    sampler: str
    seed: int | None
    n_samples: int
    quantiles: tuple[tuple[int, float], ...]
    alpha_bar: float | None
    max_value: float


def alpha_quantiles(source, k: int, n_samples: int, workers: int = 1,
                    budget: int = DEFAULT_BUDGET) -> QuantileReport:
    """Empirical quantiles of the rank-k invariant over sampled lattices.

    Exploratory: reports the quantiles next to the extremal value where that
    value is classically known, and enforces the hard per-sample bound in
    that case.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    n_dim = _source_dim(source)
    row = constants.rankin_row(n_dim, k)
    payloads = _execute(_task_alpha, source, (k, budget), n_samples, workers)
    values: list[float] = []
    for p in payloads:
        values.extend(p)
    if row.alpha_bar is not None:
        worst = max(values)
        if worst > row.alpha_bar + 1e-9:
            raise InvariantViolationError(
                f"sample value {worst!r} exceeds the extremal bound "
                f"{row.alpha_bar!r} for (n, k) = ({n_dim}, {k})"
            )
    qs = np.percentile(np.array(values), QUANTILE_PERCENTS)
    return QuantileReport(
        n=n_dim, k=k, sampler=_source_label(source),
        seed=_source_seed(source), n_samples=n_samples,
        quantiles=tuple(zip(QUANTILE_PERCENTS, (float(q) for q in qs))),
        alpha_bar=row.alpha_bar,
        max_value=max(values),
    )
