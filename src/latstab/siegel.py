"""Counting short pure tensors and the Monte Carlo estimates built on them.

The count for one lattice at threshold t is twice the number of primitive
rank-k subgroups of covolume at most t (both signed tensors of each subgroup
are counted). Averaging the counts over random lattices estimates the
corresponding invariant integral, which has the closed form B(n, k) t^n / n
up to the normalization questions the experiments here are designed to
measure.

Each experiment gets one result per lattice of streams 0..n_samples-1, in
stream order for any worker count, and reduces that list once: every Monte
Carlo estimate is built from exact integer sums over it, and float values
are taken in stream order. So parallel runs reproduce serial results bit
for bit given the same (seed, stream) assignment.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import constants, stability, subgroups
from .enumeration import DEFAULT_BUDGET, TREE_SLACK
from .errors import BudgetExceededError, InvariantViolationError
from .lattice import Lattice, Sublattice
from .sampling import SamplerSpec, sample_lattice

QUANTILE_PERCENTS = (1, 5, 25, 50, 75, 95, 99)


# -- Monte Carlo estimate ----------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate: the sample count plus the sums of the values and
    of their squares, which are exact integers on integer-valued samples.
    """

    n_samples: int
    total: int | float
    total_sq: int | float

    @classmethod
    def from_values(cls, values) -> "McEstimate":
        total = sum(values)
        total_sq = sum(v * v for v in values)
        return cls(len(values), total, total_sq)

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


def _reference(n: int, k: int, t: float) -> float:
    """The closed-form mean count B(n, k) t^n / n at a valid threshold t,
    checked before any lattice is drawn: a t at which the reference is no
    positive finite float cannot give a ratio."""
    _check_threshold(t)
    try:
        ref = math.exp(constants.thunder_integral_log(n, k, t))
    except OverflowError:
        ref = math.inf
    if not 0.0 < ref < math.inf:
        raise ValueError(
            f"threshold t = {t!r} puts the closed-form mean count "
            f"B({n}, {k}) t^{n} / {n} outside the float range"
        )
    return ref


def siegel_transform_count(lattice: Lattice, k: int, t: float,
                           budget: int = DEFAULT_BUDGET) -> TensorCount:
    """Number of signed pure tensors of norm at most t coming from primitive
    rank-k subgroups; always even since both signs are counted."""
    constants.check_rank(lattice.dim, k)
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


def _source_dim(source):
    """(n, the source to draw the pass from). A SamplerSpec declares n; an
    injected source is asked for stream 0, and the source returned hands
    that lattice back for stream 0 instead of drawing it again."""
    if isinstance(source, SamplerSpec):
        return source.n, source
    first = source(0)
    return first.dim, lambda stream: first if stream == 0 else source(stream)


def _map_streams(work, source, start, stop) -> list:
    """[work(i, lattice of stream i) for i in start..stop-1]; a budget error
    raised while a lattice is processed names its stream."""
    out = []
    for i in range(start, stop):
        lat = _draw(source, i)
        try:
            out.append(work(i, lat))
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"{exc}, on the lattice of stream {i}") from None
    return out


def _counts(k, ts, budget, _stream, lat):
    """Signed counts at each threshold of ts, from one search at the
    largest."""
    found = subgroups.subgroups_within(lat, k, max(ts), budget)
    return [2 * sum(1 for covol, _ in found if covol <= t) for t in ts]


def _stable_ranks(budget, _stream, lat):
    return [not subgroups.exists_below(lat, k, stability._stable_bound(k),
                                       budget)
            for k in range(1, lat.dim)]


def _alpha_value(k, budget, _stream, lat):
    return stability.alpha(lat, k, budget)[0]


def _execute(work, source, n_samples, workers):
    """[work(i, lattice of stream i) for i in 0..n_samples-1] in stream order,
    for any worker count. The pool, capped at the CPU count, maps chunks of
    streams; work must pickle for it, as a partial of a module function."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    picklable = isinstance(source, SamplerSpec)
    if workers <= 1 or not picklable or n_samples < 2 * workers:
        return _map_streams(work, source, 0, n_samples)
    chunk = max(1, (n_samples + workers * 4 - 1) // (workers * 4))
    # imported here: single-worker runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_map_streams, work, source, s,
                               min(s + chunk, n_samples))
                   for s in range(0, n_samples, chunk)]
        return [r for f in futures for r in f.result()]


def _count_rows(source, k: int, ts, n_samples: int, workers: int,
                budget: int) -> list:
    """The signed counts at each threshold of ts for each lattice of streams
    0..n_samples-1, from one search per lattice."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    for t in ts:
        _check_threshold(t)
    return _execute(partial(_counts, k, tuple(ts), budget), source,
                    n_samples, workers)


# -- experiments --------------------------------------------------------------


def mc_integral(source, k: int, t: float, n_samples: int,
                workers: int = 1, budget: int = DEFAULT_BUDGET) -> McEstimate:
    """Mean transform count over sampled lattices at threshold t."""
    rows = _count_rows(source, k, (t,), n_samples, workers, budget)
    return McEstimate.from_values([row[0] for row in rows])


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
    n_dim, lattices = _source_dim(source)
    t2 = factor * t
    rows = _count_rows(lattices, k, (t, t2), n_samples, workers, budget)
    n = n_samples
    x = McEstimate.from_values([a for a, _ in rows])
    y = McEstimate.from_values([b for _, b in rows])
    if x.total == 0:
        raise InvariantViolationError(
            "no counts observed at the smaller threshold; "
            "increase t or the sample budget"
        )
    xbar, ybar = x.mean, y.mean
    var_x, var_y = x.variance, y.variance
    sxy = sum(a * b for a, b in rows)
    cov = (n * sxy - x.total * y.total) / (n * (n - 1))
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
    stable = _execute(partial(_stable_ranks, budget), source, n_samples,
                      workers)
    per_k = tuple(McEstimate.from_values(column) for column in zip(*stable))
    return MassResult(
        n=len(per_k) + 1, sampler=_source_label(source),
        seed=_source_seed(source), n_samples=n_samples, per_k=per_k,
        overall=McEstimate.from_values([all(s) for s in stable]),
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

    The per-threshold ratio is reported for one or more distinct
    thresholds; constancy of the ratio across them is asserted via pairwise
    z-scores (shared lattice streams make the comparison conservative),
    and a single threshold has max_pairwise_z = 0. Whether the constant
    itself equals 1 is only known in closed form at n = 2.
    """
    ts = sorted(float(t) for t in t_list)
    if not ts:
        raise ValueError("need at least one threshold")
    if any(a == b for a, b in zip(ts, ts[1:])):
        raise ValueError(f"each threshold may be given once, got {ts}")
    n_dim, lattices = _source_dim(source)
    refs = [_reference(n_dim, k, t) for t in ts]
    counts = _count_rows(lattices, k, ts, n_samples, workers, budget)
    rows = []
    for t, ref, column in zip(ts, refs, zip(*counts)):
        est = McEstimate.from_values(column)
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
    n_dim, lattices = _source_dim(source)
    row = constants.rankin_row(n_dim, k)
    values = _execute(partial(_alpha_value, k, budget), lattices, n_samples,
                      workers)
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
