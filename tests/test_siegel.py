"""Transform counts, Monte Carlo estimates, and the Monte Carlo drivers."""

import concurrent.futures
import math
import os
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import latstab as ls
from latstab import siegel
from latstab.enumeration import DEFAULT_BUDGET
from latstab.errors import BudgetExceededError, InvariantViolationError
from latstab.siegel import McEstimate
from conftest import random_unimodular


# -- transform counts ---------------------------------------------------------


def test_count_z2(z2):
    tc = ls.siegel_transform_count(z2, 1, 1.0)
    assert tc.count == 4
    assert len(tc.subgroups) == 2
    assert {s.coords for s in tc.subgroups} == {((1, 0),), ((0, 1),)}
    assert all(s.primitive for s in tc.subgroups)


def test_count_z3_planes(z3):
    tc = ls.siegel_transform_count(z3, 2, 1.5)
    assert tc.count == 18
    covols = sorted(round(s.covolume**2) for s in tc.subgroups)
    assert covols == [1, 1, 1, 2, 2, 2, 2, 2, 2]
    # each primitive plane corresponds to a primitive normal vector whose
    # norm equals the plane covolume; cross-check against enumeration
    normals = ls.enumerate_short_vectors(z3, 1.5)
    prim = [v for v, _ in normals if math.gcd(math.gcd(v[0], v[1]), v[2]) == 1]
    assert len(prim) == tc.count


def test_count_zero_below_minimum(z2):
    a, _ = ls.alpha(z2, 1)
    tc = ls.siegel_transform_count(z2, 1, a**1 * 0.999)
    assert tc.count == 0
    assert tc.subgroups == ()


def test_count_validation(z2):
    with pytest.raises(ValueError):
        ls.siegel_transform_count(z2, 2, 1.0)
    with pytest.raises(ValueError):
        ls.siegel_transform_count(z2, 1, 0.0)


def test_counts_even_and_monotone():
    for i in range(8):
        lat = random_unimodular(3, seed=71, stream=i)
        prev = -1
        for t in (0.5, 0.8, 1.0, 1.3, 1.7):
            c = ls.siegel_transform_count(lat, 2, t).count
            assert c % 2 == 0
            assert c >= prev
            prev = c


def test_count_zero_iff_alpha_above_threshold():
    # per-sample definitional cross-check between the two modules
    checked = 0
    for i in range(60):
        n = 2 + (i % 3)
        lat = random_unimodular(n, seed=29, stream=i)
        for k in range(1, n):
            covol, _ = ls.min_covolume(lat, k)
            for t in (0.7, 1.0, 1.4):
                count = ls.siegel_transform_count(lat, k, t).count
                assert (count == 0) == (covol > t)
                checked += 1
    assert checked >= 300


def test_in_s_k_matches_count_on_random_lattices():
    # membership above threshold t coincides with a zero transform count at
    # threshold t^k; boundary ties have probability zero here
    checked = 0
    for i in range(100):
        n = 2 + (i % 3)
        lat = random_unimodular(n, seed=101, stream=i)
        for k in range(1, n):
            for t in (0.7, 1.0, 1.3):
                member = ls.in_s_k(lat, k, t)
                count = ls.siegel_transform_count(lat, k, t**k).count
                assert member == (count == 0)
                checked += 1
    assert checked >= 100


def test_unstable_sample_has_positive_count():
    found = 0
    for i in range(40):
        lat = random_unimodular(2, seed=37, stream=i)
        if not ls.is_stable(lat):
            assert ls.siegel_transform_count(lat, 1, 1.0).count >= 2
            found += 1
    assert found > 0


# -- the Monte Carlo estimate ---------------------------------------------------


def test_mc_estimate_moments():
    est = McEstimate.from_values([1, 2, 3, 4])
    assert est.mean == 2.5
    assert abs(est.variance - np.var([1, 2, 3, 4], ddof=1)) < 1e-15
    assert abs(est.stderr - math.sqrt(est.variance / 4)) < 1e-15


def test_binomial_stderr():
    est = McEstimate.from_values([1, 0, 1, 1])
    p = 0.75
    assert abs(est.binomial_stderr - math.sqrt(p * (1 - p) / 4)) < 1e-15


# -- drivers ---------------------------------------------------------------------


def zn_sampler(n):
    lat = ls.Lattice.identity(n)

    def draw(stream):
        return lat

    draw.__name__ = f"z{n}_constant"
    return draw


def test_stability_mass_injected_zn():
    res = ls.stability_mass(zn_sampler(3), 50)
    assert res.stable_fraction == 1.0
    assert all(est.mean == 1.0 for est in res.per_k)
    assert res.sampler == "z3_constant"


def test_mc_integral_injected_zn():
    est = ls.mc_integral(zn_sampler(2), 1, 1.0, 10)
    assert est.mean == 4.0
    assert est.variance == 0.0


def test_mc_integral_exact2d_matches_siegel_value():
    spec = ls.SamplerSpec(kind="exact_2d", n=2, seed=41)
    est = ls.mc_integral(spec, 1, 1.0, 4000)
    assert abs(est.mean - 6 / math.pi) <= 5 * est.stderr


def test_mc_integral_deterministic_and_worker_independent():
    spec = ls.SamplerSpec(kind="exact_2d", n=2, seed=43)
    serial = ls.mc_integral(spec, 1, 1.0, 600, workers=1)
    again = ls.mc_integral(spec, 1, 1.0, 600, workers=1)
    parallel = ls.mc_integral(spec, 1, 1.0, 600, workers=3)
    assert serial == again
    assert serial == parallel  # exact integer totals over the same list


def test_stability_mass_worker_independent():
    spec = ls.SamplerSpec(kind="goldstein_mayer", n=3, seed=47)
    serial = ls.stability_mass(spec, 300, workers=1)
    parallel = ls.stability_mass(spec, 300, workers=2)
    assert serial.overall == parallel.overall
    assert serial.per_k == parallel.per_k


def test_budget_errors_name_the_stream():
    # D4 (scaled to covolume 1) and Z^4 need different node counts: a budget
    # of 20 covers each search below on the lattice drawn at every stream
    # but 2, and runs out on the other lattice, drawn at stream 2
    z4 = ls.Lattice.identity(4)
    d4 = ls.Lattice.from_exact([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1],
                                [0, 0, 1, 1]], 2 ** -0.25)

    def odd_stream_2(usual, odd):
        return lambda stream: odd if stream == 2 else usual

    runs = [
        lambda: ls.alpha_quantiles(odd_stream_2(z4, d4), 1, 4, budget=20),
        lambda: ls.stability_mass(odd_stream_2(d4, z4), 4, budget=20),
        lambda: ls.mc_integral(odd_stream_2(d4, z4), 2, 1.0, 4, budget=20),
    ]
    for run in runs:
        with pytest.raises(BudgetExceededError) as err:
            run()
        assert re.fullmatch(
            r"enumeration exceeded its node budget of 20 after \d+ nodes in "
            r"a rank-\d subgroup search run at rank \d on the lattice, "
            r"threshold [0-9.e+-]+, on the lattice of stream 2",
            str(err.value))


def test_pool_budget_errors_name_the_stream():
    # budget 1 runs out on the first lattice; the pool raises the error of
    # its first chunk, which holds stream 0
    spec = ls.SamplerSpec(kind="goldstein_mayer", n=4, seed=5)
    runs = [
        lambda: ls.alpha_quantiles(spec, 1, 8, workers=2, budget=1),
        lambda: ls.mc_integral(spec, 1, 1.0, 8, workers=2, budget=1),
    ]
    for run in runs:
        with pytest.raises(BudgetExceededError) as err:
            run()
        assert str(err.value).endswith(", on the lattice of stream 0")


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    # the fake pool records max_workers and runs each submit inline, so no
    # process is started whatever the worker count asked for
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args):
            done = concurrent.futures.Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    spec = ls.SamplerSpec(kind="goldstein_mayer", n=3, seed=5)
    work = partial(siegel._alpha_value, 1, DEFAULT_BUDGET)
    serial = siegel._map_streams(work, spec, 0, 8)
    assert len(serial) == 8
    assert siegel._execute(work, spec, 8, 10**6) == serial
    assert all(w <= os.cpu_count() for w in seen)
    # with 2 CPUs the 8 samples take the pool at 2 workers; with an unknown
    # CPU count the run is serial
    for cpus, pools in ((2, [2]), (None, [])):
        seen.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert siegel._execute(work, spec, 8, 10**6) == serial
        assert seen == pools


def test_normalization_ratio_n2():
    spec = ls.SamplerSpec(kind="exact_2d", n=2, seed=53)
    rep = ls.normalization_ratio(spec, 1, [0.8, 1.0], 4000)
    for row in rep.rows:
        assert abs(row.ratio - 1.0) <= 5 * row.ratio_stderr
    assert rep.scaling_consistent
    with pytest.raises(ValueError):
        ls.normalization_ratio(spec, 1, [1.0], 100)


def test_normalization_ratio_draws_each_lattice_once(monkeypatch):
    spec = ls.SamplerSpec(kind="goldstein_mayer", n=3, seed=61, p=2**31 - 1)
    ts = [0.7, 1.0, 1.3]
    singles = [ls.mc_integral(spec, 1, t, 40) for t in ts]
    draws = []
    real = siegel.sample_lattice

    def counting(s):
        draws.append(s.stream)
        return real(s)

    monkeypatch.setattr(siegel, "sample_lattice", counting)
    rep = ls.normalization_ratio(spec, 1, ts, 40)
    assert sorted(draws) == list(range(40))
    # tallying one search at the largest t equals a search per t
    for row, est in zip(rep.rows, singles):
        assert (row.mean, row.stderr) == (est.mean, est.stderr)
    # an injected source is asked for each stream once, in stream order, and
    # gives every driver the results of the spec it draws from, apart from
    # the source's label and seed
    def injected(stream):
        draws.append(stream)
        return real(spec.with_stream(stream))

    runs = [
        lambda src: ls.normalization_ratio(src, 1, ts, 40),
        lambda src: ls.scaling_ratio(src, 1, 1.0, 40),
        lambda src: replace(ls.stability_mass(src, 40), sampler="", seed=None),
        lambda src: replace(ls.alpha_quantiles(src, 1, 40), sampler="",
                            seed=None),
    ]
    for run in runs:
        draws.clear()
        expected = run(spec)
        assert sorted(draws) == list(range(40))
        draws.clear()
        assert run(injected) == expected
        assert draws == list(range(40))


def test_counting_rejects_overflowing_thresholds():
    spec = ls.SamplerSpec(kind="exact_2d", n=2, seed=3)
    for bad in (math.inf, math.nan, 1e300):
        with pytest.raises(ValueError, match="threshold"):
            ls.normalization_ratio(spec, 1, [bad, 1.0], 10)
        with pytest.raises(ValueError, match="threshold"):
            ls.mc_integral(spec, 1, bad, 10)
    with pytest.raises(ValueError, match="threshold"):
        ls.scaling_ratio(spec, 1, 1e154, 10)  # t passes, factor * t does not


def test_scaling_ratio_n2():
    spec = ls.SamplerSpec(kind="exact_2d", n=2, seed=59)
    check = ls.scaling_ratio(spec, 1, 0.8, 4000)
    assert check.expected == 4.0
    assert abs(check.z) <= 5.0
    assert check.t_big == 1.6


def test_scaling_ratio_values_are_pinned():
    # the ratio of the paired means, its delta-method standard error and z
    # on a fixed gm stream, bit for bit
    spec = ls.SamplerSpec(kind="goldstein_mayer", n=3, seed=5)
    check = ls.scaling_ratio(spec, 1, 1.0, 300)
    assert (check.ratio.hex(), check.stderr.hex(), check.z.hex()) == (
        "0x1.027886fd96e67p+3", "0x1.551a84549ee78p-2", "0x1.dab70af81bab8p-3")


def test_alpha_quantiles_deterministic_and_bounded():
    spec = ls.SamplerSpec(kind="exact_2d", n=2, seed=61)
    rep1 = ls.alpha_quantiles(spec, 1, 800)
    rep2 = ls.alpha_quantiles(spec, 1, 800)
    assert rep1 == rep2
    assert rep1.alpha_bar == pytest.approx((2 / math.sqrt(3)) ** 0.5)
    assert rep1.max_value <= rep1.alpha_bar + 1e-9
    qs = dict(rep1.quantiles)
    assert all(v > 0 for v in qs.values())
    assert qs[1] <= qs[50] <= qs[99]
    print(f"n=2 median alpha_1: {qs[50]:.5f} "
          f"(extremal value {rep1.alpha_bar:.5f})")


def test_alpha_quantiles_hard_bound_violation_detected(monkeypatch):
    # no genuine lattice can beat the extremal value, so force a fake bound
    # to prove the per-sample check actually trips
    from latstab.constants import RankinRow

    monkeypatch.setattr("latstab.constants.rankin_row",
                        lambda n, k: RankinRow(n, k, 0.5, 0.0625))
    with pytest.raises(InvariantViolationError):
        ls.alpha_quantiles(zn_sampler(2), 1, 5)
