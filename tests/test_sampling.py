"""Samplers: exactness, determinism, and distributional checks."""

import math

import numpy as np
import pytest

import latstab as ls
from latstab.intmat import bareiss_det
from latstab.rng import stream_generator
from latstab.sampling import is_prime

P_DEFAULT = 2**31 - 1


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(997)
    assert is_prime(P_DEFAULT)
    assert not is_prime(1) and not is_prime(4) and not is_prime(10**6)
    assert is_prime(1000003)


def test_spec_validation():
    with pytest.raises(ValueError):
        ls.SamplerSpec(kind="nope", n=2, seed=1)
    with pytest.raises(ValueError):
        ls.SamplerSpec(kind="exact_2d", n=3, seed=1)
    with pytest.raises(ValueError):
        ls.SamplerSpec(kind="goldstein_mayer", n=2, seed=1, p=10)
    spec = ls.SamplerSpec(kind="goldstein_mayer", n=2, seed=1)
    assert spec.p == P_DEFAULT
    assert spec.with_stream(5).stream == 5


def test_gm_basis_example():
    assert ls.gm_basis(2, 5, (1, 2)) == [[5, 0], [-2, 1]]


def test_gm_basis_determinant_is_p():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        p = 101
        c = [int(v) for v in rng.integers(0, p, size=n)]
        if not any(c):
            continue
        rows = ls.gm_basis(n, p, c)
        assert bareiss_det(rows) == p
        # rows actually satisfy the congruence
        for row in rows:
            assert sum(a * b for a, b in zip(row, c)) % p == 0


def test_gm_lattice_properties():
    for i in range(20):
        lat = ls.sample_gm(3, P_DEFAULT, seed=4, stream=i)
        assert abs(lat.covolume - 1.0) <= 1e-9
        assert bareiss_det([list(r) for r in lat.exact_basis]) == P_DEFAULT
        assert lat.scale == P_DEFAULT ** (-1.0 / 3.0)


def test_gm_determinism():
    a = ls.sample_gm(4, P_DEFAULT, seed=9, stream=3)
    b = ls.sample_gm(4, P_DEFAULT, seed=9, stream=3)
    assert a.exact_basis == b.exact_basis
    c = ls.sample_gm(4, P_DEFAULT, seed=9, stream=4)
    assert c.exact_basis != a.exact_basis


def test_exact_2d_covolume_and_determinism():
    for i in range(50):
        lat = ls.sample_exact_2d(seed=8, stream=i)
        assert abs(lat.covolume - 1.0) <= 1e-12
    a = ls.sample_exact_2d(seed=8, stream=1)
    b = ls.sample_exact_2d(seed=8, stream=1)
    assert np.array_equal(a.basis, b.basis)


def test_exact_2d_fundamental_domain():
    # reconstruct (x, y) from the basis and check domain membership
    for i in range(200):
        lat = ls.sample_exact_2d(seed=3, stream=i)
        y = float(lat.basis[1][1]) ** 2
        x = float(lat.basis[1][0]) * float(lat.basis[1][1])
        assert abs(x) <= 0.5 + 1e-12
        assert x * x + y * y >= 1.0 - 1e-12


def test_exact_2d_acceptance_rate():
    # replay the proposal stream and count first-try acceptances
    n = 20000
    accept = 0
    y_min = math.sqrt(3.0) / 2.0
    for i in range(n):
        gen = stream_generator(12, i)
        x = gen.random() - 0.5
        y = y_min / (1.0 - gen.random())
        accept += x * x + y * y >= 1.0
    rate = accept / n
    expect = ls.exact_2d_acceptance_rate()
    se = math.sqrt(expect * (1 - expect) / n)
    assert abs(rate - expect) <= 3 * se


def test_exact_2d_y_cdf_closed_form():
    assert ls.exact_2d_y_cdf(math.sqrt(3) / 2) == 0.0
    assert abs(ls.exact_2d_y_cdf(1.0) - (1 - 3 / math.pi)) < 1e-14
    big = ls.exact_2d_y_cdf(1e9)
    assert abs(big - 1.0) < 1e-8
    # monotone
    ys = np.linspace(0.87, 5.0, 200)
    vals = [ls.exact_2d_y_cdf(float(y)) for y in ys]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_exact_2d_y_marginal_ks():
    n = 10**5
    ys = np.empty(n)
    for i in range(n):
        lat = ls.sample_exact_2d(seed=2024, stream=i)
        ys[i] = float(lat.basis[1][1]) ** 2
    ys.sort()
    # KS distance sampled at 20 quantile points, 1% critical value
    crit = 1.628 / math.sqrt(n)
    for q in np.linspace(0.05, 0.95, 20):
        point = float(np.quantile(ys, q))
        ecdf = np.searchsorted(ys, point, side="right") / n
        assert abs(ecdf - ls.exact_2d_y_cdf(point)) <= crit


def test_gaussian_baseline():
    for i in range(20):
        lat = ls.sample_gaussian_baseline(3, seed=5, stream=i)
        assert abs(lat.covolume - 1.0) <= 1e-9
        assert lat.provenance == "gaussian_baseline[biased]"
    a = ls.sample_gaussian_baseline(3, seed=5, stream=2)
    b = ls.sample_gaussian_baseline(3, seed=5, stream=2)
    assert np.array_equal(a.basis, b.basis)


def test_gaussian_baseline_retries_only_degenerate_draws(monkeypatch):
    # an ill-conditioned draw is skipped; any other failure surfaces at once
    real = ls.Lattice.from_rows
    calls = []

    def degenerate_once(rows, provenance=None):
        calls.append(rows)
        if len(calls) == 1:
            raise ls.DegenerateBasisError("ill-conditioned")
        return real(rows, provenance=provenance)

    monkeypatch.setattr(ls.Lattice, "from_rows", degenerate_once)
    lat = ls.sample_gaussian_baseline(3, seed=5, stream=0)
    assert len(calls) == 2 and lat.dim == 3

    def broken(rows, provenance=None):
        calls.append(rows)
        raise RuntimeError("broken constructor")

    calls.clear()
    monkeypatch.setattr(ls.Lattice, "from_rows", broken)
    with pytest.raises(RuntimeError, match="broken constructor"):
        ls.sample_gaussian_baseline(3, seed=5, stream=0)
    assert len(calls) == 1


def test_gaussian_baseline_bias_reported():
    # the biased baseline need not match the invariant measure; report the
    # measured n=2 stable fraction without asserting a target
    spec = ls.SamplerSpec(kind="gaussian_baseline", n=2, seed=31)
    res = ls.stability_mass(spec, 2000)
    assert 0.0 <= res.stable_fraction <= 1.0
    print(f"gaussian baseline n=2 stable fraction: "
          f"{res.stable_fraction:.4f} +- {res.stderr:.4f} "
          f"(invariant value 0.0451)")


def test_cross_sampler_primitive_counts():
    # mean transform counts at n=2 agree between gm (large p) and exact_2d
    t = 1.5
    n_samp = 4000
    gm = ls.mc_integral(
        ls.SamplerSpec(kind="goldstein_mayer", n=2, seed=17, p=10**6 + 3),
        1, t, n_samp,
    )
    ex = ls.mc_integral(
        ls.SamplerSpec(kind="exact_2d", n=2, seed=18), 1, t, n_samp
    )
    se = math.hypot(gm.stderr, ex.stderr)
    assert abs(gm.mean - ex.mean) <= 3 * se


def test_gm_p_sensitivity_report():
    # no convergence rate is assumed; report the stable fraction at three
    # p values next to the exact value and check only the largest p
    exact = 1 - 3 / math.pi
    lines = []
    for p in (997, 10**6 + 3, P_DEFAULT):
        spec = ls.SamplerSpec(kind="goldstein_mayer", n=2, seed=23, p=p)
        res = ls.stability_mass(spec, 4000)
        lines.append((p, res.stable_fraction, res.stderr))
    for p, frac, se in lines:
        print(f"gm p={p}: stable fraction {frac:.4f} +- {se:.4f} "
              f"(exact {exact:.6f})")
    p, frac, se = lines[-1]
    assert abs(frac - exact) <= 4 * max(se, 1e-12)


def test_sample_lattice_dispatch():
    for kind, n in (("goldstein_mayer", 3), ("exact_2d", 2),
                    ("gaussian_baseline", 4)):
        spec = ls.SamplerSpec(kind=kind, n=n, seed=2, stream=1)
        lat = ls.sample_lattice(spec)
        assert lat.dim == n
        assert abs(lat.covolume - 1.0) <= 1e-9
