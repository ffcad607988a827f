"""Per-rank minimal covolumes, profiles, the stability predicate, covrad."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import latstab as ls
from latstab import stability
from latstab.enumeration import _close_r2
from latstab.lattice import _babai_recentre
from latstab.rng import stream_generator
from latstab.stability import profile_csv_rows
from latstab.subgroups import exists_below
from conftest import random_unimodular
from oracles import brute_force_min_covolume


def hexagonal():
    c = (2.0 / math.sqrt(3.0)) ** 0.5
    return ls.Lattice.from_rows([[c, 0.0], [c / 2.0, c * math.sqrt(3.0) / 2.0]])


def diag_half():
    return ls.Lattice.from_rows([[2.0, 0.0], [0.0, 0.5]])


# -- alpha ---------------------------------------------------------------------


def test_alpha_identity_any_k():
    for n in (2, 3, 4, 5):
        lat = ls.Lattice.identity(n)
        for k in range(1, n):
            value, sub = ls.alpha(lat, k)
            assert value == 1.0
            # the minimizer is the span of the first k coordinate vectors
            expect = tuple(
                tuple(1 if j == i else 0 for j in range(n)) for i in range(k)
            )
            assert sub.coords == expect
            assert sub.primitive


def test_alpha_diag_half():
    value, sub = ls.alpha(diag_half(), 1)
    assert abs(value - 0.5) < 1e-12
    assert sub.coords == ((0, 1),)


def test_alpha_hexagonal():
    value, _ = ls.alpha(hexagonal(), 1)
    # brute-force derivation: scan the coordinate box of radius 3
    lat = hexagonal()
    best = min(
        float(np.linalg.norm(np.array([a, b], float) @ lat.basis))
        for a in range(-3, 4)
        for b in range(-3, 4)
        if (a, b) != (0, 0)
    )
    assert abs(value - best) < 1e-12
    assert abs(value - (2.0 / math.sqrt(3.0)) ** 0.5) < 1e-9


def test_alpha_argument_validation(z3):
    with pytest.raises(ValueError):
        ls.alpha(z3, 0)
    with pytest.raises(ValueError):
        ls.alpha(z3, 3)
    # non-unimodular input is rejected on the public path
    skew = ls.Lattice.from_rows([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        ls.alpha(skew, 1)
    assert abs(ls.min_covolume(skew, 1)[0] - 1.0) < 1e-12


def test_alpha_oracle_equivalence_small():
    idx = 0
    for n in (2, 3, 4):
        for i in range(6):
            lat = random_unimodular(n, seed=33, stream=idx)
            idx += 1
            for k in range(1, n):
                covol, sub = ls.min_covolume(lat, k)
                oracle = brute_force_min_covolume(lat, k)
                assert abs(covol - oracle) <= 1e-9 * max(1.0, oracle)
                assert abs(sub.covolume - covol) == 0.0
                assert sub.primitive


def test_exists_below_against_oracle():
    for n in (2, 3, 4):
        for i in range(3):
            lat = random_unimodular(n, seed=89, stream=i)
            for k in range(1, n):
                m = brute_force_min_covolume(lat, k)
                covol, _ = ls.min_covolume(lat, k)
                assert abs(covol - m) <= 1e-9 * m
                # covol is the minimum as the search itself evaluates it
                for bound in (m * (1 - 1e-6), m, covol, m * (1 + 1e-6)):
                    for inclusive in (False, True):
                        expected = (covol <= bound if inclusive
                                    else covol < bound)
                        assert exists_below(lat, k, bound,
                                            inclusive=inclusive) == expected


def test_alpha_duality_identity():
    for i in range(15):
        n = 3 + (i % 3)
        lat = random_unimodular(n, seed=77, stream=i)
        d = ls.dual(lat)
        for k in range(1, n):
            ak, _ = ls.alpha(lat, k)
            bk, _ = ls.alpha(d, n - k)
            assert abs(ak**k - bk ** (n - k)) <= 1e-9


def test_alpha_homothety():
    # min rank-k covolume scales by c^k, so alpha scales by c; scale the
    # reduced basis so entry rounding stays far below the tolerance
    for i in range(8):
        lat = ls.lll_reduce(random_unimodular(3, seed=13, stream=i))
        c = 1.7
        scaled = ls.Lattice.from_rows(c * lat.basis)
        for k in (1, 2):
            base, _ = ls.alpha(lat, k)
            got = ls.min_covolume(scaled, k)[0] ** (1.0 / k)
            assert abs(got - c * base) <= 1e-9 * c * base


def test_minimizer_covolume_matches_alpha():
    for i in range(10):
        lat = random_unimodular(4, seed=3, stream=i)
        for k in range(1, 4):
            value, sub = ls.alpha(lat, k)
            assert abs(sub.covolume ** (1.0 / k) - value) <= 1e-9


# -- profile and polygon ---------------------------------------------------------


def test_profile_z3(z3):
    prof = ls.alpha_profile(z3)
    assert prof.alphas == (1.0, 1.0)
    assert prof.stable
    assert all(p.on_hull for p in prof.polygon)
    assert all(abs(p.y) < 1e-12 for p in prof.polygon)
    assert [p.k for p in prof.polygon] == [0, 1, 2, 3]


def test_profile_diag_half():
    prof = ls.alpha_profile(diag_half())
    assert abs(prof.alphas[0] - 0.5) < 1e-12
    assert not prof.stable
    dip = prof.polygon[1]
    assert dip.k == 1 and abs(dip.y - math.log(0.5)) < 1e-12


def test_profile_rescale_invariance():
    # rescaling by c and renormalizing is the identity on the lattice, so
    # the profile must agree exactly on an identical copy and to float
    # accuracy on the renormalized float construction
    lat = random_unimodular(3, seed=4, stream=2)
    prof1 = ls.alpha_profile(lat)
    copy = ls.Lattice.from_exact(lat.exact_basis, lat.scale)
    assert ls.alpha_profile(copy).alphas == prof1.alphas
    red = ls.lll_reduce(lat)
    c = 2.3
    renorm = ls.Lattice.from_rows((c * red.basis) / c)
    assert np.allclose(ls.alpha_profile(renorm).alphas, prof1.alphas,
                       rtol=1e-9)


def test_polygon_ordinate_identity_and_convexity():
    for i in range(10):
        n = 3 + (i % 3)
        lat = random_unimodular(n, seed=55, stream=i)
        prof = ls.alpha_profile(lat)
        for k, a in enumerate(prof.alphas, start=1):
            assert abs(prof.polygon[k].y - k * math.log(a)) <= 1e-9
        # convexity of the marked hull points
        hull = [(p.k, p.y) for p in prof.polygon if p.on_hull]
        for (x1, y1), (x2, y2), (x3, y3) in zip(hull, hull[1:], hull[2:]):
            assert (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) >= -1e-12
        # stable iff minimum ordinate of the polygon is >= -1e-12
        min_y = min(p.y for p in prof.polygon)
        assert prof.stable == (min_y >= -1e-12)
        assert prof.stable == ls.is_stable(lat)


def test_profile_json_and_csv(z3):
    prof = ls.alpha_profile(z3)
    payload = prof.to_json_dict()
    assert payload["n"] == 3
    assert payload["alphas"] == [1.0, 1.0]
    assert payload["stable"] is True
    assert payload["minimizers"][0] == [[1, 0, 0]]
    assert profile_csv_rows(prof) == [(3, 1, 1.0), (3, 2, 1.0)]


# -- stability predicate -----------------------------------------------------------


def test_is_stable_examples(z3):
    assert ls.is_stable(z3)
    assert not ls.is_stable(diag_half())
    assert ls.is_stable(hexagonal())


def test_in_s_k_examples(z2):
    assert ls.in_s_k(z2, 1, 1.0)
    assert not ls.in_s_k(z2, 1, 1.0001)


def test_in_s_k_monotone_in_t():
    for i in range(6):
        lat = random_unimodular(3, seed=8, stream=i)
        for k in (1, 2):
            values = [ls.in_s_k(lat, k, t)
                      for t in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)]
            # once False, stays False
            assert values == sorted(values, reverse=True)


def test_in_s_k_validation(z2):
    with pytest.raises(ValueError):
        ls.in_s_k(z2, 1, 0.0)
    with pytest.raises(ValueError):
        ls.in_s_k(z2, 2, 1.0)


# -- covering radius ----------------------------------------------------------------


def test_covrad_z2(z2):
    est = ls.covrad_lower(z2, trials=400, rng_seed=10)
    # the deep hole of Z^2 sits at distance sqrt(2)/2
    assert 0.5 <= est.lower_bound <= 0.7072
    assert est.trials == 400
    assert len(est.argmax_point) == 2


def test_covrad_deterministic(z2):
    one = ls.covrad_lower(z2, trials=1, rng_seed=99)
    two = ls.covrad_lower(z2, trials=1, rng_seed=99)
    assert one == two
    other = ls.covrad_lower(z2, trials=1, rng_seed=100)
    assert other != one


def test_covrad_below_nearest_plane_bound():
    for i in range(6):
        lat = random_unimodular(3, seed=41, stream=i)
        est = ls.covrad_lower(lat, trials=60, rng_seed=i)
        # independent upper estimate sqrt(n)/2 * max Gram-Schmidt norm
        q, r = np.linalg.qr(ls.lll_reduce(lat).basis.T)
        gs_max = float(np.abs(np.diag(r)).max())
        assert est.lower_bound <= math.sqrt(3) / 2.0 * gs_max + 1e-9


def test_covrad_validation(z2):
    with pytest.raises(ValueError):
        ls.covrad_lower(z2, trials=0, rng_seed=1)


def _covrad_every_trial(lattice, trials, rng_seed):
    """Reference covrad: an exact CVP search at every trial."""
    gen = stream_generator(rng_seed, 0)
    best, arg = -1.0, ()
    for _ in range(trials):
        point = gen.random(lattice.dim) @ lattice.basis
        res = ls.closest_vector(lattice, point)
        if res.distance > best:
            best, arg = res.distance, tuple(float(v) for v in point)
    return best, arg


def _covrad_searched_one_at_a_time(lattice, trials, rng_seed):
    """Targets that a skip test run trial by trial sends to closest_vector."""
    gen = stream_generator(rng_seed, 0)
    best, searched = -1.0, []
    for _ in range(trials):
        point = gen.random(lattice.dim) @ lattice.basis
        if math.sqrt(_close_r2(_babai_recentre(lattice, point)[3])) <= best:
            continue
        searched.append(tuple(point))
        best = max(best, ls.closest_vector(lattice, point).distance)
    return searched


def test_covrad_skips_only_trials_that_cannot_win(monkeypatch):
    cases = [(random_unimodular(n, seed=71, stream=s), 80, s)
             for n in range(2, 7) for s in range(2)]
    cases += [(random_unimodular(n, seed=72, stream=s,
                                 kind="gaussian_baseline"), 80, s)
              for n in range(2, 6) for s in range(2)]
    cases += [(ls.sample_exact_2d(seed=73, stream=s), 200, s)
              for s in range(3)]
    # Z^2: many points lie near its deep holes, so the skip test often
    # meets a bound just at or below the running maximum
    cases += [(ls.Lattice.identity(2), 400, s) for s in range(3)]
    searched = []
    real = stability.closest_vector

    def spy(lattice, target, budget):
        searched.append(tuple(target))
        return real(lattice, target, budget)

    monkeypatch.setattr(stability, "closest_vector", spy)
    for lat, trials, rng_seed in cases:
        searched.clear()
        est = ls.covrad_lower(lat, trials, rng_seed)
        best, arg = _covrad_every_trial(lat, trials, rng_seed)
        assert (est.lower_bound, est.argmax_point, est.trials) == (
            best, arg, trials)
        _assert_searched_by_cap(lat, trials, rng_seed, searched)
    # the pruning stays effective
    for stream in range(3):
        lat = random_unimodular(5, seed=74, stream=stream)
        searched.clear()
        ls.covrad_lower(lat, 200, rng_seed=stream)
        assert len(searched) <= 50
        _assert_searched_by_cap(lat, 200, stream, searched)


def _assert_searched_by_cap(lattice, trials, rng_seed, searched):
    """The searched targets are some of those a trial-by-trial screen
    searches, visited from the largest Babai cap down."""
    assert set(searched) <= set(
        _covrad_searched_one_at_a_time(lattice, trials, rng_seed))
    gen = stream_generator(rng_seed, 0)
    caps = {}
    for _ in range(trials):
        point = gen.random(lattice.dim) @ lattice.basis
        caps[tuple(point)] = math.sqrt(
            _close_r2(_babai_recentre(lattice, point)[3]))
    visited = [caps[t] for t in searched]
    assert visited[0] == max(caps.values())
    assert visited == sorted(visited, reverse=True)


class _FixedDraws:
    """Stands in for a stream generator: hands out the given uniforms."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)
        self.used = 0

    def random(self, shape):
        block = self.rows[self.used:self.used + shape[0]]
        self.used += shape[0]
        return block


@pytest.mark.parametrize("block", [stability._COVRAD_BLOCK, 1])
def test_covrad_tie_goes_to_the_lower_index(monkeypatch, block):
    # on Z^2 both points have squared distance 0.3125 to the origin, exactly,
    # and equal Babai caps; block 1 puts them in different blocks
    monkeypatch.setattr(stability, "_COVRAD_BLOCK", block)
    a, b, near = (0.25, 0.5), (0.5, 0.25), (0.125, 0.125)
    z2 = ls.Lattice.identity(2)
    assert stability._babai_caps(z2, np.array([a])).tolist() == (
        stability._babai_caps(z2, np.array([b])).tolist())
    for rows in ([a, b], [b, a], [near, a, b], [near, b, a]):
        monkeypatch.setattr(stability, "stream_generator",
                            lambda seed, stream, rows=rows: _FixedDraws(rows))
        est = ls.covrad_lower(z2, len(rows), rng_seed=0)
        assert est.lower_bound == math.sqrt(0.3125)
        assert est.argmax_point == rows[-2]


def test_covrad_screens_fixed_size_blocks(monkeypatch):
    block = stability._COVRAD_BLOCK
    # a block of draws is the same doubles as one draw per trial
    for n in (2, 5):
        blocked = stream_generator(11, 0).random((block, n))
        gen = stream_generator(11, 0)
        per_trial = np.array([gen.random(n) for _ in range(block)])
        assert blocked.tobytes() == per_trial.tobytes()
    sizes = []
    real = stability._babai_caps

    def spy(lattice, points):
        sizes.append(len(points))
        return real(lattice, points)

    monkeypatch.setattr(stability, "_babai_caps", spy)
    cases = [(random_unimodular(n, seed=75, stream=n), n) for n in (3, 5)]
    cases.append((random_unimodular(4, seed=76, stream=0,
                                    kind="gaussian_baseline"), 9))
    for lat, rng_seed in cases:
        for trials, blocks in ((block + 3, [block, 3]),
                               (2 * block, [block, block])):
            sizes.clear()
            est = ls.covrad_lower(lat, trials, rng_seed)
            assert sizes == blocks
            assert (est.lower_bound, est.argmax_point) == _covrad_every_trial(
                lat, trials, rng_seed)


def test_covrad_searches_by_cap_until_no_trial_can_win(monkeypatch):
    # made-up caps and distances with many ties, each distance at most its
    # cap; trial i is the point (i, 0) of Z^2
    rng = np.random.default_rng(5)
    case, searched = {}, []

    def fake_cvp(lattice, target, budget):
        searched.append(int(target[0]))
        return SimpleNamespace(distance=case["dists"][int(target[0])])

    monkeypatch.setattr(stability, "stream_generator", lambda seed, stream:
                        _FixedDraws([(i, 0) for i in range(case["trials"])]))
    monkeypatch.setattr(stability, "_babai_caps", lambda lattice, points:
                        np.array([case["caps"][int(p[0])] for p in points],
                                 dtype=float))
    monkeypatch.setattr(stability, "closest_vector", fake_cvp)
    for _ in range(300):
        trials = int(rng.integers(1, 13))
        caps = rng.integers(1, 5, trials).tolist()
        dists = [float(rng.integers(0, c + 1)) for c in caps]
        block = int(rng.integers(1, trials + 1))
        case.update(trials=trials, caps=caps, dists=dists)
        monkeypatch.setattr(stability, "_COVRAD_BLOCK", block)
        searched.clear()
        est = ls.covrad_lower(ls.Lattice.identity(2), trials, rng_seed=0)
        assert est.lower_bound == max(dists)
        assert est.argmax_point == (float(dists.index(max(dists))), 0.0)
        # per block: a prefix of the trials by cap, highest first and equal
        # caps in index order, each able to beat the maximum before it
        # (equal at a lower index); the first trial left cannot
        top, at = -1.0, -1
        for start in range(0, trials, block):
            order = sorted(range(start, min(start + block, trials)),
                           key=caps.__getitem__, reverse=True)
            got = [i for i in searched if start <= i < start + block]
            assert got == order[:len(got)]
            for i in got:
                assert caps[i] > top or (caps[i] == top and i < at)
                if dists[i] > top or (dists[i] == top and i < at):
                    top, at = dists[i], i
            if len(got) < len(order):
                left = order[len(got)]
                assert caps[left] < top or (caps[left] == top and left > at)
