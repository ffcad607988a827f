"""Lattice type, reduction, enumeration, CVP, saturation, duals, text IO."""

import contextlib
import hashlib
import math
import signal
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latstab as ls
from latstab.errors import (
    BudgetExceededError,
    DegenerateBasisError,
    LatticeParseError,
)
from latstab import intmat, reduction, subgroups
from latstab.enumeration import (NodeCounter, _close_r2, close_vectors,
                                 primitive_half_vectors, short_vectors)
from latstab.intmat import bareiss_det, identity, matmul
from latstab.lattice import (_babai_caps, _babai_recentre, _freeze_rows,
                             exact_gram_determinant)
from latstab.reduction import Frame, gso, lll_integral, lll_rows
from conftest import P_TOP, random_integer_rows, random_unimodular
from oracles import (box_coords, fraction_gso, integer_gram_det,
                     numpy_babai_distance, reference_gram_determinant,
                     reference_lll_integral, reference_lll_rows)


# -- construction and gram ---------------------------------------------------


def test_gram_identity(z2):
    assert np.array_equal(ls.gram(z2), np.eye(2))


def test_gram_diagonal():
    lat = ls.Lattice.from_rows([[2.0, 0.0], [0.0, 0.5]])
    assert np.array_equal(ls.gram(lat), np.diag([4.0, 0.25]))


def test_gram_det_equals_covolume_squared():
    for i in range(20):
        lat = ls.lll_reduce(random_unimodular(3, seed=42, stream=i))
        g = ls.gram(lat)
        # exact rational value from the integer form
        det_int = bareiss_det([list(r) for r in lat.exact_basis])
        exact = float(Fraction(det_int) ** 2) * lat.scale ** (2 * lat.dim)
        assert abs(float(np.linalg.det(g)) - exact) <= 1e-9 * max(1.0, exact)
        assert abs(lat.covolume**2 - exact) <= 1e-9 * exact


def test_rejects_degenerate():
    # an ill-conditioned basis that is exactly nonsingular is a lattice with
    # its exact covolume; only the closest-vector search, whose float LLL
    # of the raw rows needs a well-conditioned basis, refuses it
    rows = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
    lat = ls.Lattice.from_rows(rows)
    det = abs(Fraction(rows[0][0]) * Fraction(rows[1][1])
              - Fraction(rows[0][1]) * Fraction(rows[1][0]))
    assert lat.covolume == pytest.approx(float(det), rel=1e-12)
    with pytest.raises(DegenerateBasisError):
        ls.closest_vector(lat, [0.5, 0.5])
    # singular bases have exact determinant 0
    for rows in ([[0.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]],
                 [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]):
        with pytest.raises(DegenerateBasisError):
            ls.Lattice.from_rows(rows)
    with pytest.raises(ValueError):
        ls.Lattice.from_rows([[1.0]])


def test_exact_form_consistency_checked():
    with pytest.raises(ValueError):
        ls.Lattice(basis=np.eye(2), exact_basis=((2, 0), (0, 2)), scale=1.0)


def test_declared_basis_is_built_once_as_s_times_m():
    # from_exact's basis is s * float(M), bit for bit, and read-only
    forms = [(ls.gm_basis(n, p, [3, 1, 4, 1, 5, 9, 2, 6][:n]), p ** (-1.0 / n))
             for n in (2, 5, 8) for p in (2**31 - 1, P_TOP)]
    forms += [([[-1, 2**60 + 1], [3, -(2**70)]], 0.1), ([[0, 1], [-1, 0]], 1.0)]
    for m, s in forms:
        lat = ls.Lattice.from_exact(m, s)
        want = s * np.array([[float(x) for x in row] for row in m])
        assert lat.basis.tobytes() == want.tobytes()
        assert lat.basis.dtype == want.dtype and not lat.basis.flags.writeable
        assert lat.exact_basis == _freeze_rows(m) and lat.scale == s


def test_every_constructor_keeps_its_refusals():
    nan, inf = float("nan"), float("inf")
    eye2 = ((1, 0), (0, 1))
    refused = [
        # not square, and n < 2
        (ValueError, lambda: ls.Lattice.from_exact([[1, 2, 3], [4, 5, 6]], 1.0)),
        (ValueError, lambda: ls.Lattice.from_rows([[1.0, 2.0, 3.0],
                                                   [4.0, 5.0, 6.0]])),
        (ValueError, lambda: ls.Lattice(basis=np.ones((2, 3)))),
        (ValueError, lambda: ls.Lattice(basis=np.eye(2),
                                        exact_basis=((1, 0, 0), (0, 1, 0)))),
        (ValueError, lambda: ls.Lattice.from_exact([[1]], 1.0)),
        (ValueError, lambda: ls.Lattice.from_rows([[1.0]])),
        (ValueError, lambda: ls.Lattice(basis=np.eye(1))),
        # a scale that is not positive, or NaN (which makes s * M non-finite)
        (ValueError, lambda: ls.Lattice.from_exact(eye2, 0.0)),
        (ValueError, lambda: ls.Lattice.from_exact(eye2, -1.0)),
        (DegenerateBasisError, lambda: ls.Lattice.from_exact(eye2, nan)),
        (ValueError, lambda: ls.Lattice(basis=np.eye(2), exact_basis=eye2,
                                        scale=0.0)),
        (ValueError, lambda: ls.Lattice(basis=np.eye(2), exact_basis=eye2,
                                        scale=nan)),
        # a non-finite basis
        (DegenerateBasisError, lambda: ls.Lattice.from_exact(eye2, inf)),
        (DegenerateBasisError,
         lambda: ls.Lattice.from_exact([[10**10, 0], [0, 1]], 1e300)),
        (DegenerateBasisError, lambda: ls.Lattice.from_rows([[inf, 0.0],
                                                             [0.0, 1.0]])),
        (DegenerateBasisError, lambda: ls.Lattice(basis=np.array(
            [[nan, 0.0], [0.0, 1.0]]))),
        # a singular exact form
        (DegenerateBasisError, lambda: ls.Lattice.from_exact([[1, 2], [2, 4]],
                                                             1.0)),
        (DegenerateBasisError, lambda: ls.Lattice.from_rows([[1.0, 2.0],
                                                             [2.0, 4.0]])),
        (DegenerateBasisError, lambda: ls.Lattice(
            basis=np.array([[1.0, 2.0], [2.0, 4.0]]),
            exact_basis=((1, 2), (2, 4)))),
    ]
    for error, construct in refused:
        with pytest.raises(error), np.errstate(invalid="ignore", over="ignore"):
            construct()


def test_a_gm_draw_constructs_one_lattice(monkeypatch):
    calls = []
    post_init = ls.Lattice.__post_init__

    def counting(lattice):
        calls.append(lattice)
        post_init(lattice)

    monkeypatch.setattr(ls.Lattice, "__post_init__", counting)
    for n, p in ((2, 2**31 - 1), (6, 2**31 - 1), (6, P_TOP)):
        for stream in range(10):
            calls.clear()
            lat = ls.sample_gm(n, p, seed=3, stream=stream)
            assert calls == [lat]


# -- LLL ----------------------------------------------------------------------


def test_lll_fixed_point(z3):
    red = ls.lll_reduce(z3)
    assert red.exact_basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_lll_skewed_example():
    lat = ls.Lattice.from_exact([[1, 0], [1000, 1]], 1.0)
    red = ls.lll_reduce(lat)
    norms = np.linalg.norm(red.basis, axis=1)
    # brute-force shortest bases of this lattice: it is Z^2, so both rows
    # must have norm at most 2 (they are in fact +-unit vectors)
    assert norms.max() <= 2.0
    assert abs(red.covolume - lat.covolume) <= 1e-9


def test_lll_preserves_lattice_exactly():
    for i in range(25):
        lat = random_unimodular(4, seed=9, stream=i)
        red = ls.lll_reduce(lat)
        u = lat._reduced[1]
        assert bareiss_det([list(r) for r in u]) in (1, -1)
        m2 = np.array(u, dtype=object) @ np.array(
            [list(r) for r in lat.exact_basis], dtype=object
        )
        assert [list(r) for r in red.exact_basis] == m2.tolist()
        assert abs(red.covolume - lat.covolume) <= 1e-9 * lat.covolume


def test_lll_reduce_is_the_search_reduction(monkeypatch):
    # lll_reduce returns u @ M with u the search's cached transform, exactly
    # LLL-reduced at 99/100; a declared form is reduced in integers, so the
    # float LLL never sees its raw rows
    seen = []

    def spy(rows, *args):
        seen.append([list(r) for r in rows])
        return lll_rows(rows, *args)

    monkeypatch.setattr("latstab.lattice.lll_rows", spy)
    for p in (2**31 - 1, 1000003):
        for n in range(2, 9):
            for stream in range(6):
                lat = ls.sample_gm(n, p, 41, stream)
                red = ls.lll_reduce(lat)
                u = lat._reduced[1]
                assert red.exact_basis == _freeze_rows(
                    matmul(u, lat.exact_basis)), (n, p, stream)
                assert lat._rows not in seen
                assert red.scale == lat.scale
                mu, c = fraction_gso(red.exact_basis)
                for i in range(1, n):
                    assert all(abs(x) <= Fraction(1, 2) for x in mu[i][:i])
                    assert c[i] >= ((Fraction(99, 100) - mu[i][i - 1] ** 2)
                                    * c[i - 1])


# -- enumeration ---------------------------------------------------------------


def test_enumerate_z2_radius_1(z2):
    vs = ls.enumerate_short_vectors(z2, 1.0)
    assert sorted(v for v, _ in vs) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert all(abs(n - 1.0) < 1e-12 for _, n in vs)


def test_enumerate_z3_radius(z3):
    vs = ls.enumerate_short_vectors(z3, 1.5)
    assert len(vs) == 18
    norms = sorted(round(n**2) for _, n in vs)
    assert norms == [1] * 6 + [2] * 12
    # sorted ascending and sign-paired
    assert [n for _, n in vs] == sorted(n for _, n in vs)
    coord_set = {v for v, _ in vs}
    assert all(tuple(-c for c in v) in coord_set for v in coord_set)


def test_enumerate_below_first_minimum(z2):
    assert ls.enumerate_short_vectors(z2, 0.999) == []


def test_enumerate_requires_positive_radius(z2):
    with pytest.raises(ValueError):
        ls.enumerate_short_vectors(z2, 0.0)
    # a radius whose square is not a finite float is refused by the search
    # itself, not left to overflow in its coordinate bounds
    for radius in (math.inf, 1e200):
        with pytest.raises(ValueError, match="search radius must be finite"):
            ls.enumerate_short_vectors(ls.Lattice.identity(3), radius)


def test_enumerate_budget():
    lat = ls.Lattice.identity(4)
    with pytest.raises(BudgetExceededError):
        ls.enumerate_short_vectors(lat, 40.0, budget=100)


def test_enumeration_completeness_against_box_scan():
    rng = np.random.default_rng(31)
    done = 0
    while done < 12:
        n = int(rng.integers(2, 6))
        m = rng.integers(-4, 5, size=(n, n))
        if abs(np.linalg.det(np.array(m, dtype=float))) < 0.5:
            continue
        lat = ls.Lattice.from_exact([[int(x) for x in r] for r in m], 1.0)
        radius = float(rng.uniform(1.0, 3.0))
        got = {v for v, _ in ls.enumerate_short_vectors(lat, radius)}
        # brute force over the coordinate box implied by the dual-row bound
        dual_rows = np.linalg.inv(lat.basis).T
        reach = radius * np.sqrt((dual_rows * dual_rows).sum(axis=1)).max()
        box = int(math.ceil(reach + 1e-9))
        if (2 * box + 1) ** n > 3e6:
            continue
        coords = box_coords(n, box)
        norms = np.linalg.norm(coords.astype(float) @ lat.basis, axis=1)
        expect = {tuple(int(x) for x in c)
                  for c, nn in zip(coords, norms) if nn <= radius * (1 + 1e-12)}
        assert got == expect
        done += 1


# Pinned results of the enumerators on LLL-reduced gm bases (seed 2024):
# result count, NodeCounter.nodes and a digest of the sorted (coords,
# squared norm) list, recorded when SVP and CVP were separate searches.
# short_vectors at radius 1.6: (n, stream, half, count, nodes, digest)
SVP_PINS = [
    (3, 0, True, 17, 21, "12f3c90cbe73da3d"),
    (3, 0, False, 34, 39, "3b27a9c78fd806c5"),
    (4, 1, True, 15, 26, "a169af8cb3e99475"),
    (4, 1, False, 30, 48, "0c9fde5e824b6ef4"),
    (5, 2, True, 24, 39, "f7e7157885538fca"),
    (5, 2, False, 48, 73, "63d38278f637dd19"),
    (6, 3, True, 67, 92, "8af5e861ff49a8b1"),
    (6, 3, False, 134, 178, "a15974a312a309fb"),
]
# close_vectors at radius 1.3 around a uniform(-2, 2) target from
# default_rng(n): (n, stream, count, nodes, digest prefix)
CVP_PINS = [
    (3, 0, 0, 0, "4f53cda18c2baa0c"),
    (4, 1, 15, 27, "1262568a9b2e83a4"),
    (5, 2, 25, 40, "acdd448ea4c7ab4b"),
    (6, 3, 27, 41, "dfe54a5f14ce3e6a"),
]


def _pin_digest(result):
    return hashlib.sha256(repr(sorted(result)).encode()).hexdigest()[:16]


def _pin_frame(n, stream):
    # a fresh Gram-Schmidt pass over the float LLL of the raw rows, the
    # frame the pins were taken on
    rows = random_unimodular(n, seed=2024, stream=stream)._cvp_frame[0].rows
    return Frame(rows, *gso(rows))


@pytest.mark.parametrize("n, stream, half, count, nodes, digest", SVP_PINS)
def test_short_vectors_pinned(n, stream, half, count, nodes, digest):
    counter = NodeCounter()
    got = short_vectors(_pin_frame(n, stream), 1.6, counter=counter,
                        half=half)
    assert (len(got), counter.nodes, _pin_digest(got)) == (count, nodes,
                                                           digest)


@pytest.mark.parametrize("n, stream, count, nodes, digest", CVP_PINS)
def test_close_vectors_pinned(n, stream, count, nodes, digest):
    target = [float(v) for v in np.random.default_rng(n).uniform(-2, 2, n)]
    counter = NodeCounter()
    got = close_vectors(_pin_frame(n, stream), target, 1.3, counter=counter)
    assert (len(got), counter.nodes, _pin_digest(got)) == (count, nodes,
                                                           digest)


def test_frame_rejects_dependent_rows():
    for lll in (lll_rows, lll_integral):
        with pytest.raises(DegenerateBasisError):
            lll([[1, 2], [2, 4]])
    # LLL computes one Gram-Schmidt row per stage, so a zero or dependent
    # row must be caught wherever it sits
    base = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]]
    for pos in range(4):
        a, b, c = (base[i] for i in range(4) if i != pos)
        dependent = [2 * x - 3 * y + z for x, y, z in zip(a, b, c)]
        for row in ([0, 0, 0, 0], dependent):
            rows = [list(r) for r in base]
            rows[pos] = row
            for lll in (lll_rows, lll_integral):
                with pytest.raises(DegenerateBasisError):
                    lll(rows)


def test_lll_row_passes_are_bounded(monkeypatch):
    # a raw gm basis needs a second Gram-Schmidt pass over row 1 after its
    # first size reduction; with one pass allowed LLL gives up
    rows = random_unimodular(4, seed=71, stream=0)._rows
    lll_rows(rows)
    monkeypatch.setattr(reduction, "_ROW_PASSES", 1)
    with pytest.raises(DegenerateBasisError, match="failed to converge"):
        lll_rows(rows)


# the rows one projection of a rank-5 search on a scaled A_7-plus-ones lattice
# handed to LLL: row 5's mu reads about +-(1/3, 1/5, 1/4, 1/3, 1/2), its
# sign flips on each size-reduction pass, and a rounding of every |mu| > 1/2
# cycled until the passes ran out
_TIE_ROWS = [
    ["-0x1.4bfdad5362a26p-3", "-0x1.4bfdad5362a26p-3",
     "-0x1.4bfdad5362a26p-3", "-0x1.4bfdad5362a26p-3",
     "-0x1.4bfdad5362a26p-3", "-0x1.4bfdad5362a26p-3",
     "0x1.f1fc83fd13f3cp-2", "0x1.f1fc83fd13f3ap-2"],
    ["0x1.4bfdad5362a29p-3", "0x1.4bfdad5362a29p-3",
     "0x1.4bfdad5362a29p-3", "0x1.4bfdad5362a29p-3",
     "0x1.4bfdad5362a29p-3", "-0x1.227df7a8f64e3p+0",
     "0x1.4bfdad5362a29p-3", "0x1.4bfdad5362a26p-3"],
    ["0x1.4bfdad5362a26p-3", "0x1.4bfdad5362a26p-3",
     "0x1.4bfdad5362a26p-3", "0x1.4bfdad5362a26p-3",
     "-0x1.227df7a8f64e2p+0", "0x1.4bfdad5362a28p-3",
     "0x1.4bfdad5362a29p-3", "0x1.4bfdad5362a26p-3"],
    ["0x1.4bfdad5362a28p-3", "0x1.4bfdad5362a28p-3",
     "0x1.4bfdad5362a28p-3", "-0x1.227df7a8f64e2p+0",
     "0x1.4bfdad5362a26p-3", "0x1.4bfdad5362a28p-3",
     "0x1.4bfdad5362a28p-3", "0x1.4bfdad5362a26p-3"],
    ["0x1.4bfdad5362a27p-3", "0x1.4bfdad5362a27p-3",
     "-0x1.227df7a8f64e3p+0", "0x1.4bfdad5362a27p-3",
     "0x1.4bfdad5362a29p-3", "0x1.4bfdad5362a29p-3",
     "0x1.4bfdad5362a2ap-3", "0x1.4bfdad5362a28p-3"],
    ["0x1.227df7a8f64e2p+0", "-0x1.4bfdad5362a24p-3",
     "-0x1.4bfdad5362a2cp-3", "-0x1.4bfdad5362a2cp-3",
     "-0x1.4bfdad5362a24p-3", "-0x1.4bfdad5362a28p-3",
     "-0x1.4bfdad5362a29p-3", "-0x1.4bfdad5362a28p-3"]]


def test_lll_size_reduction_leaves_a_tie_at_one_half():
    rows = [[float.fromhex(x) for x in r] for r in _TIE_ROWS]
    frame, u = lll_rows(rows)
    assert abs(intmat.bareiss_det(u)) == 1
    top = max(abs(x) for i, r in enumerate(frame.mu) for x in r[:i])
    assert 0.5 < top <= reduction._ETA
    assert np.allclose(np.array(u, dtype=float) @ np.array(rows),
                       frame.rows, atol=1e-12)


@pytest.mark.parametrize("kind", ["goldstein_mayer", "gaussian_baseline"])
def test_lll_hands_down_a_current_frame(kind):
    # the frame LLL keeps up to date through its size reductions agrees
    # with a fresh Gram-Schmidt pass over the rows it returns
    for n in range(2, 9):
        for stream in range(6):
            lat = random_unimodular(n, seed=61, stream=stream, kind=kind)
            frame, _ = lll_rows(lat._rows)
            mu, c, bstar = gso(frame.rows)
            assert np.abs(np.array(frame.mu) - mu).max() <= 1e-12
            assert np.all(np.abs(np.array(frame.c) - c)
                          <= 1e-12 * np.array(c))
            scale = np.sqrt(c)[:, None]
            assert np.all(np.abs(np.array(frame.bstar) - bstar)
                          <= 1e-12 * scale)


def _lll_inputs():
    # gm at three primes near 2^31 and gauss, n = 2..8; gm n = 5, seed
    # 100000, stream 0 is a basis on which a float swap update of mu drifts
    # far enough that LLL stops early
    for p in (2**31 - 1, 2147483629, 2147483659):
        for n in range(2, 9):
            for stream in range(6):
                yield ls.SamplerSpec("goldstein_mayer", n, 71, p, stream)
    for n in range(2, 9):
        for stream in range(6):
            yield ls.SamplerSpec("gaussian_baseline", n, 71, None, stream)
    yield ls.SamplerSpec("goldstein_mayer", 5, 100000, 2**31 - 1, 0)


def test_lll_output_is_reduced():
    # checked on a fresh Gram-Schmidt pass, not on the frame LLL kept
    for spec in _lll_inputs():
        frame, _ = lll_rows(ls.sample_lattice(spec)._rows)
        mu, c, _ = gso(frame.rows)
        for i in range(1, len(c)):
            assert max(abs(x) for x in mu[i][:i]) <= 0.5 + 1e-9, spec
            lovasz = (reduction.DEFAULT_DELTA - mu[i][i - 1] ** 2) * c[i - 1]
            assert c[i] >= lovasz * (1 - 1e-9), spec


def _integer_bases():
    # gm bases at two primes, n = 2..8, with the pivot (the first column
    # whose functional entry is nonzero mod p) at every position; and dense
    # integer bases like those of lattice files
    for n in range(2, 9):
        for p in (2**31 - 1, 1000000007):
            c = np.random.default_rng(n).integers(1, p, size=n).tolist()
            for pivot in range(n):
                yield ls.gm_basis(n, p, [0] * pivot + c[pivot:])
    rng = np.random.default_rng(19)
    for n in range(2, 7):
        for _ in range(6):
            yield random_integer_rows(rng, n, n, -50, 51)


def test_lll_integral_output_is_reduced_exactly():
    # size reduction and Lovasz' condition at 99/100 on exact Gram-Schmidt
    # data, R = U M with U unimodular
    for m in _integer_bases():
        r, u, _, _ = lll_integral(m)
        assert r == matmul(u, m)
        assert abs(bareiss_det(u)) == 1
        mu, c = fraction_gso(r)
        for i in range(1, len(c)):
            assert all(abs(x) <= Fraction(1, 2) for x in mu[i][:i])
            assert c[i] >= (Fraction(99, 100) - mu[i][i - 1] ** 2) * c[i - 1]
    # the delta of the float LLL, which reduces float bases
    assert reduction.DEFAULT_DELTA == 99 / 100
    for n in range(1, 7):
        assert lll_integral(identity(n))[:2] == (identity(n), identity(n))


def _integral_bits(lll, rows):
    """lll(rows) as (R, U, d, lam[i][j] for j < i), or the error it raises."""
    try:
        r, u, d, lam = lll(rows)
    except DegenerateBasisError as exc:
        return type(exc), str(exc)
    return r, u, d, [row[:i] for i, row in enumerate(lam)]


def test_lll_integral_matches_the_reference_bitwise():
    # 200 gm bases per n at n = 2..10 at two primes, the dyadic forms of
    # exact 2d and Gaussian draws, and the dense and pivoted integer bases
    inputs = list(_integer_bases())
    for n in range(2, 11):
        for p in (2**31 - 1, P_TOP):
            rng = np.random.default_rng(n)
            for _ in range(200):
                c = [int(x) for x in rng.integers(0, p, size=n)]
                inputs.append(ls.gm_basis(n, p, c))
    inputs += [ls.sample_exact_2d(seed=31, stream=s)._exact[0]
               for s in range(100)]
    inputs += [random_unimodular(n, seed=31, stream=s,
                                 kind="gaussian_baseline")._exact[0]
               for n in range(2, 9) for s in range(10)]
    for rows in inputs:
        assert _integral_bits(lll_integral, rows) == \
            _integral_bits(reference_lll_integral, rows)
    for rows in ([[0, 0]], [[1, 2], [2, 4]], [[3, 1, 4], [1, 5, 9], [2, 6, 5],
                                              [4, 6, 13]]):
        bits = _integral_bits(lll_integral, rows)
        assert bits[0] is DegenerateBasisError
        assert bits == _integral_bits(reference_lll_integral, rows)


@st.composite
def integer_rows(draw):
    # up to 8 rows of n <= 8 integers, and at times an integer combination
    # of two of them inserted among them; more rows than n, or that
    # combination, make the rows dependent
    entry = st.one_of(st.integers(-5, 5), st.integers(-10**9, 10**9))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=1, max_size=8))
    if len(rows) >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        combo = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows


class _Hung(BaseException):
    """Not an Exception, so hypothesis stops at once rather than shrinking
    an input that costs the full deadline on every try."""


@contextlib.contextmanager
def _wall_deadline(seconds, what):
    """Raise _Hung, naming what, once the body has run for seconds of wall
    time: LLL with a broken update does not fail, it loops, and neither
    copy has a step cap."""
    def expire(signum, frame):
        raise _Hung(f"no result within {seconds} s on {what!r}")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@given(integer_rows())
@settings(max_examples=300, deadline=None)
def test_lll_integral_matches_the_reference_on_any_integer_rows(rows):
    # each example takes milliseconds; a hang fails the test at once
    with _wall_deadline(2.0, rows):
        assert _integral_bits(lll_integral, rows) == \
            _integral_bits(reference_lll_integral, rows)


def test_lll_integral_hands_down_its_exact_gram_schmidt_data():
    # d[i + 1] / d[i] is c_i and lam[i][j] / d[j + 1] is mu_ij of R, exactly
    for m in _integer_bases():
        r, _, d, lam = lll_integral(m)
        mu, c = fraction_gso(r)
        assert d[0] == 1
        for i in range(len(c)):
            assert Fraction(d[i + 1], d[i]) == c[i]
            for j in range(i):
                assert Fraction(lam[i][j], d[j + 1]) == mu[i][j]


def test_declared_form_reads_its_frame_off_the_exact_data(monkeypatch):
    # the leading determinants are those of the reduced rows u @ M, and the
    # frame's mu and c are the correctly rounded exact values: exactly at
    # scale 1, and within the rounding of s * s and of the product at a gm
    # scale; no float LLL runs, on a declared form or on the dyadic form of
    # a float basis
    def refuse(rows):
        raise AssertionError("float LLL ran on a lattice's own rows")

    monkeypatch.setattr("latstab.lattice.lll_rows", refuse)
    lats = [ls.Lattice.from_exact(m, 1.0) for m in _integer_bases()]
    lats += [random_unimodular(n, seed=67, stream=s, kind=kind)
             for kind in ("goldstein_mayer", "gaussian_baseline")
             for n in range(2, 9) for s in range(4)]
    lats += [ls.sample_exact_2d(seed=67, stream=s) for s in range(8)]
    for lat in lats:
        m, s = lat._exact
        frame, u = lat._reduced
        r = matmul(u, m)
        g = intmat.gram(r)
        assert lat._integral.d[1:] == [
            bareiss_det([row[:k] for row in g[:k]])
            for k in range(1, len(g) + 1)]
        assert frame.rows == [[s * x for x in row] for row in r]
        mu, c = fraction_gso(r)
        for i in range(len(c)):
            assert frame.mu[i][:i] == [float(x) for x in mu[i][:i]]
            exact = Fraction(s) ** 2 * c[i]
            if s == 1.0:
                assert frame.c[i] == float(exact)
            else:
                assert abs(Fraction(frame.c[i]) - exact) <= 2**-51 * exact


def _lll_bits(rows, lll):
    try:
        frame, u = lll([list(r) for r in rows])
    except DegenerateBasisError as exc:
        return str(exc)
    hexed = [[x.hex() for x in r] for r in (*frame.rows, *frame.mu,
                                            frame.c, *frame.bstar)]
    return hexed, [list(r) for r in u]


def _captured_lll_inputs(monkeypatch):
    # the rows that the dual frame and the projections below each level of
    # the subgroup search hand to LLL, by caller
    seen = {}

    def capture(rows, *args):
        caller = sys._getframe(1).f_code.co_name
        seen.setdefault(caller, []).append([list(r) for r in rows])
        return lll_rows(rows, *args)

    monkeypatch.setattr("latstab.lattice.lll_rows", capture)
    monkeypatch.setattr(subgroups, "lll_rows", capture)
    for n in range(3, 7):
        for stream in range(3):
            lat = random_unimodular(n, seed=91, stream=stream)
            for k in range(1, n):
                subgroups.minimal_subgroup(lat, k)
                subgroups.subgroups_within(lat, k, 1.3)
    monkeypatch.undo()
    return seen


def test_lll_rows_is_bitwise_the_full_width_reference(monkeypatch):
    # LLL skips the columns past the stage width and the transform columns
    # past the highest stage; every skipped step is +0.0 arithmetic, so
    # frame and transform are bitwise the full-width reduction's
    inputs = [ls.sample_lattice(spec)._rows for spec in _lll_inputs()]
    for n in range(2, 9):
        for p in (2**31 - 1, 1000000007):
            c = np.random.default_rng(n).integers(1, p, size=n).tolist()
            for pivot in range(1, n):
                # c_0 = ... = c_{pivot-1} = 0 mod p: the pivot is not column 0
                rows = ls.gm_basis(n, p, [0] * pivot + c[pivot:])
                s = p ** (-1.0 / n)
                inputs += [rows, [[x * s for x in r] for r in rows]]
            rows = [[x * p ** (-1.0 / n) for x in r]
                    for r in ls.gm_basis(n, p, c)]
            for i in (0, n - 2):
                signed = [list(r) for r in rows]
                signed[i][-1] = -0.0
                assert reduction._width(signed[i]) == n
                inputs.append(signed)
    inputs += [ls.sample_exact_2d(seed=29, stream=s)._rows for s in range(40)]
    captured = _captured_lll_inputs(monkeypatch)
    assert len(captured["_dual_frame"]) == 12
    assert len(captured["_project"]) > 500
    for rows in inputs + captured["_dual_frame"] + captured["_project"]:
        assert _lll_bits(rows, lll_rows) == _lll_bits(rows, reference_lll_rows)


# -- CVP -----------------------------------------------------------------------


def test_cvp_rounding(z2):
    res = ls.closest_vector(z2, [0.4, 0.4])
    assert res.coords == (0, 0)
    assert abs(res.distance - math.sqrt(0.32)) < 1e-12


def test_cvp_tie_break(z2):
    res = ls.closest_vector(z2, [0.5, 0.0])
    assert abs(res.distance - 0.5) < 1e-12
    assert res.coords == (0, 0)  # lexicographically smaller than (1, 0)


def test_cvp_beats_nearest_plane():
    rng = np.random.default_rng(5)
    for i in range(20):
        lat = random_unimodular(3, seed=15, stream=i)
        target = rng.uniform(-2, 2, size=3)
        res = ls.closest_vector(lat, target)
        assert res.distance <= numpy_babai_distance(lat, target) + 1e-9
        # returned vector is consistent with its coordinates
        vec = np.array(res.coords, dtype=float) @ lat.basis
        assert np.allclose(vec, res.vector)


def test_cvp_exact_against_box_scan():
    rng = np.random.default_rng(47)
    done = 0
    while done < 15:
        n = 2 + done % 3
        m = rng.integers(-4, 5, size=(n, n))
        if abs(np.linalg.det(np.array(m, dtype=float))) < 0.5:
            continue
        lat = ls.Lattice.from_exact([[int(x) for x in r] for r in m], 1.0)
        target = rng.uniform(-3, 3, size=n)
        res = ls.closest_vector(lat, target)
        # every closest point lies within the rounding point's distance;
        # the dual rows bound the coordinates of that ball
        inv = np.linalg.inv(lat.basis)
        centre = np.rint(target @ inv)
        reach = np.linalg.norm(centre @ lat.basis - target) * np.sqrt(
            (inv.T * inv.T).sum(axis=1)).max()
        box = int(math.ceil(reach + 1.0))
        if (2 * box + 1) ** n > 3e6:
            continue
        coords = np.vstack([np.zeros((1, n), dtype=int), box_coords(n, box)])
        coords = coords + centre.astype(int)
        dists = np.linalg.norm(coords.astype(float) @ lat.basis - target,
                               axis=1)
        best = dists.min()
        assert abs(res.distance - best) <= 1e-9 * max(1.0, best)
        ties = {tuple(int(x) for x in c)
                for c, d in zip(coords, dists) if d <= best + 1e-9}
        assert res.coords in ties
        done += 1


def test_cvp_builds_one_frame(monkeypatch):
    lat = random_unimodular(4, seed=8, stream=0)
    # LLL computes each frame row by row: the CVP frame and the search frame
    lat._cvp_frame
    lat._reduced
    calls = []
    row = reduction._gso_row

    def counted(rows, i, *frame):
        calls.append(i)
        return row(rows, i, *frame)

    monkeypatch.setattr(reduction, "_gso_row", counted)
    rng = np.random.default_rng(2)
    for _ in range(25):
        ls.closest_vector(lat, rng.random(4) @ lat.basis)
    ls.enumerate_short_vectors(lat, 1.2)
    # the frames came out of the LLL behind _cvp_frame and _reduced
    assert calls == []


@pytest.mark.parametrize("kind, count", [("goldstein_mayer", 486),
                                         ("gaussian_baseline", 438)])
def test_search_frame_norms_are_exact(kind, count):
    # every primitive vector of norm <= 1.05 has the norm of its exact form
    # in the search frame, within 1e-12 relative; the float LLL of a raw gm
    # basis left 459 of the 486 gm vectors off by more than 1e-9
    checked = 0
    for n in range(2, 7):
        for stream in range(40):
            lat = random_unimodular(n, seed=41, stream=stream, kind=kind)
            frame, u = lat._reduced
            m, s = lat._exact
            for x, norm2 in primitive_half_vectors(frame, 1.05):
                v = matmul(matmul([list(x)], u), m)[0]
                exact = math.sqrt(sum(a * a for a in v)) * s
                assert abs(math.sqrt(norm2) - exact) <= 1e-12 * exact
                checked += 1
    assert checked == count


def test_batched_babai_caps_are_bitwise_the_per_target_caps():
    lats = [random_unimodular(n, seed=81, stream=s)
            for n in range(2, 7) for s in range(3)]
    lats += [random_unimodular(n, seed=82, stream=s, kind="gaussian_baseline")
             for n in range(2, 6) for s in range(3)]
    lats += [ls.sample_exact_2d(seed=83, stream=s) for s in range(3)]
    lats.append(ls.Lattice.identity(2))
    # a larger prime puts the targets far from the origin
    lats += [ls.sample_lattice(ls.SamplerSpec("goldstein_mayer", n, 84,
                                              1000000007, s))
             for n in range(2, 7) for s in range(2)]
    for i, lat in enumerate(lats):
        points = np.random.default_rng(i).random((300, lat.dim)) @ lat.basis
        caps = _babai_caps(lat, points)
        assert caps.shape == (300,)
        for point, cap in zip(points, caps.tolist()):
            assert cap == math.sqrt(_close_r2(_babai_recentre(lat, point)[3]))


# -- saturation and sublattices -------------------------------------------------


def test_saturate_examples():
    assert ls.saturate([[2, 0, 0], [0, 1, 0]]) == ((1, 0, 0), (0, 1, 0))
    prim = [[1, 0, 0], [0, 1, 0]]
    assert ls.saturate(prim) == ls.canonical_form(prim)


def test_saturate_idempotent_and_generator_invariant():
    rng = np.random.default_rng(3)
    for _ in range(25):
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        if k > n:
            continue
        while True:
            a = rng.integers(-5, 6, size=(k, n)).tolist()
            if np.linalg.matrix_rank(np.array(a, dtype=float)) == k:
                break
        sat = ls.saturate(a)
        assert ls.saturate(sat) == sat
        # different generators of the same row space
        b = [a[-1]] + a[:-1]
        b[0] = [x + 2 * y for x, y in zip(b[0], a[0])] if k > 1 else b[0]
        assert ls.saturate(b) == sat
        index = ls.saturation_index(a)
        ratio_sq = integer_gram_det(a) / integer_gram_det(list(sat))
        assert ratio_sq == Fraction(index) ** 2


def test_sublattice_record(z3):
    sub = ls.sublattice(z3, [[2, 0, 0], [0, 1, 0]])
    assert sub.rank == 2
    assert not sub.primitive
    assert abs(sub.covolume - 2.0) < 1e-12
    prim = ls.sublattice(z3, [[1, 0, 0], [0, 1, 0]])
    assert prim.primitive
    g = ls.gram(z3)
    c = np.array(prim.coords, dtype=float)
    assert abs(prim.covolume - math.sqrt(np.linalg.det(c @ g @ c.T))) <= 1e-9


def test_sublattice_rejects_dependent(z3):
    with pytest.raises(ValueError):
        ls.sublattice(z3, [[1, 2, 3], [2, 4, 6]])


# -- duals -----------------------------------------------------------------------


def test_dual_self(z3):
    d = ls.dual(z3)
    assert np.allclose(d.basis, np.eye(3))


def test_dual_diagonal():
    lat = ls.Lattice.from_rows([[2.0, 0.0], [0.0, 0.5]])
    d = ls.dual(lat)
    assert np.allclose(np.sort(np.abs(d.basis).sum(axis=1)), [0.5, 2.0])
    assert abs(d.covolume * lat.covolume - 1.0) < 1e-12


def test_dual_involution_and_covolume():
    for i in range(100):
        n = 2 + (i % 4)
        lat = random_unimodular(n, seed=21, stream=i)
        d = ls.dual(lat)
        assert abs(lat.covolume * d.covolume - 1.0) <= 1e-9
        dd = ls.dual(d)
        scale_ref = max(1.0, float(np.max(np.abs(lat.basis))))
        assert np.max(np.abs(dd.basis - lat.basis)) <= 1e-9 * scale_ref


def test_float_lattices_reduce_and_dualize_to_exact_forms():
    for stream in range(10):
        lat = ls.sample_exact_2d(seed=2, stream=stream)
        assert lat.exact_basis is None
        red = ls.lll_reduce(lat)
        assert red.exact_basis is not None
        assert red.covolume == lat.covolume
        d = ls.dual(lat)
        assert d.exact_basis is not None
        assert abs(d.covolume * lat.covolume - 1.0) <= 1e-12


def test_float_subgroup_covolume_ignores_the_generators():
    # the covolume of a subgroup of a float lattice is a function of the
    # subgroup: its HNF rows and any unimodular mix of them agree bitwise
    rng = np.random.default_rng(7)
    for stream in range(6):
        lat = random_unimodular(5, seed=41, stream=stream,
                                kind="gaussian_baseline")
        for k in range(1, 5):
            rows = random_integer_rows(rng, k, 5)
            hnf = ls.canonical_form(rows)
            low, up = (np.tril(rng.integers(-3, 4, size=(k, k)), -1)
                       + np.eye(k, dtype=int) for _ in range(2))
            mix = -low @ up.T  # determinant (-1)^k
            mixed = [[int(x) for x in row] for row in mix @ np.array(hnf)]
            assert ls.subgroup_covolume(lat, mixed) == \
                ls.subgroup_covolume(lat, hnf)


def _exact_form_only(int_rows, scale):
    """A Lattice that carries only its exact form. The float constructor
    rejects gm bases at p near 2^61 as ill-conditioned, and the exact
    determinants read nothing but the exact form."""
    lat = object.__new__(ls.Lattice)
    vars(lat)["_exact"] = (_freeze_rows(int_rows), scale)
    return lat


def _determinant_lattices():
    for n in range(2, 7):
        for stream in range(3):
            yield random_unimodular(n, seed=43, stream=stream)
            yield random_unimodular(n, seed=43, stream=stream,
                                    kind="gaussian_baseline")
    for stream in range(4):
        yield ls.sample_exact_2d(seed=43, stream=stream)


def test_exact_gram_determinant_matches_the_reference_on_random_rows():
    # k = 1..n random rows, dependent ones included, on gm lattices at
    # p = 2^31 - 1 and at p = 2^61 - 1, dyadic gauss and exact_2d lattices
    rng = np.random.default_rng(11)
    p = 2**61 - 1
    wide = [_exact_form_only(ls.gm_basis(n, p, rng.integers(1, p, size=n)),
                             p ** (-1.0 / n))
            for n in (2, 3, 4) for _ in range(3)]
    dets = []
    for lat in list(_determinant_lattices()) + wide:
        n = len(lat._exact[0])
        for k in range(1, n + 1):
            for _ in range(4):
                rows = rng.integers(-60, 61, size=(k, n)).tolist()
                if k > 1 and rng.random() < 0.25:
                    rows[-1] = [2 * x - y
                                for x, y in zip(rows[0], rows[k - 2])]
                dets.append(exact_gram_determinant(lat, rows))
                assert dets[-1] == reference_gram_determinant(lat, rows)
    assert 0 in dets and max(dets).bit_length() > 400


def test_exact_gram_determinant_matches_the_reference_on_search_rows(
        monkeypatch):
    # every coordinate set the three drivers decide on a direct route
    seen = []
    real = subgroups.exact_gram_determinant

    def spy(lat, rows):
        seen.append((lat, rows))
        return real(lat, rows)

    monkeypatch.setattr(subgroups, "exact_gram_determinant", spy)
    for lat in _determinant_lattices():
        for k in range(1, lat.dim + 1):
            subgroups.minimal_subgroup(lat, k)
            subgroups.subgroups_within(lat, k, 1.2)
            subgroups.exists_below(lat, k, 1.0)
    assert len(seen) > 1_000
    assert {len(rows) for _, rows in seen} == set(range(1, 7))
    for lat, rows in seen:
        assert exact_gram_determinant(lat, rows) == \
            reference_gram_determinant(lat, rows)


# -- text format -------------------------------------------------------------------


def test_text_roundtrip_exact(tmp_path):
    lat = random_unimodular(3, seed=5, stream=0)
    path = tmp_path / "lat.txt"
    ls.write_lattice(lat, path)
    back = ls.read_lattice(path)
    assert back.exact_basis == lat.exact_basis
    assert back.scale == lat.scale


def test_text_roundtrip_float(tmp_path):
    lat = ls.sample_exact_2d(seed=2, stream=3)
    path = tmp_path / "lat.txt"
    ls.write_lattice(lat, path)
    back = ls.read_lattice(path)
    assert np.array_equal(back.basis, lat.basis)


def test_parse_rationals():
    lat = ls.parse_lattice_text("2\n1/2 0\n0 2/1\n")
    assert np.allclose(lat.basis, [[0.5, 0.0], [0.0, 2.0]])


def test_parse_integer_rows_get_exact_form():
    lat = ls.parse_lattice_text("2\n1 0\n0 1\n")
    assert lat.exact_basis == ((1, 0), (0, 1))


def test_parse_scale_line():
    lat = ls.parse_lattice_text("2\n2 0\n0 2\nscale: 0.5\n")
    assert lat.exact_basis == ((2, 0), (0, 2))
    assert np.allclose(lat.basis, 0.5 * np.array([[2, 0], [0, 2]]))


def test_parse_errors_name_the_line():
    with pytest.raises(LatticeParseError) as err:
        ls.parse_lattice_text("2\n1 x\n0 1\n")
    assert err.value.line == 2
    with pytest.raises(LatticeParseError) as err:
        ls.parse_lattice_text("2\n1 0\n")
    assert err.value.line == 3
    with pytest.raises(LatticeParseError):
        ls.parse_lattice_text("2\n1.5 0\n0 1\nscale: 2.0\n")
    with pytest.raises(LatticeParseError):
        ls.parse_lattice_text("not-a-number\n")


def test_vector_norm(z2):
    assert ls.vector_norm(z2, (3, 4)) == 5.0
