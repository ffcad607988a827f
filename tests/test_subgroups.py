"""The subgroup search: primitive candidates, no redundant exact work, and
ranks above n/2 searched in the dual with the same results."""

import hashlib
import math
import re
import sys

import pytest

from latstab import (Lattice, intmat, lattice, reduction, stability,
                     subgroups)
from latstab.enumeration import DEFAULT_BUDGET
from latstab.errors import BudgetExceededError
from latstab.lattice import saturation_index
from conftest import random_unimodular

KINDS = ("goldstein_mayer", "gaussian_baseline")


def _lattices(per_n: int):
    for kind in KINDS:
        for n in range(2, 6):
            for stream in range(per_n):
                yield random_unimodular(n, seed=41, stream=stream, kind=kind)


def _direct_candidates(lat, k, bound):
    """Candidates of the rank-k search run on the lattice itself, which the
    drivers replace by a search in the dual when k > n/2."""
    search = subgroups._Search(bound, DEFAULT_BUDGET, k, k)
    return subgroups._candidates(lat._reduced, k, 1.0, search)


def test_candidates_are_primitive_by_construction(monkeypatch):
    # every candidate of a fixed, a shrinking and an early-exit threshold
    # reaches the drivers' exact covolume with saturation index 1 (in
    # subgroups_within as its HNF, once per subgroup), so its HNF is the
    # canonical basis of its saturation; at k > n/2 on exact lattices those
    # candidates come back from the dual, and the direct search's are
    # checked as well
    indices = []
    real = subgroups.subgroup_covolume

    def checked(lat, rows):
        indices.append(saturation_index(rows))
        return real(lat, rows)

    monkeypatch.setattr(subgroups, "subgroup_covolume", checked)
    for lat in _lattices(8):
        for k in range(1, lat.dim + 1):
            subgroups.subgroups_within(lat, k, 1.3)
            subgroups.minimal_subgroup(lat, k)
            subgroups.exists_below(lat, k, 1.3)
            if 2 * k > lat.dim:
                indices += [saturation_index(rows)
                            for rows in _direct_candidates(lat, k, 1.3)]
    assert len(indices) > 10_000
    assert set(indices) == {1}


def test_nothing_lies_below_the_minimum():
    # the drivers evaluate every covolume on the exact form, so the minimum
    # found by one search is never undercut by another search's candidate,
    # on float lattices too
    for lat in _lattices(4):
        for k in range(1, lat.dim + 1):
            m, _ = subgroups.minimal_subgroup(lat, k)
            assert not subgroups.exists_below(lat, k, m), (lat.basis, k)


def test_drivers_never_saturate(monkeypatch):
    calls = []
    real = intmat.saturation

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(intmat, "saturation", counting)
    for lat in _lattices(1):
        for k in range(1, lat.dim + 1):
            subgroups.minimal_subgroup(lat, k)
            subgroups.subgroups_within(lat, k, 1.3)
            subgroups.exists_below(lat, k, 1.0)
    assert calls == []


def test_search_reuses_the_cached_reduction(monkeypatch):
    # the top level of the search is the lattice's own reduced basis, and a
    # rank-1 search never projects, so no LLL runs once _reduced is cached
    calls = []

    def counting(real):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapped

    lats = [random_unimodular(n, seed=43, stream=n, kind=kind)
            for kind in KINDS for n in range(2, 7)]
    for lat in lats:
        lat._reduced
    monkeypatch.setattr(subgroups, "lll_rows", counting(subgroups.lll_rows))
    monkeypatch.setattr(lattice, "lll_rows", counting(lattice.lll_rows))
    for lat in lats:
        assert subgroups.subgroups_within(lat, 1, 1.3)
    assert calls == []


def test_each_path_reduces_its_own_frame(monkeypatch):
    # a declared form's search frame comes from its integer LLL, so the
    # float LLL never sees the raw rows of a gm lattice; the CVP path keeps
    # the float LLL of those rows and never calls the integer LLL; a float
    # basis has one frame for both
    seen = []

    def spy(rows, *args):
        seen.append([list(r) for r in rows])
        return reduction.lll_rows(rows, *args)

    def refuse(rows):
        raise AssertionError("the integer LLL ran on the CVP path")

    monkeypatch.setattr(lattice, "lll_rows", spy)
    monkeypatch.setattr(subgroups, "lll_rows", spy)
    for n in range(2, 7):
        lat = random_unimodular(n, seed=47, stream=0)
        for k in range(1, n):
            subgroups.minimal_subgroup(lat, k)
        assert seen and lat._rows not in seen
        assert "_cvp_frame" not in vars(lat)
    monkeypatch.setattr(lattice, "lll_integral", refuse)
    for n in range(2, 7):
        lat = random_unimodular(n, seed=47, stream=1)
        stability.covrad_lower(lat, 50, 3)
        assert "_reduced" not in vars(lat)
    for kind, n in (("gaussian_baseline", 4), ("exact_2d", 2)):
        lat = random_unimodular(n, seed=47, stream=2, kind=kind)
        subgroups.minimal_subgroup(lat, 1)
        assert lat._reduced is lat._cvp_frame


def test_every_frame_comes_out_of_lll(monkeypatch):
    # each level's frame, at the top, in the dual and below every
    # projection, is the one LLL kept while reducing the level
    callers = []
    real = reduction._gso_row

    def spy(*args):
        callers.append(sys._getframe(1).f_code)
        return real(*args)

    monkeypatch.setattr(reduction, "_gso_row", spy)
    for lat in _lattices(2):
        for k in range(1, lat.dim + 1):
            subgroups.minimal_subgroup(lat, k)
            subgroups.subgroups_within(lat, k, 1.3)
            subgroups.exists_below(lat, k, 1.0)
    assert "_dual_frame" in vars(lat)
    assert len(callers) > 100
    assert set(callers) == {reduction.lll_rows.__code__}


# the three drivers' results over fixed lattices, hashed: floats as float.hex,
# so a change to the search or to LLL may not move a single bit
DRIVER_DIGESTS = {
    "minimal_subgroup":
        "ac9f0fba4f48f9102244743ef35b9349b71a7cb17e5070c3af3781b999d13d15",
    "subgroups_within":
        "b71fea8526384bfca934fc5679f5895ae0bebcd56738dd438c5d0297dedbd20d",
    "exists_below":
        "93930a73cdf083f05cd4867603dd1dc09a00324ed90eb0e14c2af6d0e6df6c60",
}


def _digest_lattices():
    for kind, dims, streams in (("goldstein_mayer", range(2, 7), 6),
                                ("gaussian_baseline", range(2, 7), 6),
                                ("exact_2d", (2,), 12)):
        for n in dims:
            for stream in range(streams):
                yield random_unimodular(n, seed=101, stream=stream, kind=kind)


def test_driver_results_are_pinned():
    lines = {name: [] for name in DRIVER_DIGESTS}
    for lat in _digest_lattices():
        for k in range(1, lat.dim + 1):
            m, coords = subgroups.minimal_subgroup(lat, k)
            lines["minimal_subgroup"].append(f"{m.hex()} {coords}")
            within = subgroups.subgroups_within(lat, k, 1.2 ** k)
            lines["subgroups_within"].append(
                repr([(v.hex(), c) for v, c in within]))
            lines["exists_below"].append(
                str(subgroups.exists_below(lat, k, 0.95 ** k)))
    digests = {name: hashlib.sha256("\n".join(v).encode()).hexdigest()
               for name, v in lines.items()}
    assert digests == DRIVER_DIGESTS


# -- ranks above n/2: the search runs in the dual ------------------------------


def _scaled(rows):
    """Integer rows scaled to covolume 1."""
    det = abs(intmat.bareiss_det(rows))
    return Lattice.from_exact(rows, det ** (-1.0 / len(rows)))


def _d_n(n):
    rows = [[int(j == i) - int(j == i + 1) for j in range(n)]
            for i in range(n - 1)]
    return rows + [[0] * (n - 2) + [1, 1]]


def _a_n_plus_ones(n):
    # the root lattice A_(n-1) together with the all-ones vector
    rows = [[int(j == i) - int(j == i + 1) for j in range(n)]
            for i in range(n - 1)]
    return rows + [[1] * n]


def _routed_lattices(n):
    # tie-heavy root lattices, gm lattices and gauss lattices; the direct
    # rank-5 searches at n = 6 take seconds each, so one gm lattice there
    yield Lattice.identity(n)
    yield _scaled(_d_n(n))
    yield _scaled(_a_n_plus_ones(n))
    for stream in range(4 if n < 6 else 1):
        yield random_unimodular(n, seed=47, stream=stream)
    if n < 6:
        # float lattices, searched through their dyadic integer form
        for stream in range(4):
            yield random_unimodular(n, seed=47, stream=stream,
                                    kind="gaussian_baseline")


def _driver_results(lat, k):
    m, coords = subgroups.minimal_subgroup(lat, k)
    within = subgroups.subgroups_within(lat, k, 1.2 ** k)
    # each bound strictly, then as covolume <= bound (the next float up)
    decisions = [subgroups.exists_below(lat, k, b)
                 for bound in (m * (1 - 1e-6), m, m * (1 + 1e-6))
                 for b in (bound, math.nextafter(bound, math.inf))]
    return m, coords, within, decisions


def _direct_route(lat, k):
    return lat._reduced, k, 1.0, subgroups._direct


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dual_route_matches_the_direct_search(monkeypatch, n):
    pairs = [(lat, k) for lat in _routed_lattices(n)
             for k in range(n // 2 + 1, n)]
    routed = [_driver_results(lat, k) for lat, k in pairs]
    monkeypatch.setattr(subgroups, "_route", _direct_route)
    direct = [_driver_results(lat, k) for lat, k in pairs]
    for (lat, k), got, want in zip(pairs, routed, direct):
        assert got == want, (lat.exact_basis, k)
        # nothing lies below the minimum, and the minimum is attained
        assert got[3] == [False, False, False, True, True, True]


def _spy_candidates(monkeypatch):
    calls = []
    real = subgroups._candidates

    def spy(level, k, scale, search):
        calls.append((level, k))
        return real(level, k, scale, search)

    monkeypatch.setattr(subgroups, "_candidates", spy)
    return calls


def test_rank_n_minus_1_runs_at_rank_1_in_the_dual(monkeypatch):
    calls = _spy_candidates(monkeypatch)
    lat = random_unimodular(6, seed=53, stream=0)
    subgroups.exists_below(lat, 5, 1.0 - 1e-12)
    ((level, k),) = calls
    assert k == 1
    assert level is lat._dual_frame


def test_low_ranks_build_no_dual_frame(monkeypatch):
    calls = _spy_candidates(monkeypatch)
    lat = random_unimodular(6, seed=53, stream=1)
    for k in (1, 2, 3):
        subgroups.exists_below(lat, k, 1.0)
        subgroups.subgroups_within(lat, k, 1.1)
        subgroups.minimal_subgroup(lat, k)
    assert "_dual_frame" not in vars(lat)
    assert {k for _, k in calls} <= {1, 2, 3}


def test_search_decides_at_its_own_minimum():
    # the minimal rank-1 covolume is reached by a search whose bound is
    # that covolume; a search frame off by 1e-7 relative once missed it
    lat = random_unimodular(5, seed=41, stream=3)
    m = subgroups.minimal_subgroup(lat, 1)[0]
    assert m == 0.9968770621209389
    assert subgroups.exists_below(lat, 1, math.nextafter(m, math.inf))


def test_rank_out_of_range_is_refused_before_the_bound():
    # exists_below answers False for a bound <= 0, but only for a valid rank
    for n in (3, 6):
        lat = random_unimodular(n, seed=53, stream=0)
        for k in (0, n + 1):
            for search in (subgroups.exists_below, subgroups.subgroups_within):
                with pytest.raises(ValueError, match="out of range"):
                    search(lat, k, 0.0)
            with pytest.raises(ValueError, match="out of range"):
                subgroups.minimal_subgroup(lat, k)
        assert subgroups.exists_below(lat, n, 0.0) is False


def test_budget_error_names_the_search():
    lat = random_unimodular(6, seed=53, stream=3)
    with pytest.raises(BudgetExceededError) as dual:
        subgroups.exists_below(lat, 5, 0.5, budget=2)
    assert re.fullmatch(
        r"enumeration exceeded its node budget of 2 after \d+ nodes in a "
        r"rank-5 subgroup search run at rank 1 on the dual lattice, "
        r"threshold 0\.5", str(dual.value))
    with pytest.raises(BudgetExceededError) as direct:
        subgroups.minimal_subgroup(lat, 2, budget=2)
    assert re.fullmatch(
        r"enumeration exceeded its node budget of 2 after \d+ nodes in a "
        r"rank-2 subgroup search run at rank 2 on the lattice, "
        r"threshold [0-9.]+", str(direct.value))
    # a bound whose search radius squares past the floats is refused
    with pytest.raises(ValueError, match="search radius must be finite"):
        subgroups.subgroups_within(Lattice.identity(3), 1, 1e300)
