"""The subgroup search: primitive candidates, no redundant exact work, and
ranks above n/2 searched in the dual with the same results."""

import hashlib
import itertools
import math
import re
import sys

import pytest

from latstab import (Lattice, intmat, lattice, reduction, stability,
                     subgroups)
from latstab.enumeration import DEFAULT_BUDGET
from latstab.errors import BudgetExceededError, InvariantViolationError
from latstab.lattice import saturation_index
from conftest import P_TOP, random_unimodular

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
    # reaches the drivers' exact evaluation, or subgroups_within's canonical
    # form, with saturation index 1, so its HNF is the canonical basis of
    # its saturation; at k > n/2 the candidates are the dual's, checked in
    # the dual's coordinates, where primitivity makes dual_gram_determinant
    # the determinant of y^perp, and the direct search's are checked as well
    indices = []

    def checked(real):
        def evaluate(lat, rows):
            indices.append(saturation_index(rows))
            return real(lat, rows)
        return evaluate

    for name in ("exact_gram_determinant", "dual_gram_determinant"):
        monkeypatch.setattr(subgroups, name,
                            checked(getattr(subgroups, name)))
    real_canonical = subgroups.canonical_form

    def canonical(rows):
        indices.append(saturation_index(rows))
        return real_canonical(rows)

    monkeypatch.setattr(subgroups, "canonical_form", canonical)
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
    # a lattice's search frame is read off the integer LLL of its exact
    # form, so the float LLL never sees the raw rows of a gm lattice, nor
    # their reduced rows s * (U M), nor the raw rows of a float basis; the
    # CVP path keeps the float LLL of the raw rows and never calls the
    # integer LLL
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
        assert "_reduced" in vars(lat)
        assert lat._rows not in seen
        assert lat._reduced[0].rows not in seen
        assert "_cvp_frame" not in vars(lat)
    for kind, n in (("gaussian_baseline", 4), ("exact_2d", 2)):
        lat = random_unimodular(n, seed=47, stream=2, kind=kind)
        for k in range(1, n):
            subgroups.minimal_subgroup(lat, k)
        assert lat._rows not in seen
        assert "_cvp_frame" not in vars(lat)
    monkeypatch.setattr(lattice, "lll_integral", refuse)
    for n in range(2, 7):
        lat = random_unimodular(n, seed=47, stream=1)
        stability.covrad_lower(lat, 50, 3)
        assert "_reduced" not in vars(lat)


def test_every_frame_comes_out_of_lll(monkeypatch):
    # each level's frame, in the dual and below every projection, is the
    # one LLL kept while reducing the level; the top frame is read off the
    # integral LLL of the exact form, which computes no float Gram-Schmidt
    # row
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
    return (lat._reduced, k, 1.0, lattice.exact_gram_determinant,
            lattice.canonical_form, lambda rows: False)


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
    # at their own covolume, which the strict < refuses, the leading five
    # rows decide nothing and the search runs
    calls = _spy_candidates(monkeypatch)
    lat = random_unimodular(6, seed=53, stream=0)
    own = lattice.subgroup_covolume(lat, lat._reduced[1][:5])
    subgroups.exists_below(lat, 5, own)
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


def test_dual_candidates_are_decided_in_the_dual(monkeypatch):
    # every dual candidate the minimum and the stability decision evaluate
    # gets from dual_gram_determinant the exact Gram determinant on L of the
    # subgroup it stands for: its integer kernel, mapped to L by the
    # reduction transform; r = n - k runs 1..3
    ranks = []
    real = lattice.dual_gram_determinant

    def checked(lat, y):
        x = intmat.matmul(intmat.kernel_rows(y), lat._reduced[1])
        d = real(lat, y)
        assert d == lattice.exact_gram_determinant(lat, x), (lat.basis, y)
        ranks.append(len(y))
        return d

    monkeypatch.setattr(subgroups, "dual_gram_determinant", checked)
    for n in range(3, 9):
        lats = list(_routed_lattices(n))
        if n >= 6:
            lats.append(random_unimodular(n, seed=47, stream=0,
                                          kind="gaussian_baseline"))
        for lat in lats:
            for k in range(n // 2 + 1, n):
                subgroups.minimal_subgroup(lat, k)
                subgroups.exists_below(lat, k, stability._stable_bound(k))
    assert set(ranks) == {1, 2, 3}
    assert len(ranks) > 1000


def test_inexact_dual_determinant_is_an_invariant_error():
    # a quotient by det(G)^(r-1) that leaves a remainder is never floored
    lat = random_unimodular(4, seed=47, stream=0)
    adj, det = lat._dual_gram
    vars(lat)["_dual_gram"] = (adj, det + 1)
    with pytest.raises(InvariantViolationError, match="not a positive"):
        lattice.dual_gram_determinant(lat, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_dual_route_maps_only_what_it_returns(monkeypatch):
    # exists_below decides every dual candidate with no kernel; the minimum
    # maps one kernel per distinct subgroup of its final band other than the
    # seed (none on a generic gm lattice), subgroups_within one per subgroup
    # other than the seed that it reaches, at the minimum's own bound the
    # subgroups it returns
    calls = []
    real = intmat.kernel_rows

    def spy(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(intmat, "kernel_rows", spy)

    def mapped(lat, k):
        calls.clear()
        m, coords = subgroups.minimal_subgroup(lat, k)
        band = len(calls)
        calls.clear()
        within = [c for _, c in subgroups.subgroups_within(lat, k, m)]
        others = [c for c in within if c != subgroups._seed_form(lat, k)]
        assert len(others) == len(calls) == band
        # the ties, the seed's among them, are settled by _tie_key alone
        assert coords == min(within, key=subgroups._tie_key)
        calls.clear()
        for bound in (m, math.nextafter(m, math.inf)):
            subgroups.exists_below(lat, k, bound)
        assert calls == []
        return band

    for n in (4, 5, 6):
        ks = range(n // 2 + 1, n)
        gm = random_unimodular(n, seed=47, stream=0)
        assert [mapped(gm, k) for k in ks] == [0] * len(ks)
        # Z^n ties at every coordinate subgroup, binom(n, k) of them with
        # the seed; D_n and A_n + 1 tie at some ranks
        assert [mapped(Lattice.identity(n), k) for k in ks] == \
            [math.comb(n, k) - 1 for k in ks]
        ties = [mapped(lat, k) for k in ks
                for lat in (_scaled(_d_n(n)), _scaled(_a_n_plus_ones(n)))]
        assert max(ties) > 1


def test_dual_search_that_finds_only_the_seed_builds_no_adjugate():
    # at n = 6, k = 4 on a generic gm lattice the dual search yields the
    # seed alone, so neither minimal_subgroup nor exists_below builds adj(G)
    # or takes a dual determinant; a bound above the seed's covolume is
    # witnessed by the seed itself and runs no search
    for stream in range(4):
        lat = random_unimodular(6, seed=47, stream=stream)
        own = lattice._covolume(lat, 4, lat._integral.d[4])
        assert subgroups.minimal_subgroup(lat, 4)[0] == own
        assert not subgroups.exists_below(lat, 4, own)
        assert subgroups.exists_below(lat, 4, math.nextafter(own, math.inf))
        assert "_dual_frame" in vars(lat)
        assert "_dual_gram" not in vars(lat)


def _seed_test_lattices(n):
    yield Lattice.identity(n)
    yield _scaled(_d_n(n))
    yield _scaled(_a_n_plus_ones(n))
    for kind in KINDS:
        for stream in range(3):
            yield random_unimodular(n, seed=71, stream=stream, kind=kind)


def test_dual_seed_test_is_exact():
    # a dual candidate is the seed, the span of the leading k reduced rows,
    # exactly when its first k coordinates vanish: then its exact
    # determinant is d[k] and it maps to the seed's canonical form, and
    # every other candidate maps elsewhere; at every k > n/2, n = 3..7
    seeds = others = 0
    for n in range(3, 8):
        for lat in _seed_test_lattices(n):
            for k in range(n // 2 + 1, n):
                level, rank, scale, _, to_lattice, is_seed = \
                    subgroups._route(lat, k)
                seed = lattice.canonical_form(lat._reduced[1][:k])
                assert subgroups._seed_form(lat, k) == seed
                d = lat._integral.d[k]
                bound = 1.5 * lattice._covolume(lat, k, d)
                search = subgroups._Search(bound, DEFAULT_BUDGET, k, rank)
                found = False
                for y in subgroups._candidates(level, rank, scale, search):
                    vanish = not any(x for row in y for x in row[:k])
                    assert is_seed(y) == vanish
                    if vanish:
                        assert lattice.dual_gram_determinant(lat, y) == d
                        assert to_lattice(y) == seed
                        seeds += 1
                        found = True
                    else:
                        assert to_lattice(y) != seed
                        others += 1
                # the seed lies below the bound, so the search reaches it
                assert found, (lat.basis, k)
    assert seeds > 50 and others > 50


# -- exists_below tries the leading reduced rows first --------------------------


def _witness_lattices():
    for kind, dims in (("goldstein_mayer", range(2, 8)),
                       ("gaussian_baseline", range(2, 8)),
                       ("exact_2d", (2,))):
        for n in dims:
            for stream in range(4):
                yield random_unimodular(n, seed=59, stream=stream, kind=kind)
    # gm at the top of the accepted p range
    for n in range(2, 7):
        for stream in range(4):
            yield random_unimodular(n, seed=59, stream=stream, p=P_TOP)


def test_leading_dets_are_the_leading_rows_gram_determinants():
    for lat in _witness_lattices():
        u = lat._reduced[1]
        dets = lat._integral.d[1:]
        assert dets == [lattice.exact_gram_determinant(lat, u[:k])
                        for k in range(1, lat.dim + 1)]
        assert dets[-1] == intmat.bareiss_det(lat._exact[0]) ** 2


def test_witness_agrees_with_the_search_alone():
    # each bound is met by the leading rows or left to the search; at the
    # witness's own covolume the search decides, just above it the witness
    decided = {True: 0, False: 0}
    for lat in _witness_lattices():
        u = lat._reduced[1]
        for k in range(1, lat.dim + 1):
            m = subgroups.minimal_subgroup(lat, k)[0]
            own = lattice.subgroup_covolume(lat, u[:k])
            for bound in (1.0, (1 - 1e-12) ** k, own,
                          math.nextafter(own, math.inf)):
                decided[own < bound] += 1
                assert subgroups.exists_below(lat, k, bound) == (m < bound), \
                    (lat.basis, k, bound)
    assert decided[True] > 100 and decided[False] > 100


def test_witnessed_rank_runs_no_search(monkeypatch):
    # the leading five reduced rows of this lattice have covolume 0.885
    calls = _spy_candidates(monkeypatch)
    lat = random_unimodular(6, seed=53, stream=0)
    assert subgroups.exists_below(lat, 5, 1.0, budget=0)
    assert calls == []
    assert "_dual_frame" not in vars(lat)


def test_exists_below_evaluates_exactly_the_search_candidates(monkeypatch):
    # once the leading rows' determinant has refused the bound, the exact
    # determinants evaluated are the search's candidates other than the
    # seed, in order, on both routes, and all of them when the answer is
    # False; no candidate lies above the bound by more than the slack, so
    # leading rows refused by more than that are never evaluated again, and
    # a dual candidate that is the seed is never evaluated at all
    calls = []

    def spy(real):
        def evaluate(lat, rows):
            calls.append([list(r) for r in rows])
            return real(lat, rows)
        return evaluate

    for name in ("exact_gram_determinant", "dual_gram_determinant"):
        monkeypatch.setattr(subgroups, name, spy(getattr(subgroups, name)))
    outcomes = {True: 0, False: 0}
    routes = set()
    refused = rediscovered = 0
    for kind, n, stream in itertools.product(KINDS, range(2, 9), range(16)):
        lat = random_unimodular(n, seed=61, stream=stream, kind=kind)
        for k in range(1, n + 1):
            own = lattice._covolume(lat, k, lat._integral.d[k])
            m = subgroups.minimal_subgroup(lat, k)[0]
            for bound in (stability._stable_bound(k), own,
                          math.nextafter(m, math.inf)):
                if own < bound:
                    continue
                level, rank, scale, _, _, is_seed = subgroups._route(lat, k)
                search = subgroups._Search(bound, DEFAULT_BUDGET, k, rank)
                cands = [[list(r) for r in rows] for rows in
                         subgroups._candidates(level, rank, scale, search)]
                others = [rows for rows in cands if not is_seed(rows)]
                rediscovered += len(cands) - len(others)
                cands = others
                calls.clear()
                found = subgroups.exists_below(lat, k, bound)
                assert calls == cands[:len(calls)], (lat.basis, k, bound)
                if not found:
                    assert calls == cands
                if rank == k and own > bound * subgroups.SLACK ** 2:
                    lead = [list(r) for r in lat._reduced[1][:k]]
                    assert lead not in calls
                    refused += 1
                outcomes[found] += 1
                routes.add(rank == k)
    assert outcomes[True] >= 10 and outcomes[False] > 300
    assert routes == {True, False} and refused > 50 and rediscovered > 50


def test_witnessed_lattice_builds_no_frame(monkeypatch):
    # a gm lattice whose every rank the leading reduced rows decide is
    # classified at every rank, and by is_stable, from its one integral LLL:
    # no float LLL runs and no frame is built
    seen = []

    def spy(rows, *args):
        seen.append(rows)
        return reduction.lll_rows(rows, *args)

    def witnessed(lat):
        return all(lattice._covolume(lat, k, lat._integral.d[k])
                   < stability._stable_bound(k) for k in range(1, lat.dim))

    monkeypatch.setattr(lattice, "lll_rows", spy)
    monkeypatch.setattr(subgroups, "lll_rows", spy)
    checked = 0
    for n in range(2, 8):
        for stream in range(10):
            if not witnessed(random_unimodular(n, seed=73, stream=stream)):
                continue
            lat = random_unimodular(n, seed=73, stream=stream)
            assert not stability.is_stable(lat)
            assert all(subgroups.exists_below(lat, k,
                                              stability._stable_bound(k))
                       for k in range(1, n))
            assert seen == []
            assert not {"_reduced", "_cvp_frame", "_dual_frame"} & set(
                vars(lat))
            checked += 1
    assert checked > 30


def test_search_decides_at_its_own_minimum():
    # the minimal rank-1 covolume is reached by a search whose bound is
    # that covolume; a search frame off by 1e-7 relative once missed it
    lat = random_unimodular(5, seed=41, stream=3)
    m = subgroups.minimal_subgroup(lat, 1)[0]
    assert m == 0.9968770621209389
    assert subgroups.exists_below(lat, 1, math.nextafter(m, math.inf))


def test_bad_bound_is_refused_before_any_frame_is_built():
    # subgroups_within checks its bound before routing, as exists_below does
    lat = Lattice.identity(4)
    with pytest.raises(ValueError, match="bound must be positive"):
        subgroups.subgroups_within(lat, 3, 0.0)
    assert not {"_integral", "_reduced", "_dual_frame"} & set(vars(lat))


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
