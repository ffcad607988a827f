"""The subgroup search: primitive candidates, no redundant exact work."""

from latstab import intmat, lattice, subgroups
from latstab.lattice import saturation_index
from conftest import random_unimodular

KINDS = ("goldstein_mayer", "gaussian_baseline")


def _lattices(per_n: int):
    for kind in KINDS:
        for n in range(2, 6):
            for stream in range(per_n):
                yield random_unimodular(n, seed=41, stream=stream, kind=kind)


def test_candidates_are_primitive_by_construction(monkeypatch):
    # every candidate of a fixed and of a shrinking threshold reaches the
    # drivers' canonicalisation with saturation index 1, so its HNF is the
    # canonical basis of its saturation
    indices = []
    real = subgroups.canonical_form

    def checked(rows):
        indices.append(saturation_index(rows))
        return real(rows)

    monkeypatch.setattr(subgroups, "canonical_form", checked)
    for lat in _lattices(8):
        for k in range(1, lat.dim + 1):
            subgroups.subgroups_within(lat, k, 1.3)
            subgroups.minimal_subgroup(lat, k)
    assert len(indices) > 10_000
    assert set(indices) == {1}


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
