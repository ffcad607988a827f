"""Exact integer kernel: determinants, normal forms, saturation, completion."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latstab import intmat
from oracles import _fraction_det, integer_gram_det, reference_adjugate

ints = st.integers(min_value=-30, max_value=30)


def square(n):
    return st.lists(st.lists(ints, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, s, t = intmat.xgcd(a, b)
    assert g == math.gcd(a, b)
    assert s * a + t * b == g


@given(square(3))
def test_bareiss_matches_fraction_det(rows):
    expect = _fraction_det([[Fraction(x) for x in row] for row in rows])
    assert intmat.bareiss_det(rows) == expect


@given(square(4))
@settings(max_examples=50)
def test_bareiss_4x4(rows):
    expect = _fraction_det([[Fraction(x) for x in row] for row in rows])
    assert intmat.bareiss_det(rows) == expect


def _zero_leading_pivot(a):
    # the first Gauss-Jordan pivot is 0, so a row exchange is needed
    return [[0] + a[0][1:]] + a[1:]


@given(st.integers(1, 7).flatmap(square), st.booleans())
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]], False)  # zero second pivot
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]], False)
@settings(max_examples=80)
def test_adjugate_is_the_cofactor_adjugate(a, exchange):
    # one fraction-free Gauss-Jordan pass against n^2 cofactor determinants
    if exchange:
        a = _zero_leading_pivot(a)
    assume(intmat.bareiss_det(a) != 0)
    assert intmat.adjugate(a) == reference_adjugate(a)


def _random_unimodular(rng, n):
    u = np.eye(n, dtype=int)
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        u[i] += int(rng.integers(-3, 4)) * u[j]
    return [[int(x) for x in row] for row in u]


def test_hnf_examples():
    assert intmat.hnf_rows([[2, 0, 0], [0, 1, 0]]) == [[2, 0, 0], [0, 1, 0]]
    assert intmat.hnf_rows([[0, 1], [1, 0]]) == [[1, 0], [0, 1]]
    # entries above the pivot are reduced into [0, pivot)
    assert intmat.hnf_rows([[1, 7], [0, 3]]) == [[1, 1], [0, 3]]


def test_hnf_invariant_under_row_ops():
    rng = np.random.default_rng(7)
    for trial in range(40):
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        if k > n:
            continue
        while True:
            a = rng.integers(-6, 7, size=(k, n))
            if np.linalg.matrix_rank(np.array(a, dtype=float)) == k:
                break
        a = [[int(x) for x in row] for row in a]
        u = _random_unimodular(rng, k)
        assert intmat.hnf_rows(intmat.matmul(u, a)) == intmat.hnf_rows(a)
        # idempotence
        h = intmat.hnf_rows(a)
        assert intmat.hnf_rows(h) == h


def test_saturation_examples():
    sat, index = intmat.saturation([[2, 0, 0], [0, 1, 0]])
    assert sat == [[1, 0, 0], [0, 1, 0]]
    assert index == 2
    sat2, index2 = intmat.saturation([[1, 0, 0], [0, 1, 0]])
    assert sat2 == [[1, 0, 0], [0, 1, 0]]
    assert index2 == 1


def test_saturation_index_matches_covolume_ratio():
    rng = np.random.default_rng(11)
    for trial in range(40):
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        if k > n:
            continue
        while True:
            a = rng.integers(-5, 6, size=(k, n))
            if np.linalg.matrix_rank(np.array(a, dtype=float)) == k:
                break
        a = [[int(x) for x in row] for row in a]
        sat, index = intmat.saturation(a)
        ratio_sq = integer_gram_det(a) / integer_gram_det(sat)
        assert ratio_sq == Fraction(index) ** 2
        # saturation is idempotent and canonical
        sat2, index2 = intmat.saturation(sat)
        assert sat2 == sat and index2 == 1


def test_saturation_rejects_rank_deficient():
    with pytest.raises(ValueError):
        intmat.saturation([[1, 2, 3], [2, 4, 6]])


def test_kernel_rows_is_the_saturated_orthogonal_complement():
    rng = np.random.default_rng(13)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        while True:
            a = rng.integers(-5, 6, size=(k, n))
            if np.linalg.matrix_rank(np.array(a, dtype=float)) == k:
                break
        a = [[int(x) for x in row] for row in a]
        ker = intmat.kernel_rows(a)
        assert len(ker) == n - k and intmat.row_rank(ker) == n - k
        assert all(sum(x * y for x, y in zip(r, v)) == 0
                   for r in a for v in ker)
        assert intmat.saturation(ker)[1] == 1
        # in Z^n a primitive subgroup and its orthogonal complement have
        # the same covolume
        sat, _ = intmat.saturation(a)
        assert integer_gram_det(ker) == integer_gram_det(sat)


def test_kernel_rows_rejects_dependent_rows():
    with pytest.raises(ValueError):
        intmat.kernel_rows([[1, 2, 3], [2, 4, 6]])


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
def test_complete_primitive_row(vec):
    g = 0
    for v in vec:
        g = math.gcd(g, v)
    if g != 1:
        vec = vec + [1]  # force primitivity
    w = intmat.complete_primitive_row(vec)
    assert w[0] == [int(v) for v in vec]
    assert intmat.bareiss_det(w) in (1, -1)


def test_complete_primitive_rejects_imprimitive():
    with pytest.raises(ValueError):
        intmat.complete_primitive_row([2, 4])


@given(st.integers(1, 5).flatmap(square))
@example([[0]])
@example([[1, 2], [2, 4]])
@settings(max_examples=60)
def test_adjugate_identity(rows):
    n = len(rows)
    if intmat.bareiss_det(rows) == 0:
        with pytest.raises(ValueError, match="singular"):
            intmat.adjugate(rows)
        return
    adj, det = intmat.adjugate(rows)
    assert det == intmat.bareiss_det(rows)
    prod = intmat.matmul(rows, adj)
    assert prod == [[det if i == j else 0 for j in range(n)]
                    for i in range(n)]


def test_row_rank():
    assert intmat.row_rank([[1, 2], [2, 4]]) == 1
    assert intmat.row_rank([[1, 0], [0, 1]]) == 2
    assert intmat.row_rank([[0, 0]]) == 0
