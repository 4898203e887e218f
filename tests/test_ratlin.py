import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurrent import ratlin
from hypercurrent.ratlin import QMat


def rand_mat(rng, m, n, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(m)]


def test_rref_identity():
    a = ratlin.identity(3)
    r, piv = ratlin.rref(a)
    assert r == a and piv == [0, 1, 2]


def test_rank_and_nullspace_consistency():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_mat(rng, m, n)
        r = ratlin.rank(a)
        ns = ratlin.nullspace(a)
        assert r + (len(ns[0]) if ns else 0) == n
        if ns and ns[0]:
            prod = ratlin.matmul(a, ns)
            assert ratlin.is_zero(prod)


def test_solve_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_mat(rng, m, n)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = ratlin.matvec(a, x)
        sol = ratlin.solve(a, b)
        assert sol is not None
        assert ratlin.matvec(a, sol) == b


def test_solve_inconsistent():
    a = [[Fraction(1)], [Fraction(1)]]
    assert ratlin.solve(a, [Fraction(0), Fraction(1)]) is None


def test_pinv_penrose_identities():
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_mat(rng, m, n)
        ap = ratlin.pinv(a)
        assert ratlin.eq(ratlin.matmul(ratlin.matmul(a, ap), a), a)
        assert ratlin.eq(ratlin.matmul(ratlin.matmul(ap, a), ap), ap)
        aap = ratlin.matmul(a, ap)
        apa = ratlin.matmul(ap, a)
        assert ratlin.eq(aap, ratlin.transpose(aap))
        assert ratlin.eq(apa, ratlin.transpose(apa))


def test_projector_idempotent_and_symmetric():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_mat(rng, 4, rng.randint(1, 4))
        p = ratlin.projector_onto_columns(a)
        assert ratlin.eq(ratlin.matmul(p, p), p)
        assert ratlin.eq(p, ratlin.transpose(p))
        assert ratlin.eq(ratlin.matmul(p, a), a)


def test_column_echelon_basis_is_canonical():
    a = [[Fraction(2), Fraction(4)], [Fraction(-2), Fraction(-4)]]
    b = ratlin.column_echelon_basis(a)
    assert b == [[Fraction(1)], [Fraction(-1)]]


def test_left_inverse():
    a = [[Fraction(0)], [Fraction(3)]]
    li = ratlin.left_inverse(a)
    assert ratlin.matmul(li, a) == ratlin.identity(1)


@pytest.mark.parametrize(
    "mat,expected_diag,expected_tau",
    [
        ([[2]], [2], 2),
        ([[1, 0], [0, 3]], [1, 3], 3),
        ([[2, 0], [0, 2]], [2, 2], 4),
        ([[0]], [], 1),
    ],
)
def test_smith_normal_form_small(mat, expected_diag, expected_tau):
    diag, u, v = ratlin.smith_normal_form(mat)
    assert diag == expected_diag
    assert ratlin.torsion_order(mat) == expected_tau


def test_smith_divisibility_and_transform():
    rng = random.Random(19)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        diag, u, v = ratlin.smith_normal_form(a)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        ua = ratlin.matmul(ratlin.from_rows(u), ratlin.from_rows(a))
        uav = ratlin.matmul(ua, ratlin.from_rows(v))
        for i, row in enumerate(uav):
            for j, val in enumerate(row):
                if i == j and i < len(diag):
                    assert val == diag[i]
                else:
                    assert val == 0


def test_integer_kernel_basis():
    a = [[2, 3]]
    k = ratlin.integer_kernel_basis(a)
    assert len(k) == 1
    x = k[0]
    assert 2 * x[0] + 3 * x[1] == 0
    # primitive: gcd of entries is 1
    assert math.gcd(x[0], x[1]) == 1


def test_integer_kernel_of_zero_map():
    k = ratlin.integer_kernel_basis([[0, 0]])
    assert len(k) == 2


# --- QMat against the Fraction-list operations ------------------------------------

fractions_ = st.fractions(min_value=-6, max_value=6, max_denominator=6)
dims = st.integers(0, 3)


def fraction_rows(m, n):
    return st.lists(st.lists(fractions_, min_size=n, max_size=n), min_size=m, max_size=m)


@st.composite
def qmat_rows(draw, m=None, n=None):
    m = draw(dims) if m is None else m
    n = draw(dims) if n is None else n
    return draw(fraction_rows(m, n)), (m, n)


def list_product(a, b, shape):
    """ratlin.matmul, with empty factors giving a zero of the right shape."""
    m, n = shape
    if 0 in (m, n) or not a or not a[0]:
        return ratlin.zeros(m, n)
    return ratlin.matmul(a, b)


def canonical(q):
    return q.den > 0 and math.gcd(q.den, *q.num.flat) == 1 and (not q.is_zero() or q.den == 1)


@settings(max_examples=60, deadline=None)
@given(qmat_rows())
def test_qmat_roundtrip_and_canonical_form(ab):
    rows, shape = ab
    q = QMat.from_rows(rows, shape)
    assert q.shape == shape
    assert q.to_rows() == rows
    assert canonical(q)
    assert q.is_zero() == ratlin.is_zero(rows)
    assert q.T.shape == shape[::-1]
    assert q.T.to_rows() == [[rows[i][j] for i in range(shape[0])] for j in range(shape[1])]


@settings(max_examples=60, deadline=None)
@given(dims, dims, dims, st.data())
def test_qmat_product_matches_lists(m, k, n, data):
    a = data.draw(fraction_rows(m, k))
    b = data.draw(fraction_rows(k, n))
    prod = QMat.from_rows(a, (m, k)) @ QMat.from_rows(b, (k, n))
    assert prod.shape == (m, n)
    assert prod.to_rows() == list_product(a, b, (m, n))
    assert canonical(prod)


@settings(max_examples=60, deadline=None)
@given(qmat_rows(), st.data())
def test_qmat_sum_difference_scale_match_lists(ab, data):
    a, shape = ab
    b = data.draw(fraction_rows(*shape))
    c = data.draw(st.one_of(st.integers(-4, 4), fractions_))
    qa, qb = QMat.from_rows(a, shape), QMat.from_rows(b, shape)
    for q, expected in ((qa + qb, ratlin.add(a, b)), (qa - qb, ratlin.sub(a, b)),
                        (qa * c, ratlin.scale(a, c)), (c * qa, ratlin.scale(a, c)),
                        (-qa, ratlin.scale(a, -1))):
        assert q.shape == shape
        assert q.to_rows() == expected
        assert canonical(q)


@settings(max_examples=60, deadline=None)
@given(qmat_rows(), st.data())
def test_qmat_equality_is_value_equality(ab, data):
    a, shape = ab
    b = data.draw(fraction_rows(*shape))
    qa, qb = QMat.from_rows(a, shape), QMat.from_rows(b, shape)
    assert (qa == qb) == (a == b)
    # the same values over an unreduced denominator normalize to equal fields
    assert QMat(qa.num * 6, qa.den * 6) == qa
    assert qa != QMat.zeros(shape[1] + 1, shape[0])


def test_qmat_zero_has_denominator_one():
    half = QMat.from_rows([[Fraction(1, 2), Fraction(-3, 2)]], (1, 2))
    assert half.den == 2
    zero = half - half
    assert zero.is_zero() and zero.den == 1 and zero == QMat.zeros(1, 2)
    assert (half * 0).den == 1
    assert (half * 2).den == 1 and (half * 2).to_rows() == [[Fraction(1), Fraction(-3)]]


@pytest.mark.parametrize("m, k, n", [(2, 0, 3), (0, 2, 3), (2, 3, 0), (0, 0, 0)])
def test_qmat_empty_shapes(m, k, n):
    a, b = QMat.zeros(m, k), QMat.zeros(k, n)
    prod = a @ b
    assert prod.shape == (m, n) and prod.is_zero() and prod == QMat.zeros(m, n)
    assert (a + a).shape == (m, k) and (a - a) == a and (a * Fraction(3, 2)) == a
    assert a.T.shape == (k, m)
    assert QMat.from_rows(a.to_rows(), (m, k)) == a
    assert a @ ([Fraction(0)] * k) == [Fraction(0)] * m


def test_qmat_shape_mismatch_raises():
    a, b = QMat.zeros(2, 3), QMat.zeros(2, 2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ b


def test_qmat_against_floats_and_vectors():
    q = QMat.from_rows([[Fraction(1, 3), 2], [0, Fraction(-1, 2)]], (2, 2))
    f = np.array([[1.0, 2.0], [3.0, 4.0]])
    qf = np.array([[1 / 3, 2.0], [0.0, -0.5]])
    assert np.array_equal(q @ f, qf @ f)
    assert np.array_equal(f @ q, f @ qf)
    assert np.array_equal(q - f, qf - f) and np.array_equal(f - q, f - qf)
    assert np.array_equal(q + f, qf + f)
    assert q @ [Fraction(3), Fraction(2)] == [Fraction(5), Fraction(-1)]
    assert np.asarray(q).tolist() == q.to_rows()
