import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurrent import ratlin
from hypercurrent.complex_core import gap_complex, sphere_complex
from hypercurrent.ratlin import QMat

import row_kernel


def rand_mat(rng, m, n, lo=-4, hi=4):
    return QMat.from_rows([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)], (m, n))


def test_rref_identity():
    a = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    r, piv = row_kernel.rref(a)
    assert r == a and piv == [0, 1, 2]
    r, piv = ratlin.rref(QMat.identity(3))
    assert r == QMat.identity(3) and piv == [0, 1, 2]


def test_rank_and_nullspace_consistency():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_mat(rng, m, n)
        r = ratlin.rank(a)
        ns = ratlin.nullspace(a)
        assert r + ns.shape[1] == n
        assert (a @ ns).is_zero()


def test_solve_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_mat(rng, m, n)
        x = QMat.from_rows([[rng.randint(-3, 3)] for _ in range(n)], (n, 1))
        b = a @ x
        sol = ratlin.solve_matrix(a, b)
        assert sol is not None and sol.shape == (n, 1)
        assert a @ sol == b


def test_solve_inconsistent():
    a = QMat.from_rows([[1], [1]], (2, 1))
    assert ratlin.solve_matrix(a, QMat.from_rows([[0], [1]], (2, 1))) is None


def test_pinv_penrose_identities():
    rng = random.Random(11)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_mat(rng, m, n)
        ap = ratlin.pinv(a)
        assert a @ ap @ a == a
        assert ap @ a @ ap == ap
        aap = a @ ap
        apa = ap @ a
        assert aap == aap.T
        assert apa == apa.T


def test_column_echelon_basis_is_canonical():
    a = QMat.from_rows([[2, 4], [-2, -4]], (2, 2))
    b = ratlin.column_echelon_basis(a)
    assert b == QMat.from_rows([[1], [-1]], (2, 1))


def test_left_inverse():
    a = QMat.from_rows([[0], [3]], (2, 1))
    li = ratlin.left_inverse(a)
    assert li @ a == QMat.identity(1)


def test_pivot_left_inverse():
    rng = random.Random(13)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_mat(rng, m, n, -2, 2)
        pivots, inv = ratlin.pivot_left_inverse(a)
        assert pivots == ratlin.rref(a)[1]
        assert inv @ a[:, pivots] == QMat.identity(len(pivots))
    with pytest.raises(ValueError):
        ratlin.left_inverse(QMat.from_rows([[1, 2], [2, 4]], (2, 2)))


def test_empty_shapes_survive_elimination():
    # what the explicit shape of a float copy used to carry
    injective = QMat.from_rows([[1, 0], [0, 2], [1, 1]], (3, 2))
    assert ratlin.nullspace(injective).shape == (2, 0)
    assert ratlin.pinv(QMat.zeros(3, 0)).shape == (0, 3)
    assert ratlin.pinv(QMat.zeros(3, 0)).to_float().shape == (0, 3)
    h = gap_complex(sphere_complex(2), 0, 2).homology[1]
    assert h.betti == 0 and h.hbasis.shape == (2, 0)
    assert h.hbasis.to_float().shape == (2, 0)


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
    a = QMat.from_rows(mat, (len(mat), len(mat[0])))
    diag, u, v = ratlin.smith_normal_form(a)
    assert diag == expected_diag
    assert ratlin.torsion_order(a) == expected_tau


def test_smith_divisibility_and_transform():
    rng = random.Random(19)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_mat(rng, m, n, -5, 5)
        diag, u, v = ratlin.smith_normal_form(a)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        uav = u @ a @ v
        for i, row in enumerate(uav.to_rows()):
            for j, val in enumerate(row):
                if i == j and i < len(diag):
                    assert val == diag[i]
                else:
                    assert val == 0


def test_integer_kernel_basis():
    k = ratlin.integer_kernel_basis(QMat.from_rows([[2, 3]], (1, 2)))
    assert k.shape == (2, 1)
    x = [int(v) for (v,) in k.to_rows()]
    assert 2 * x[0] + 3 * x[1] == 0
    # primitive: gcd of entries is 1
    assert math.gcd(x[0], x[1]) == 1


def test_integer_kernel_of_zero_map():
    k = ratlin.integer_kernel_basis(QMat.zeros(1, 2))
    assert k.shape == (2, 2)


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


def list_zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def list_product(a, b, shape):
    """The oracle's matmul, with empty factors giving a zero of the right shape."""
    m, n = shape
    if 0 in (m, n) or not a or not a[0]:
        return list_zeros(m, n)
    return row_kernel.matmul(a, b)


def list_combine(a, b, sign):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def list_scale(a, c):
    return [[Fraction(c) * x for x in row] for row in a]


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
    assert q.is_zero() == all(x == 0 for row in rows for x in row)
    assert q.T.shape == shape[::-1]
    assert q.T.to_rows() == [[rows[i][j] for i in range(shape[0])] for j in range(shape[1])]
    # indexing: entries, submatrices, and rows and columns as vectors,
    # one-column QMats
    assert all(q[i, j] == rows[i][j] for i in range(shape[0]) for j in range(shape[1]))
    assert all(q[:, j] == q[:, j:j + 1] for j in range(shape[1]))
    assert all(q[i] == q[i:i + 1].T for i in range(shape[0]))
    assert [q[:, j].T.to_rows()[0] for j in range(shape[1])] == q.T.to_rows()
    half = shape[1] // 2
    sub = q[:, half:]
    assert sub.to_rows() == [row[half:] for row in rows] and canonical(sub)


@settings(max_examples=60, deadline=None)
@given(dims, dims, dims, st.data())
def test_qmat_product_matches_lists(m, k, n, data):
    a = data.draw(fraction_rows(m, k))
    b = data.draw(fraction_rows(k, n))
    prod = QMat.from_rows(a, (m, k)) @ QMat.from_rows(b, (k, n))
    assert prod.shape == (m, n)
    assert prod.to_rows() == list_product(a, b, (m, n))
    assert canonical(prod)


@st.composite
def elimination_inputs(draw):
    """Rational matrices up to 5 x 6, empty ones, and products that drop rank."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    if not draw(st.booleans()):
        return draw(qmat_rows(m, n))
    k = draw(st.integers(1, 3))
    left, _ = draw(qmat_rows(m, k))
    right, _ = draw(qmat_rows(k, n))
    return list_product(left, right, (m, n)), (m, n)


@settings(max_examples=150, deadline=None)
@given(st.one_of(elimination_inputs(), qmat_rows(m=0), qmat_rows(n=0)))
def test_rref_matches_fraction_oracle(ab):
    rows, shape = ab
    r, pivots = ratlin.rref(QMat.from_rows(rows, shape))
    expected, expected_pivots = row_kernel.rref(rows)
    assert r.shape == shape and canonical(r)
    assert pivots == expected_pivots
    assert r.to_rows() == expected


@settings(max_examples=60, deadline=None)
@given(qmat_rows(), st.data())
def test_qmat_sum_difference_scale_match_lists(ab, data):
    a, shape = ab
    b = data.draw(fraction_rows(*shape))
    c = data.draw(st.one_of(st.integers(-4, 4), fractions_))
    qa, qb = QMat.from_rows(a, shape), QMat.from_rows(b, shape)
    for q, expected in ((qa + qb, list_combine(a, b, 1)), (qa - qb, list_combine(a, b, -1)),
                        (qa * c, list_scale(a, c)), (c * qa, list_scale(a, c)),
                        (-qa, list_scale(a, -1))):
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
    assert a @ QMat.zeros(k, 1) == QMat.zeros(m, 1)


@pytest.mark.parametrize("shape, entries", [((2, 5), 10), ((4, 11), 44), ((0, 0), 0),
                                            ((0, 3), 0), ((3, 0), 0)])
def test_qmat_length_is_row_count(shape, entries):
    a = QMat.zeros(*shape)
    assert len(a) == a.shape[0]
    # how a caller that knows only row lists sizes a matrix
    assert (len(a) * len(a[0]) if a and a[0] else 0) == entries


def test_qmat_shape_mismatch_raises():
    a, b = QMat.zeros(2, 3), QMat.zeros(2, 2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ b


def test_qmat_against_floats_and_vectors():
    # a float array meets an exact matrix only through its float copy
    q = QMat.from_rows([[Fraction(1, 3), 2], [0, Fraction(-1, 2)]], (2, 2))
    f = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(q.to_float(), [[1 / 3, 2.0], [0.0, -0.5]])
    for op in (lambda: f @ q, lambda: f - q):
        with pytest.raises(TypeError):
            op()
    assert q @ QMat.from_rows([[3], [2]], (2, 1)) == QMat.from_rows([[5], [Fraction(-1)]], (2, 1))


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.matmul])
@pytest.mark.parametrize("other", [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0]), 1,
                                   Fraction(1, 2), [Fraction(3), Fraction(2)]],
                         ids=["matrix", "vector", "int", "fraction", "list"])
def test_qmat_rejects_an_operand_that_is_not_a_qmat(op, other):
    # with the QMat on the left as well as on the right
    q = QMat.from_rows([[Fraction(1, 3), 2], [0, Fraction(-1, 2)]], (2, 2))
    for left, right in ((q, other), (other, q)):
        with pytest.raises(TypeError):
            op(left, right)
