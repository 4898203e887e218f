"""Exact linear algebra over the rationals and the integers.

Every matrix is a ``QMat``: a numpy object array of Python ints over one
positive common denominator, kept in lowest terms, with an explicit
shape that empty matrices keep.  Products, sums, transposes and slices
are numpy operations on the integers, and ``==`` compares structure.
``to_rows`` gives rows of Fractions where a report is written and
``to_float`` the float copy the analytical route reads.

The elimination functions (``rank``, ``nullspace``, ``pinv``,
``solve_matrix``, ``pivot_left_inverse`` and the ones around them) take
and return QMat.  ``pivot_left_inverse`` is the one left-inverse
construction: a single elimination of ``[a | I]`` gives a's pivot
columns and a left inverse on them, which is how each homology degree
gets its class map.  Inside, the functions run on a row kernel of plain
lists of ``fractions.Fraction``: ``rref``, whose echelon forms scan
columns left to right in the given order, so downstream basis choices
are reproducible, and ``matmul``.

Smith normal form runs on Python ints.
"""

import math
from fractions import Fraction

import numpy as np


class QMat:
    """Exact rational matrix: integer numerators over one denominator.

    ``num`` is a 2-d numpy object array of Python ints and ``den`` a
    positive int with gcd(den, *num) == 1, so zero has den == 1 and
    equal matrices have equal fields.  Instances are treated as
    read-only.  Against a float array an exact matrix acts as its float
    value, as an int would.
    """

    __slots__ = ("num", "den")
    __array_ufunc__ = None   # ndarray operands defer to the reflected methods
    __hash__ = None

    def __init__(self, num, den=1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        if den != 1:
            g = math.gcd(den, *num.flat)
            if g != 1:
                num, den = num // g, den // g
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num, den):
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    @classmethod
    def zeros(cls, m, n):
        return cls._raw(np.zeros((m, n), dtype=object), 1)

    @classmethod
    def identity(cls, n):
        num = np.zeros((n, n), dtype=object)
        num.flat[:: n + 1] = 1
        return cls._raw(num, 1)

    @classmethod
    def from_rows(cls, rows, shape):
        """From a list of rows of rationals (ints, Fractions) of the given
        shape, which empty matrices keep."""
        den = math.lcm(1, *(x.denominator for row in rows for x in row))
        num = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
        return cls(np.array(num, dtype=object).reshape(shape), den)

    def to_rows(self):
        """Row-major lists of Fractions."""
        den = self.den
        if den == 1:
            return [[Fraction(x) for x in row] for row in self.num.tolist()]
        return [[Fraction(x, den) for x in row] for row in self.num.tolist()]

    def to_float(self):
        """Float copy of the same shape, each entry correctly rounded."""
        return (self.num / self.den).astype(float)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.to_rows(), dtype=object).reshape(self.shape).astype(dtype or object)

    @property
    def shape(self):
        return self.num.shape

    @property
    def T(self):
        return QMat._raw(self.num.T, self.den)

    def __getitem__(self, key):
        """numpy indexing: a 2-d result is a QMat, a row or column a list
        of Fractions, an entry a Fraction."""
        num = self.num[key]
        if not isinstance(num, np.ndarray):
            return Fraction(num, self.den)
        if num.ndim == 2:
            return QMat(num, self.den)
        return [Fraction(x, self.den) for x in num.tolist()]

    def is_zero(self):
        return not self.num.any()

    def __eq__(self, other):
        if not isinstance(other, QMat):
            return NotImplemented
        return self.den == other.den and self.shape == other.shape \
            and bool((self.num == other.num).all())

    def __repr__(self):
        return f"QMat({self.num.tolist()!r}, {self.den})"

    def __matmul__(self, other):
        """Product with a QMat, a float array, or a vector of rationals (a
        list of Fractions comes back)."""
        if isinstance(other, QMat):
            return QMat(self.num @ other.num, self.den * other.den)
        if isinstance(other, np.ndarray):
            return self.to_float() @ other
        vec = list(other)
        den = math.lcm(1, *(x.denominator for x in vec))
        col = np.array([x.numerator * (den // x.denominator) for x in vec], dtype=object)
        return [Fraction(v, self.den * den) for v in (self.num @ col).tolist()]

    def __rmatmul__(self, other):
        if isinstance(other, np.ndarray):
            return other @ self.to_float()
        return NotImplemented

    def _combine(self, other, sign):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        if self.den == other.den:
            return QMat(self.num + sign * other.num, self.den)
        den = math.lcm(self.den, other.den)
        return QMat(self.num * (den // self.den) + sign * (den // other.den) * other.num, den)

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return self.to_float() + other
        return self._combine(other, 1)

    def __sub__(self, other):
        if isinstance(other, np.ndarray):
            return self.to_float() - other
        return self._combine(other, -1)

    def __radd__(self, other):
        if isinstance(other, np.ndarray):
            return other + self.to_float()
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, np.ndarray):
            return other - self.to_float()
        return NotImplemented

    def __neg__(self):
        return QMat._raw(-self.num, self.den)

    def __mul__(self, c):
        """Multiply by an int or a Fraction."""
        if c == 1:
            return self
        if c == -1:
            return -self
        c = Fraction(c)
        return QMat(self.num * c.numerator, self.den * c.denominator)

    __rmul__ = __mul__


def hstack(*mats):
    """Matrices with one row count, side by side."""
    den = math.lcm(*(m.den for m in mats))
    return QMat(np.concatenate([m.num * (den // m.den) for m in mats], axis=1), den)


# ---------------------------------------------------------------------------
# Row kernel: lists of Fraction rows


def _transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    """Product of two nonempty Fraction row matrices."""
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    bt = _transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def rref(a):
    """Row-reduced echelon form of Fraction rows; returns (R, pivot_columns)."""
    r = [row[:] for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    row = 0
    for j in range(n):
        if row >= m:
            break
        piv = None
        for i in range(row, m):
            if r[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        f = r[row][j]
        r[row] = [x / f for x in r[row]]
        for i in range(m):
            if i != row and r[i][j] != 0:
                g = r[i][j]
                r[i] = [x - g * y for x, y in zip(r[i], r[row])]
        pivots.append(j)
        row += 1
    return r, pivots


def _inverse(a):
    """Inverse of a square matrix of Fraction rows."""
    n = len(a)
    r, pivots = rref([row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


# ---------------------------------------------------------------------------
# Elimination on QMat


def rank(a):
    return len(rref(a.to_rows())[1])


def nullspace(a):
    """Canonical kernel basis, one column per free variable (n x k)."""
    n = a.shape[1]
    r, pivots = rref(a.to_rows())
    free = [j for j in range(n) if j not in pivots]
    basis = [[Fraction(0)] * len(free) for _ in range(n)]
    for k, f in enumerate(free):
        basis[f][k] = Fraction(1)
        for i, p in enumerate(pivots):
            basis[p][k] = -r[i][f]
    return QMat.from_rows(basis, (n, len(free)))


def column_space_pivots(a):
    """Indices of a's pivot columns, in the given column order."""
    return rref(a.to_rows())[1]


def column_echelon_basis(a):
    """Canonical basis of the column space (reduced column echelon form)."""
    r, pivots = rref(a.T.to_rows())
    return QMat.from_rows(r[: len(pivots)], (len(pivots), a.shape[0])).T


def solve_matrix(a, b):
    """X with a X = b, columnwise (free variables zero); None if any column
    is inconsistent."""
    n, k = a.shape[1], b.shape[1]
    r, pivots = rref([ra + rb for ra, rb in zip(a.to_rows(), b.to_rows())])
    if pivots and pivots[-1] >= n:
        return None
    x = [[Fraction(0)] * k for _ in range(n)]
    for i, p in enumerate(pivots):
        x[p] = r[i][n:]
    return QMat.from_rows(x, (n, k))


def inverse(a):
    m, n = a.shape
    if m != n:
        raise ValueError("inverse of non-square matrix")
    return QMat.from_rows(_inverse(a.to_rows()), (n, n))


def pinv(a):
    """Moore-Penrose pseudoinverse, exact, in the standard inner product.

    Uses the full-rank factorization a = C F with C the pivot columns and
    F the pivot rows of rref(a).
    """
    m, n = a.shape
    rows = a.to_rows()
    r, pivots = rref(rows)
    if not pivots:
        return QMat.zeros(n, m)
    c = [[row[j] for j in pivots] for row in rows]
    f = r[: len(pivots)]
    ct, ft = _transpose(c), _transpose(f)
    left = matmul(ft, _inverse(matmul(f, ft)))
    right = matmul(_inverse(matmul(ct, c)), ct)
    return QMat.from_rows(matmul(left, right), (n, m))


def projector_onto_columns(a):
    """Orthogonal projection onto the column space (standard inner product)."""
    basis = a[:, column_space_pivots(a)]
    return basis @ inverse(basis.T @ basis) @ basis.T


def pivot_left_inverse(a):
    """(pivots, L): a's pivot columns, in the given column order, and a left
    inverse L of a[:, pivots], from one elimination of [a | I].

    The rows of the reduced identity block at the pivot rows are L: the
    elimination makes them send each pivot column to its unit vector.
    """
    m, n = a.shape
    r, pivots = rref([row + [Fraction(int(i == j)) for j in range(m)]
                      for i, row in enumerate(a.to_rows())])
    pivots = [j for j in pivots if j < n]
    k = len(pivots)
    return pivots, QMat.from_rows([row[n:] for row in r[:k]], (k, m))


def left_inverse(a):
    """A deterministic left inverse of an injective matrix."""
    pivots, inv = pivot_left_inverse(a)
    if len(pivots) != a.shape[1]:
        raise ValueError("matrix is not injective")
    return inv


# ---------------------------------------------------------------------------
# Integer normal forms


def smith_normal_form(a):
    """Diagonal invariant factors d_1 | d_2 | ... of an integer QMat.

    Returns (diagonal, U, V) with U a V = diag embedded in the same shape,
    U and V unimodular QMats.
    """
    if a.den != 1:
        raise ValueError("Smith normal form of a non-integer matrix")
    rows, ncols = a.shape
    m = a.num.tolist()
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in m:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    limit = min(rows, ncols)
    while t < limit:
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                q = m[i][t] // m[t][t]
                add_row(t, i, -q)
                if m[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if m[t][j] != 0:
                q = m[t][j] // m[t][t]
                add_col(t, j, -q)
                if m[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        rem = next(
            ((i, j) for i in range(t + 1, rows) for j in range(t + 1, ncols) if m[i][j] % m[t][t] != 0),
            None,
        )
        if rem is not None:
            add_row(rem[0], t, 1)
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    diag = [m[i][i] for i in range(limit) if m[i][i] != 0]
    u, v = (QMat(np.array(w, dtype=object).reshape(k, k)) for w, k in ((u, rows), (v, ncols)))
    return diag, u, v


def torsion_order(a):
    """Order of the torsion subgroup of coker(a) for an integer QMat a."""
    return math.prod(abs(d) for d in smith_normal_form(a)[0])


def integer_kernel_basis(a):
    """Z-basis of the integer kernel lattice {x : a x = 0} of an integer
    QMat, one column per basis vector, via SNF."""
    diag, _, v = smith_normal_form(a)
    return v[:, len(diag):]
