"""Exact linear algebra over the rationals and the integers.

Every matrix is a ``QMat``: a numpy object array of Python ints over one
positive common denominator, kept in lowest terms, with an explicit
shape that empty matrices keep.  Products (``matmul``, which ``@``
calls), sums, transposes and slices are numpy operations on the
integers, and ``==`` compares structure.  ``to_rows`` gives rows of
Fractions where a report is written and ``to_float`` the float copy the
analytical route reads.

Elimination is ``rref``: fraction-free Gauss-Jordan on the integer
numerators, scanning columns left to right in the given order, so
downstream basis choices are reproducible.  The functions around it
(``rank``, ``nullspace``, ``pinv``, ``solve_matrix``,
``pivot_left_inverse`` and the others) read the reduced form's
numerators and denominator directly; a ``kept`` matrix stores them for
its holders, and a zero matrix is not eliminated.  The one left-inverse
construction is ``pivot_left_inverse``: a single elimination of
``[a | I]`` gives a's pivot columns and a left inverse on them, which is
how each homology degree gets its class map.  ``pinv`` is the one
orthogonal-projector route: ``a @ pinv(a)`` projects onto a's columns.

Smith normal form runs on Python ints.  ``torsion_order`` reads one
Smith form, of the matrix whose cokernel it measures; the kernel lattice
of ``integer_kernel_basis`` is there for callers that need the lattice
itself.
"""

import math
from fractions import Fraction

import numpy as np


class QMat:
    """Exact rational matrix: integer numerators over one denominator.

    ``num`` is a 2-d numpy object array of Python ints and ``den`` a
    positive int with gcd(den, *num) == 1, so zero has den == 1 and
    equal matrices have equal fields.  Instances are treated as
    read-only.
    """

    __slots__ = ("num", "den", "_memo")
    __array_ufunc__ = None   # an ndarray operand raises TypeError; to_float() is the float copy
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

    @property
    def shape(self):
        return self.num.shape

    def __len__(self):
        """Row count, as for an ndarray."""
        return self.num.shape[0]

    @property
    def T(self):
        return QMat._raw(self.num.T, self.den)

    def __getitem__(self, key):
        """numpy indexing: an entry is a Fraction and any other result a
        QMat; a row or a column comes back as a vector, a one-column QMat."""
        num = self.num[key]
        if not isinstance(num, np.ndarray):
            return Fraction(num, self.den)
        return QMat(num[:, None] if num.ndim == 1 else num, self.den)

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
        """Product with a QMat; any other operand raises TypeError."""
        return matmul(self, other) if isinstance(other, QMat) else NotImplemented

    def _combine(self, other, sign):
        if not isinstance(other, QMat):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        if self.den == other.den:
            return QMat(self.num + sign * other.num, self.den)
        den = math.lcm(self.den, other.den)
        return QMat(self.num * (den // self.den) + sign * (den // other.den) * other.num, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

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


def matmul(a, b):
    """Product of two QMats; ``a @ b`` between QMats calls it."""
    return QMat(a.num @ b.num, a.den * b.den)


# ---------------------------------------------------------------------------
# Elimination on QMat


def rref(a):
    """Reduced row echelon form; returns (R, pivot_columns), R a QMat of a's
    shape.

    Fraction-free Gauss-Jordan on the numerators (Bareiss, Math. Comp. 22
    (1968)): the pivot of each column is the first nonzero entry at or
    below the current row, every other row becomes (p * row - c * pivot
    row) / d, an exact division by the previous pivot d, and every pivot
    entry ends equal to the last pivot, so R is the integer matrix over it.
    """
    m, n = a.shape
    rows = a.num.tolist()
    pivots = []
    d = 1
    for j in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[j]
        for i, row in enumerate(rows):
            if i == r:
                continue
            c = row[j]
            if c:
                rows[i] = [(p * x - c * y) // d for x, y in zip(row, top)]
            elif p != d:
                rows[i] = [p * x // d for x in row]
        d = p
        pivots.append(j)
    num = np.array(rows, dtype=object).reshape(m, n)
    return (QMat(num, d) if d > 0 else QMat(-num, -d)), pivots


def kept(a):
    """a as a new QMat that stores its reduced form, column basis and
    pseudoinverse when first computed, for every later call on it."""
    out = QMat._raw(a.num, a.den)
    out._memo = {}
    return out


def _once(a, key, make):
    memo = getattr(a, "_memo", None)
    return make() if memo is None else memo[key] if key in memo else memo.setdefault(key, make())


def _reduced(a):
    """rref(a), once per kept matrix; a zero matrix is its own."""
    if not a.num.any():
        return QMat.zeros(*a.shape), []
    return _once(a, "rref", lambda: rref(a))


def rank(a):
    return len(_reduced(a)[1])


def nullspace(a):
    """Canonical kernel basis, one column per free variable (n x k)."""
    n = a.shape[1]
    r, pivots = _reduced(a)
    free = [j for j in range(n) if j not in pivots]
    num = np.zeros((n, len(free)), dtype=object)
    num[free, range(len(free))] = r.den
    num[pivots] = -r.num[: len(pivots)][:, free]
    return QMat(num, r.den)


def column_echelon_basis(a):
    """Canonical basis of the column space (reduced column echelon form)."""
    r, pivots = _once(a, "columns", lambda: _reduced(a.T))
    return r[: len(pivots)].T


def solve_matrix(a, b):
    """X with a X = b, columnwise (free variables zero); None if any column
    is inconsistent."""
    n, k = a.shape[1], b.shape[1]
    r, pivots = rref(hstack(a, b))
    if pivots and pivots[-1] >= n:
        return None
    num = np.zeros((n, k), dtype=object)
    num[pivots] = r.num[: len(pivots), n:]
    return QMat(num, r.den)


def inverse(a):
    m, n = a.shape
    if m != n:
        raise ValueError("inverse of non-square matrix")
    r, pivots = rref(hstack(a, QMat.identity(n)))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return r[:, n:]


def pinv(a):
    """Moore-Penrose pseudoinverse, exact, in the standard inner product.

    Uses the full-rank factorization a = C F with C the pivot columns and
    F the pivot rows of rref(a), the identity when all columns are pivots.
    """
    return _once(a, "pinv", lambda: _pinv(a))


def _pinv(a):
    m, n = a.shape
    r, pivots = _reduced(a)
    if not pivots:
        return QMat.zeros(n, m)
    c, f = a[:, pivots], r[: len(pivots)]
    left = inverse(c.T @ c) @ c.T
    return left if len(pivots) == n else (f.T @ inverse(f @ f.T)) @ left


def pivot_left_inverse(a):
    """(pivots, L): a's pivot columns, in the given column order, and a left
    inverse L of a[:, pivots], from one elimination of [a | I].

    The rows of the reduced identity block at the pivot rows are L: the
    elimination makes them send each pivot column to its unit vector.
    """
    m, n = a.shape
    r, pivots = rref(hstack(a, QMat.identity(m)))
    pivots = [j for j in pivots if j < n]
    return pivots, r[: len(pivots), n:]


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
