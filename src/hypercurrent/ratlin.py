"""Exact linear algebra over the rationals and the integers.

Two representations, one per job:

- Elimination (``rref``, ``nullspace``, ``pinv``, ``solve`` and the
  helpers around them) runs on plain row-major lists of lists of
  ``fractions.Fraction``.  Echelon forms scan columns left to right in
  the given order, so downstream basis choices are reproducible.
- Operators (boundaries as the lift reads them, tree contractions, lift
  values, cochain blocks) are ``QMat``: a numpy object array of Python
  ints over one positive common denominator, kept in lowest terms.
  Products, sums and transposes are numpy operations on the integers,
  and ``==`` compares structure.  Elimination results are converted
  once, with ``QMat.from_rows``; ``to_rows`` converts back at report
  boundaries.

Smith normal form runs on Python ints.
"""

import math
from fractions import Fraction

import numpy as np

Mat = list  # list[list[Fraction]], row-major


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
        return cls._raw(np.identity(n, dtype=object), 1)

    @classmethod
    def from_rows(cls, rows, shape):
        """From rows of numbers (Fractions, ints) of the given shape,
        which empty matrices keep."""
        fr = [[Fraction(x) for x in row] for row in rows]
        den = math.lcm(1, *(x.denominator for row in fr for x in row))
        num = [[x.numerator * (den // x.denominator) for x in row] for row in fr]
        return cls(np.array(num, dtype=object).reshape(shape), den)

    def to_rows(self):
        """Row-major lists of Fractions."""
        return [[Fraction(x, self.den) for x in row] for row in self.num.tolist()]

    def to_float(self):
        return (self.num / self.den).astype(float)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.to_rows(), dtype=object).reshape(self.shape).astype(dtype or object)

    @property
    def shape(self):
        return self.num.shape

    @property
    def T(self):
        return QMat._raw(self.num.T, self.den)

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
        """Product with a QMat, a float array, or a vector of numbers (a
        list of Fractions comes back)."""
        if isinstance(other, QMat):
            return QMat(self.num @ other.num, self.den * other.den)
        if isinstance(other, np.ndarray):
            return self.to_float() @ other
        col = self @ QMat.from_rows([[x] for x in other], (len(other), 1))
        return [row[0] for row in col.to_rows()]

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


def zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def from_rows(rows):
    """Copy arbitrary number entries into a Fraction matrix."""
    return [[Fraction(x) for x in row] for row in rows]


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def copy(a):
    return [row[:] for row in a]


def transpose(a):
    m, n = shape(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def matmul(a, b):
    m, k = shape(a)
    k2, n = shape(b)
    if k != k2:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def eq(a, b):
    return shape(a) == shape(b) and all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def col(a, j):
    return [row[j] for row in a]


def cols(a, js):
    return [[row[j] for j in js] for row in a]


def hstack(a, b):
    ma, na = shape(a)
    mb, nb = shape(b)
    if na == 0:
        return copy(b)
    if nb == 0:
        return copy(a)
    if ma != mb:
        raise ValueError("row count mismatch in hstack")
    return [ra + rb for ra, rb in zip(a, b)]


def rref(a):
    """Row-reduced echelon form; returns (R, pivot_columns)."""
    r = copy(a)
    m, n = shape(r)
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


def rank(a):
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a):
    """Canonical kernel basis, one column per free variable (n x k matrix)."""
    m, n = shape(a)
    if n == 0:
        return zeros(0, 0)
    r, pivots = rref(a)
    free = [j for j in range(n) if j not in pivots]
    basis = zeros(n, len(free))
    for k, f in enumerate(free):
        basis[f][k] = Fraction(1)
        for i, p in enumerate(pivots):
            basis[p][k] = -r[i][f]
    return basis


def column_space_pivots(a):
    """Indices of a's pivot columns, in the given column order."""
    return rref(a)[1]


def column_echelon_basis(a):
    """Canonical basis of the column space (reduced column echelon form)."""
    m, n = shape(a)
    if n == 0 or m == 0:
        return zeros(m, 0)
    r, pivots = rref(transpose(a))
    return transpose(r[: len(pivots)])


def solve(a, b):
    """One solution x of a x = b (free variables zero), or None."""
    m, n = shape(a)
    aug = hstack(a, [[x] for x in b])
    r, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = r[i][n]
    return x


def solve_matrix(a, b):
    """X with a X = b, columnwise; None if any column is inconsistent."""
    m, n = shape(a)
    mb, k = shape(b)
    out = zeros(n, k)
    for j in range(k):
        x = solve(a, col(b, j))
        if x is None:
            return None
        for i in range(n):
            out[i][j] = x[i]
    return out


def inverse(a):
    m, n = shape(a)
    if m != n:
        raise ValueError("inverse of non-square matrix")
    r, pivots = rref(hstack(a, identity(n)))
    if len(pivots) != n or pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def pinv(a):
    """Moore-Penrose pseudoinverse, exact, in the standard inner product.

    Uses the full-rank factorization a = C F with C the pivot columns and
    F the pivot rows of rref(a).
    """
    m, n = shape(a)
    if m == 0 or n == 0:
        return zeros(n, m)
    r, pivots = rref(a)
    if not pivots:
        return zeros(n, m)
    c = cols(a, pivots)
    f = r[: len(pivots)]
    ct, ft = transpose(c), transpose(f)
    left = matmul(ft, inverse(matmul(f, ft)))
    right = matmul(inverse(matmul(ct, c)), ct)
    return matmul(left, right)


def projector_onto_columns(a):
    """Orthogonal projection onto the column space (standard inner product)."""
    m, n = shape(a)
    basis = cols(a, column_space_pivots(a))
    if shape(basis)[1] == 0:
        return zeros(m, m)
    bt = transpose(basis)
    return matmul(matmul(basis, inverse(matmul(bt, basis))), bt)


def left_inverse(a):
    """A deterministic left inverse of an injective matrix (pivot-row based)."""
    m, n = shape(a)
    if rank(a) != n:
        raise ValueError("matrix is not injective")
    piv_rows = column_space_pivots(transpose(a))
    sub = [a[i] for i in piv_rows]
    inv = inverse(sub)
    out = zeros(n, m)
    for i in range(n):
        for k, r_idx in enumerate(piv_rows):
            out[i][r_idx] = inv[i][k]
    return out


def to_float(a, rows, colns):
    """Float copy of a with the given shape, which empty matrices keep."""
    import numpy as np

    out = np.zeros((rows, colns))
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            out[i, j] = float(v)
    return out


# ---------------------------------------------------------------------------
# Integer normal forms


def smith_normal_form(a):
    """Diagonal invariant factors d_1 | d_2 | ... of an integer matrix.

    Returns (diagonal, U, V) with U a V = diag embedded in the same shape,
    U and V unimodular.
    """
    m = [[int(x) for x in row] for row in a]
    rows = len(m)
    ncols = len(m[0]) if rows else 0
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
    return diag, u, v


def torsion_order(a):
    """Order of the torsion subgroup of coker(a) for an integer matrix a."""
    if not a or not a[0]:
        return 1
    diag, _, _ = smith_normal_form(a)
    out = 1
    for d in diag:
        out *= abs(d)
    return out


def integer_kernel_basis(a):
    """Z-basis of the integer kernel lattice {x : a x = 0}, via SNF."""
    rows = len(a)
    ncols = len(a[0]) if rows else 0
    if ncols == 0:
        return []
    if rows == 0:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    diag, _, v = smith_normal_form(a)
    r = len(diag)
    return [[v[i][j] for i in range(ncols)] for j in range(r, ncols)]
