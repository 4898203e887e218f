"""The row kernel on lists of ``fractions.Fraction`` rows, the oracle for
``ratlin``'s fraction-free elimination on ``QMat`` numerators.

``rref`` scans columns left to right and takes the first nonzero entry at
or below the current row as the pivot, as ``ratlin.rref`` does; the
reduced row echelon form is unique, so the two must agree exactly.
"""

from fractions import Fraction


def matmul(a, b):
    """Product of two nonempty Fraction row matrices."""
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    bt = [list(col) for col in zip(*b)]
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
