"""Higher spanning trees and co-trees of a gap complex.

A degree-d tree (d above the bottom of the gap) is a set of d-cells
whose boundary columns form a basis of the boundary space one degree
down; at the bottom level the role is played by co-trees, whose cells
descend to a basis of the degree-p chains modulo boundaries.  Both
carry an integer torsion order and a preferred right inverse used by
the Kirchhoff tree sums.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .complex_core import GapComplex
from .errors import NotATree, NotInjective

__all__ = [
    "DTree",
    "enumerate_dtrees",
    "is_dtree",
    "matroid_is_dtree",
    "greedy_dtree",
    "torsion_of",
    "tree_right_inverse",
    "make_dtree",
]


@dataclass(frozen=True)
class DTree:
    """A degree-d tree (or co-tree when d is the bottom gap level)."""

    level: int
    kind: str            # "tree" | "cotree"
    cells: tuple         # cell names, in the parent's cell order
    torsion: int
    right_inverse: tuple # tree: bounds_{d-p-1} coords -> ambient chains;
                         # cotree: minus the projection onto bounds coords

    @property
    def key(self):
        return (self.level, self.cells)


def _cell_indices(gap: GapComplex, d, names):
    return [gap.parent.cell_index(d, nm) for nm in names]


def is_dtree(gap: GapComplex, d, cells):
    """Definitional test: build the subcomplex through degree d and check
    its homology directly (the oracle for the matroid characterization)."""
    x = gap.parent
    if not (gap.p <= d <= gap.q):
        raise ValueError("level outside the gap")
    names = sorted(set(cells), key=lambda nm: x.cell_index(d, nm))
    idx = _cell_indices(gap, d, names)
    dd = x.d(d)
    restricted = ratlin.cols(dd, idx) if idx else None
    rank_restricted = ratlin.rank(restricted) if restricted else 0
    if d > gap.p:
        # spanning tree: top homology of the subcomplex dies, next Betti
        # number matches the ambient one
        h_top = len(idx) - rank_restricted
        if h_top != 0:
            return False
        return rank_restricted == ratlin.rank(dd)
    # spanning co-tree: inclusion induces an isomorphism on degree-p
    # homology and the Betti number one degree down is unchanged
    if d >= 1 and rank_restricted != ratlin.rank(dd):
        return False
    if restricted is None:
        kernel = ratlin.zeros(0, 0)
        kdim = 0
    elif not restricted or not restricted[0]:
        kernel = ratlin.identity(len(idx))
        kdim = len(idx)
    else:
        kernel = ratlin.nullspace(restricted)
        kdim = len(kernel[0]) if kernel else 0
    hx = gap.parent_hp
    if kdim != hx.betti:
        return False
    cols = []
    for k in range(kdim):
        vec = [Fraction(0)] * x.n_cells(d)
        for r, i in enumerate(idx):
            vec[i] = kernel[r][k]
        try:
            cols.append(hx.class_of(vec))
        except ValueError:
            return False
    if kdim == 0:
        return True
    induced = ratlin.transpose(cols)
    return ratlin.rank(induced) == hx.betti


def matroid_is_dtree(gap: GapComplex, d, cells):
    """Basis test: column independence in the boundary matrix (trees) or
    independence modulo the boundary space (co-trees), with the right
    cardinality."""
    x = gap.parent
    names = sorted(set(cells), key=lambda nm: x.cell_index(d, nm))
    idx = _cell_indices(gap, d, names)
    return len(idx) == _target_size(gap, d) and _independent(gap, d, idx)


def _independent(gap: GapComplex, d, idx):
    x = gap.parent
    if d > gap.p:
        return ratlin.rank(ratlin.cols(x.d(d), idx)) == len(idx)
    bounds = gap.homology[0].bounds
    nb = len(bounds[0]) if bounds else 0
    n = x.n_cells(d)
    indicators = ratlin.zeros(n, len(idx))
    for k, i in enumerate(idx):
        indicators[i][k] = Fraction(1)
    return ratlin.rank(ratlin.hstack(bounds, indicators)) == nb + len(idx)


def _target_size(gap: GapComplex, d):
    x = gap.parent
    if d > gap.p:
        return ratlin.rank(x.d(d))
    bounds = gap.homology[0].bounds
    nb = len(bounds[0]) if bounds else 0
    return x.n_cells(d) - nb


def enumerate_dtrees(gap: GapComplex, d):
    """All degree-d trees, by rank-guided backtracking over cell subsets."""
    x = gap.parent
    n = x.n_cells(d)
    target = _target_size(gap, d)
    out = []

    def extend(chosen, start):
        if len(chosen) == target:
            out.append(make_dtree(gap, d, tuple(x.cells[d][i] for i in chosen)))
            return
        for i in range(start, n):
            if n - i < target - len(chosen):
                break
            cand = chosen + [i]
            if _independent(gap, d, cand):
                extend(cand, i + 1)

    extend([], 0)
    if not out:
        raise NotATree(f"no degree-{d} trees exist")
    return out


def greedy_dtree(gap: GapComplex, d, weights):
    """Minimum-weight tree by the matroid greedy algorithm.

    weights maps each degree-d cell name to a number and must be
    one-to-one; cells are scanned in ascending weight and kept whenever
    they extend an independent set.
    """
    x = gap.parent
    names = x.cells[d]
    vals = [weights[nm] for nm in names]
    if len(set(vals)) != len(vals):
        raise NotInjective(f"weights on level {d} are not one-to-one")
    order = sorted(range(len(names)), key=lambda i: vals[i])
    target = _target_size(gap, d)
    chosen = []
    for i in order:
        if len(chosen) == target:
            break
        cand = sorted(chosen + [i])
        if _independent(gap, d, cand):
            chosen = cand
    return make_dtree(gap, d, tuple(names[i] for i in sorted(chosen)))


def torsion_of(gap: GapComplex, d, cells):
    """Integer torsion order of the tree's homology one degree down
    (trees) or of the bottom chains modulo boundaries and co-tree cells
    (co-trees)."""
    if not is_dtree(gap, d, cells):
        raise NotATree(f"{cells} is not a degree-{d} tree")
    x = gap.parent
    idx = _cell_indices(gap, d, sorted(set(cells), key=lambda nm: x.cell_index(d, nm)))
    if d > gap.p:
        d_low = x.d(d - 1)
        low_int = [[int(v) for v in row] for row in d_low] if d - 1 >= 1 else []
        if d - 1 == 0 or not low_int:
            kernel_rows = [[int(i == j) for j in range(x.n_cells(d - 1))] for i in range(x.n_cells(d - 1))]
        else:
            kernel_rows = ratlin.integer_kernel_basis(low_int)
        kt = ratlin.from_rows(kernel_rows)
        kt = ratlin.transpose(kt) if kernel_rows else ratlin.zeros(x.n_cells(d - 1), 0)
        image = ratlin.cols(x.d(d), idx)
        coeffs = ratlin.solve_matrix(kt, image)
        if coeffs is None:
            raise NotATree("tree boundary does not land in the cycle lattice")
        int_coeffs = []
        for row in coeffs:
            int_row = []
            for v in row:
                if v.denominator != 1:
                    raise NotATree("non-integral coefficients in the cycle lattice")
                int_row.append(int(v))
            int_coeffs.append(int_row)
        return ratlin.torsion_order(int_coeffs)
    # co-tree: finite part of the degree-p chain lattice modulo integral
    # boundaries and the span of the co-tree cells
    n = x.n_cells(d)
    up = x.d(d + 1)
    combined = [[int(v) for v in row] for row in up] if up and up[0] else [[] for _ in range(n)]
    indicator = [[1 if i == j else 0 for j in idx] for i in range(n)]
    merged = [combined[i] + indicator[i] for i in range(n)]
    return ratlin.torsion_order(merged)


def tree_right_inverse(gap: GapComplex, d, cells):
    """Preferred right inverse attached to a tree.

    For d above the bottom level: the unique solution operator of
    "boundary = given" supported on the tree cells, as a matrix from
    bounds-basis coordinates one degree down to ambient chains.  At the
    bottom level: minus the projection onto bounds coordinates whose
    kernel is the span of the co-tree cells.
    """
    x = gap.parent
    idx = _cell_indices(gap, d, sorted(set(cells), key=lambda nm: x.cell_index(d, nm)))
    jd = d - gap.p
    if d > gap.p:
        bounds = gap.homology[jd - 1].bounds
        nb = len(bounds[0]) if bounds else 0
        n = x.n_cells(d)
        if nb == 0:
            return ratlin.zeros(n, 0)
        restricted = ratlin.cols(x.d(d), idx)
        sol = ratlin.matmul(ratlin.pinv(restricted), bounds)
        out = ratlin.zeros(n, nb)
        for r, i in enumerate(idx):
            out[i] = sol[r]
        return out
    bounds = gap.homology[0].bounds
    nb = len(bounds[0]) if bounds else 0
    n = x.n_cells(d)
    if nb == 0:
        return ratlin.zeros(0, n)
    indicators = ratlin.zeros(n, len(idx))
    for k, i in enumerate(idx):
        indicators[i][k] = Fraction(1)
    full = ratlin.hstack(bounds, indicators)
    inv = ratlin.inverse(full)
    proj = [inv[i] for i in range(nb)]
    return ratlin.scale(proj, Fraction(-1))


def make_dtree(gap: GapComplex, d, cells):
    """Validate a cell subset and package it with torsion and right inverse.

    A tree is built once per gap and kept in the gap's memo by its level
    and cells, so enumeration and greedy selection share one object; a
    set that is not a tree raises every time and is not kept."""
    x = gap.parent
    names = tuple(sorted(set(cells), key=lambda nm: x.cell_index(d, nm)))
    return gap.derived(("dtree", d, names), lambda: _build_dtree(gap, d, cells, names))


def _build_dtree(gap: GapComplex, d, cells, names):
    if not matroid_is_dtree(gap, d, names):
        raise NotATree(f"{cells} is not a degree-{d} tree")
    kind = "cotree" if d == gap.p else "tree"
    tau = torsion_of(gap, d, names)
    rinv = tree_right_inverse(gap, d, names)
    return DTree(level=d, kind=kind, cells=names, torsion=tau,
                 right_inverse=tuple(tuple(row) for row in rinv))
