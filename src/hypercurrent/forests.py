"""Higher spanning trees and co-trees of a gap complex.

A degree-d tree (d above the bottom of the gap) is a set of d-cells
whose boundary columns form a basis of the boundary space one degree
down; at the bottom level the role is played by co-trees, whose cells
descend to a basis of the degree-p chains modulo boundaries.  Both
carry an integer torsion order and a preferred right inverse used by
the Kirchhoff tree sums.

The gap shares: ranks come from its homology data, and it holds the
last subset's independence matrix (ratlin.kept).  Greedy and enumeration
end on the tree's subset, so its tests, torsion, right inverse and, in
the exact lift, contraction read one elimination.
"""

import math
from dataclasses import dataclass, field

from . import ratlin
from .complex_core import GapComplex
from .errors import NotATree, NotInjective
from .ratlin import QMat

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
    # tree: bounds_{d-p-1} coords -> ambient chains; cotree: minus the
    # projection onto bounds coords.  Fixed by the gap and the cells, so
    # left out of == and hash.
    right_inverse: QMat = field(compare=False)

    @property
    def key(self):
        return (self.level, self.cells)


def _sorted_cells(gap: GapComplex, d, cells):
    """The distinct cells in the parent's cell order: the parent's names
    for them, as a tuple, and their indices."""
    x = gap.parent
    idx = sorted([x.cell_index(d, nm) for nm in set(cells)])
    return tuple([x.cells[d][i] for i in idx]), idx


def _check_level(gap: GapComplex, d):
    if not (gap.p <= d <= gap.q):
        raise ValueError("level outside the gap")


def is_dtree(gap: GapComplex, d, cells):
    """Definitional test: build the subcomplex through degree d and check
    its homology directly (the oracle for the matroid characterization).

    The ambient complex is the q-skeleton, whose cells the gap complex
    holds.  Its degree-p homology is the parent's when p < q; when p == q
    no (p+1)-cell is there to bound, so it is every degree-p cycle, and
    the one co-tree is every p-cell, as the matroid test finds."""
    x = gap.parent
    _check_level(gap, d)
    idx = _sorted_cells(gap, d, cells)[1]
    if d > gap.p:
        # spanning tree: top homology of the subcomplex dies, next Betti
        # number matches the ambient one
        rank_restricted = ratlin.rank(_restricted(gap, d, idx))
        return len(idx) == rank_restricted == _boundary_rank(gap, d)
    # spanning co-tree: inclusion induces an isomorphism on degree-p
    # homology and the Betti number one degree down is unchanged
    restricted = ratlin.kept(x.d(d)[:, idx])
    if d >= 1 and ratlin.rank(restricted) != _boundary_rank(gap, d):
        return False
    kernel = QMat.identity(x.n_cells(d))[:, idx] @ ratlin.nullspace(restricted)
    if gap.q == gap.p:
        # no (p+1)-cell bounds: the kernel must be every degree-p cycle
        return kernel.shape[1] == x.n_cells(d) - _boundary_rank(gap, d)
    hx = gap.parent_hp
    if kernel.shape[1] != hx.betti:
        return False
    return ratlin.rank(hx.class_of(kernel)) == hx.betti


def matroid_is_dtree(gap: GapComplex, d, cells):
    """Basis test: column independence in the boundary matrix (trees) or
    independence modulo the boundary space (co-trees), with the right
    cardinality."""
    _check_level(gap, d)
    idx = _sorted_cells(gap, d, cells)[1]
    return len(idx) == _target_size(gap, d) and _independent(gap, d, idx)


def _restricted(gap: GapComplex, d, idx):
    """The kept matrix whose rank decides if the degree-d cells idx are
    independent: their boundary columns, or bottom boundaries and indicators."""
    x, key = gap.parent, (d, tuple(idx))
    held = gap.derived("restricted", dict)      # the last subset's matrix only
    if key not in held:
        held.clear()
        held[key] = ratlin.kept(x.d(d)[:, idx] if d > gap.p else ratlin.hstack(
            gap.homology[0].bounds, QMat.identity(x.n_cells(d))[:, idx]))
    return held[key]


def _independent(gap: GapComplex, d, idx):
    nb = 0 if d > gap.p else _boundary_rank(gap, d + 1)
    return ratlin.rank(_restricted(gap, d, idx)) == nb + len(idx)


def _boundary_rank(gap: GapComplex, d):
    """Rank of the parent's boundary out of degree d, from the homology data."""
    if d > gap.p:
        return gap.homology[d - gap.p - 1].bounds.shape[1]
    return gap.parent.n_cells(d) - gap.parent_hp.cycles.shape[1]


def _target_size(gap: GapComplex, d):
    if d > gap.p:
        return _boundary_rank(gap, d)
    return gap.parent.n_cells(d) - _boundary_rank(gap, d + 1)


def enumerate_dtrees(gap: GapComplex, d):
    """All degree-d trees, by rank-guided backtracking over cell subsets."""
    _check_level(gap, d)
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

    weights maps each degree-d cell name to a finite number and must be
    one-to-one; cells are scanned in ascending weight and kept whenever
    they extend an independent set.
    """
    _check_level(gap, d)
    x = gap.parent
    names = x.cells[d]
    missing = [nm for nm in names if nm not in weights]
    if missing:
        raise ValueError(f"no weight for cell {missing[0]!r} on level {d}")
    vals = [weights[nm] for nm in names]
    for nm, v in zip(names, vals):
        if not math.isfinite(v):
            raise ValueError(f"weight {v} of cell {nm!r} on level {d} is not finite")
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
    (co-trees).

    Both are the torsion of one cokernel.  For a tree it is that of the
    tree's boundary columns in the (d-1)-chains: the chains modulo cycles
    embed in the free (d-2)-chains, so the cycle lattice is a direct
    summand and adds no torsion of its own."""
    if not is_dtree(gap, d, cells):
        raise NotATree(f"{cells} is not a degree-{d} tree")
    x = gap.parent
    idx = _sorted_cells(gap, d, cells)[1]
    if d > gap.p:
        return ratlin.torsion_order(_restricted(gap, d, idx))
    # co-tree: finite part of the degree-p chain lattice modulo the gap's
    # integral boundaries and the span of the co-tree cells
    indicators = QMat.identity(x.n_cells(d))[:, idx]
    return ratlin.torsion_order(ratlin.hstack(gap.d(1), indicators))


def tree_right_inverse(gap: GapComplex, d, cells):
    """Preferred right inverse attached to a tree, a QMat.

    For d above the bottom level: the unique solution operator of
    "boundary = given" supported on the tree cells, as a matrix from
    bounds-basis coordinates one degree down to ambient chains.  At the
    bottom level: minus the projection onto bounds coordinates whose
    kernel is the span of the co-tree cells.
    """
    x = gap.parent
    _check_level(gap, d)
    idx = _sorted_cells(gap, d, cells)[1]
    if d > gap.p:
        tree_cells = QMat.identity(x.n_cells(d))[:, idx]
        bounds = gap.homology[d - gap.p - 1].bounds
        return tree_cells @ (ratlin.pinv(_restricted(gap, d, idx)) @ bounds)
    return -ratlin.inverse(_restricted(gap, d, idx))[:_boundary_rank(gap, d + 1), :]


def make_dtree(gap: GapComplex, d, cells):
    """Validate a cell subset and package it with torsion and right inverse.

    A tree is built once per gap and kept in the gap's memo by its level
    and cells, so enumeration and greedy selection share one object; a
    set that is not a tree raises every time and is not kept."""
    names = _sorted_cells(gap, d, cells)[0]
    return gap.derived(("dtree", d, names), lambda: _build_dtree(gap, d, cells, names))


def _build_dtree(gap: GapComplex, d, cells, names):
    if not matroid_is_dtree(gap, d, names):
        raise NotATree(f"{cells} is not a degree-{d} tree")
    kind = "cotree" if d == gap.p else "tree"
    tau = torsion_of(gap, d, names)
    rinv = tree_right_inverse(gap, d, names)
    return DTree(level=d, kind=kind, cells=names, torsion=tau, right_inverse=rinv)
