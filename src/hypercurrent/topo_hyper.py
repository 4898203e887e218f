"""The exact rational current construction on a parameter domain.

Every cell of a good parameter domain gets a preferred tree (greedy at
the least injective level); vertices get a canonical chain map into
their tree's subcomplex, and higher cells extend it degreewise through
the contracting homotopy of the tree subcomplex.  All arithmetic is
exact (ratlin.QMat: integer numerators over one denominator) and the
chain-map identity is asserted at each step, so the resulting cochain
is reproducible bit for bit.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratlin
from .complex_core import GapComplex, GradedOperator, contraction, eth
from .errors import LiftObstruction, NotACycle, NotGood, NotSmall
from .forests import DTree, greedy_dtree
from .ratlin import QMat

__all__ = [
    "LiftCache",
    "HyperCochain",
    "tree_functor",
    "lift_vertex",
    "lift_simplex",
    "build_lift_cache",
    "hypercurrent_cochain",
    "cochain_chain_map_defect",
    "hypercurrent_homology",
    "cycle_boundary_defect",
    "addendum_predicts_trivial",
    "cube_cellular_cochain",
]


def _tree_masks(gap: GapComplex, tree: DTree):
    ld = tree.level - gap.p
    idx = sorted(gap.parent.cell_index(tree.level, nm) for nm in tree.cells)
    masks = []
    for j in range(gap.top + 1):
        if j < ld:
            masks.append(list(range(gap.dim_at(j))))
        elif j == ld:
            masks.append(idx)
        else:
            masks.append([])
    return masks


class _TreeAux:
    """Contraction and vertex-lift data for one tree subcomplex, embedded
    in ambient coordinates as QMat."""

    def __init__(self, gap: GapComplex, tree: DTree):
        self.gap = gap
        self.tree = tree
        self.masks = _tree_masks(gap, tree)
        ld = tree.level - gap.p
        dims_sub = [len(self.masks[j]) for j in range(ld + 1)]
        bnds = [None]
        for j in range(1, ld + 1):
            full = gap.d(j)
            bnds.append([[full[r][c] for c in self.masks[j]] for r in self.masks[j - 1]])
        contr = contraction(dims_sub, bnds)
        # ambient-shaped homotopy, one matrix per degree 0..top-1
        self.h = [self._embed(j + 1, j, contr.h[j] if j < ld else None) for j in range(gap.top)]
        self.pi0 = self._embed(0, 0, contr.pi0)
        self.outside = []
        for j in range(gap.top + 1):
            inside = set(self.masks[j])
            self.outside.append([r for r in range(gap.dim_at(j)) if r not in inside])
        self.phi = self._vertex_lift()

    def _embed(self, r, c, sub):
        """The Fraction block sub from the tree's degree-c cells to its
        degree-r cells as an ambient QMat; None is zero."""
        gap = self.gap
        out = np.zeros((gap.dim_at(r), gap.dim_at(c)), dtype=object)
        if sub is None:
            return QMat(out)
        rows, cols = self.masks[r], self.masks[c]
        blk = QMat.from_rows(sub, (len(rows), len(cols)))
        out[np.ix_(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))] = blk.num
        return QMat(out, blk.den)

    def _vertex_lift(self):
        gap = self.gap
        n0 = gap.dim_at(0)
        phi0 = QMat.identity(n0)
        if self.tree.kind == "cotree":
            bounds = gap.homology[0].bounds
            nb = len(bounds[0]) if bounds else 0
            if nb:
                stored = QMat.from_rows(self.tree.right_inverse, (nb, n0))
                phi0 = phi0 + QMat.from_rows(bounds, (n0, nb)) @ stored
        phis = [phi0]
        for g in range(1, gap.top + 1):
            phis.append(self.h[g - 1] @ (phis[g - 1] @ gap.dmat(g)))
        for g in range(1, gap.top + 1):
            if gap.dmat(g) @ phis[g] != phis[g - 1] @ gap.dmat(g):
                raise LiftObstruction("vertex lift is not a chain map")
        return tuple(phis)

    def support_ok(self, j, mat):
        """True iff the degree-j chains in mat lie on the tree's cells."""
        if not 0 <= j <= self.gap.top:
            return mat.is_zero()
        return not mat.num[self.outside[j]].any()


def _tree_aux(gap: GapComplex, tree: DTree) -> _TreeAux:
    return gap.derived(("tree_aux", tree.key), lambda: _TreeAux(gap, tree))


@dataclass
class LiftCache:
    """Per-cell chain maps m(x (x) [cell]) in ambient coordinates.

    values[key][g] maps degree-g basis chains to degree g+dim(cell)
    chains supported on the cell's tree subcomplex.
    """

    gap: GapComplex
    cert: object
    trees: dict     # cell key -> DTree
    values: dict    # cell key -> tuple of QMat, one per input degree


def tree_functor(proto, key):
    """The preferred tree of a small cell: greedy at its least injective
    level, using the order type certified on the whole closed cell; kept
    in the gap's memo by (level, order type), so protocols share it."""
    gap = proto.gap
    k = proto.certificate.k[tuple(key)]
    if k is None:
        raise NotSmall(f"cell {key} has no injective level")
    vertex = proto.vertices_of(key)[0]
    weights = dict(zip(gap.parent.cells[k], proto.weight_of(vertex).level(k)))
    order = tuple(sorted(weights, key=weights.get))
    return gap.derived(("tree", k, order), lambda: greedy_dtree(gap, k, weights))


def lift_vertex(proto, vertex_key):
    """Canonical chain map into the vertex tree's subcomplex: identity in
    degree 0 for trees above the bottom level, projection along the
    boundary space onto the co-tree span at the bottom; higher degrees
    via the contracting homotopy.  The tuple is shared, read-only."""
    tree = tree_functor(proto, vertex_key)
    return tree, _tree_aux(proto.gap, tree).phi


def build_lift_cache(proto) -> LiftCache:
    gap = proto.gap
    cert = proto.certificate
    cells = sorted(proto.all_cells(), key=lambda c: (proto.dim_of(c), repr(c)))
    for key in cells:
        if cert.k[key] is None:
            raise NotGood(f"cell {key} is not small")
    trees = {key: tree_functor(proto, key) for key in cells}
    cache = LiftCache(gap=gap, cert=cert, trees=trees, values={})
    for key in cells:
        if proto.dim_of(key) == 0:
            cache.values[key] = _tree_aux(gap, trees[key]).phi
        else:
            cache.values[key] = lift_simplex(proto, key, cache)
    return cache


def lift_simplex(proto, key, cache: LiftCache):
    """Extend the lift over one cell, all proper faces being done.

    For each basis chain x in increasing degree the defining value is
    the contracting homotopy applied to
        m(dx (x) [cell]) + (-1)^{|x|} m(x (x) d[cell]);
    the argument is asserted to be an exact cycle (a boundary) before
    and after the solve, in exact arithmetic.
    """
    gap = cache.gap
    jdim = proto.dim_of(key)
    aux = _tree_aux(gap, cache.trees[key])
    faces = proto.boundary_of(key)
    out = []
    for g in range(gap.top + 1):
        ng = gap.dim_at(g)
        zdeg = g + jdim - 1
        z = out[g - 1] @ gap.dmat(g) if g >= 1 else QMat.zeros(gap.dim_at(zdeg), ng)
        sgn = (-1) ** g
        for fsign, fkey in faces:
            z = z + cache.values[fkey][g] * (sgn * fsign)
        if not aux.support_ok(zdeg, z):
            raise LiftObstruction(f"face values escape the tree subcomplex at {key}")
        if zdeg == 0:
            if not (aux.pi0 @ z).is_zero():
                raise LiftObstruction(f"degree-0 argument has nonzero class at {key}")
        elif 0 < zdeg <= gap.top:
            if not (gap.dmat(zdeg) @ z).is_zero():
                raise LiftObstruction(f"argument fails the cycle check at {key}")
        if g + jdim > gap.top:
            if not z.is_zero():
                raise LiftObstruction(f"nonzero top-degree obstruction at {key}")
            out.append(QMat.zeros(gap.dim_at(g + jdim), ng))
            continue
        m = aux.h[zdeg] @ z
        if gap.dmat(g + jdim) @ m != z:
            raise LiftObstruction(f"chain-map identity fails at {key}, degree {g}")
        out.append(m)
    return tuple(out)


@dataclass
class HyperCochain:
    """Assignment of a graded operator to every cell of the domain."""

    gap: GapComplex
    domain: object
    values: dict   # cell key -> GradedOperator

    def operator(self, key):
        return self.values[tuple(key)]


def hypercurrent_cochain(proto) -> HyperCochain:
    """The exact current cochain: on a cell of dimension j the operator
    sends a degree-g chain to the lift of (chain (x) [cell]), with the
    Koszul sign making the boundary identity hold with plain simplicial
    boundary signs."""
    cache = build_lift_cache(proto)
    gap = cache.gap
    values = {}
    for key, mats in cache.values.items():
        jdim = proto.dim_of(key)
        blocks = {g: mats[g] * (-1) ** (jdim * g) for g in range(gap.top + 1)}
        values[key] = GradedOperator(degree=jdim, blocks=blocks)
    return HyperCochain(gap=gap, domain=proto, values=values)


def cochain_chain_map_defect(cochain: HyperCochain):
    """Largest entry of eth(value) - sum of signed face values; exactly
    zero for the rational construction, quadrature-sized for the
    analytical one."""
    gap = cochain.gap
    worst = 0
    for key, op in cochain.values.items():
        lhs = eth(op, gap).blocks
        for fsign, fkey in cochain.domain.boundary_of(key):
            fop = cochain.values[fkey]
            for g in range(gap.top + 1):
                lhs[g] = lhs[g] - fsign * fop.block(gap, g)
        for blk in lhs.values():
            entries = np.abs(np.asarray(blk))
            if entries.size:
                worst = max(worst, entries.max())
    return worst


def cycle_boundary_defect(domain, cycle):
    out = {}
    for key, coeff in cycle.items():
        for sign, face in domain.boundary_of(key):
            out[face] = out.get(face, 0) + coeff * sign
    return {k: v for k, v in out.items() if v}


def hypercurrent_homology(proto, cycle, class_p, cochain=None):
    """Pair a top cycle of the parameter domain with a degree-p homology
    class; returns coordinates in the chosen degree-q homology basis of
    the parent complex."""
    gap = proto.gap
    if cycle_boundary_defect(proto, cycle):
        raise NotACycle("parameter chain has nonzero boundary")
    if cochain is None:
        cochain = hypercurrent_cochain(proto)
    # the degree-p representative is a chain in degree 0 of the shifted complex
    rep = gap.parent_hp.representative([Fraction(c) for c in class_p])
    total = QMat.zeros(gap.dim_at(gap.top), gap.dim_at(0))
    for key, coeff in cycle.items():
        op = cochain.operator(key)
        if op.degree != gap.top:
            raise NotACycle("cycle has support outside the top dimension")
        total = total + op.block(gap, 0) * coeff
    out = total @ rep
    if gap.top == 0:
        # degree-p output chain; its class lives in the parent directly
        return gap.parent_hq.class_of(out), out
    cls = gap.homology[gap.top].class_of(out)
    return ratlin.matvec(gap.hq_project, cls), out


def addendum_predicts_trivial(x, p, q):
    """Structural sufficient conditions for a forced-trivial pairing:
    a trivial boundary operator inside the gap range, or a level with
    at most one cell."""
    for j in range(p, q + 1):
        if x.n_cells(j) <= 1:
            return True
    for j in range(p, q):
        d = x.d(j + 1)
        if not d or not d[0] or ratlin.is_zero(d):
            return True
    return False


def cube_cellular_cochain(gap: GapComplex, signs=None):
    """The regular-CW variant on the cube boundary domain: the same
    lifting run over the face poset of the cube's cells instead of a
    triangulation.  Returns (domain, cochain)."""
    from .protocol import cube_cw_domain

    dom = cube_cw_domain(gap, signs)
    cochain = hypercurrent_cochain(dom)
    return dom, cochain
