"""The exact rational current construction on a parameter domain.

Every cell of a good parameter domain gets a preferred tree (greedy at
the least injective level); vertices get a canonical chain map into
their tree's subcomplex, and higher cells extend it degreewise through
the contracting homotopy of the tree subcomplex.  All arithmetic is
rational and the chain-map identity is asserted exactly at each step,
so the resulting cochain is reproducible bit for bit.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import ratlin
from .complex_core import GapComplex, GradedOperator, _mm, contraction, eth
from .errors import LiftObstruction, NotACycle, NotGood, NotSmall
from .forests import DTree, greedy_dtree
from .protocol import smallness

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
    in ambient coordinates."""

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
        self.h = []
        for j in range(gap.top):
            amb = ratlin.zeros(gap.dim_at(j + 1), gap.dim_at(j))
            if j < ld:
                sub = contr.h[j]
                for r, ri in enumerate(self.masks[j + 1]):
                    for c, ci in enumerate(self.masks[j]):
                        amb[ri][ci] = sub[r][c]
            self.h.append(amb)
        self.pi0 = ratlin.zeros(gap.dim_at(0), gap.dim_at(0))
        for r, ri in enumerate(self.masks[0]):
            for c, ci in enumerate(self.masks[0]):
                self.pi0[ri][ci] = contr.pi0[r][c]
        self.phi = self._vertex_lift()

    def _vertex_lift(self):
        gap = self.gap
        n0 = gap.dim_at(0)
        if self.tree.kind == "cotree":
            bounds = gap.homology[0].bounds
            stored = [list(r) for r in self.tree.right_inverse]
            nb = len(bounds[0]) if bounds else 0
            if nb == 0:
                phi0 = ratlin.identity(n0)
            else:
                phi0 = ratlin.add(ratlin.identity(n0), _mm(bounds, stored, n0, n0))
        else:
            phi0 = ratlin.identity(n0)
        phis = [phi0]
        for g in range(1, gap.top + 1):
            ng = gap.dim_at(g)
            prev = _mm(phis[g - 1], gap.d(g), gap.dim_at(g - 1), ng)
            phis.append(_mm(self.h[g - 1], prev, ng, ng))
        for g in range(1, gap.top + 1):
            lhs = _mm(gap.d(g), phis[g], gap.dim_at(g - 1), gap.dim_at(g))
            rhs = _mm(phis[g - 1], gap.d(g), gap.dim_at(g - 1), gap.dim_at(g))
            if not ratlin.eq(lhs, rhs):
                raise LiftObstruction("vertex lift is not a chain map")
        return phis

    def support_ok(self, j, mat):
        mask = set(self.masks[j]) if 0 <= j <= self.gap.top else set()
        for r, row in enumerate(mat):
            if r not in mask and any(v != 0 for v in row):
                return False
        return True

    def homotopy(self, j, mat, colns):
        """Apply the contracting homotopy to a matrix of degree-j chains."""
        return _mm(self.h[j], mat, self.gap.dim_at(j + 1), colns) if j < self.gap.top \
            else ratlin.zeros(0, colns)


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
    values: dict    # cell key -> list of matrices per input degree


def tree_functor(proto, key, cert=None):
    """The preferred tree of a small cell: greedy at its least injective
    level, using the order type certified on the whole closed cell; kept
    in the gap's memo by (level, order type), so protocols share it."""
    gap = proto.gap
    cert = cert or smallness(proto)
    k = cert.k[tuple(key)]
    if k is None:
        raise NotSmall(f"cell {key} has no injective level")
    vertex = proto.vertices_of(key)[0]
    weights = dict(zip(gap.parent.cells[k], proto.weight_of(vertex).level(k)))
    order = tuple(sorted(weights, key=weights.get))
    return gap.derived(("tree", k, order), lambda: greedy_dtree(gap, k, weights))


def lift_vertex(proto, vertex_key, cert=None):
    """Canonical chain map into the vertex tree's subcomplex: identity in
    degree 0 for trees above the bottom level, projection along the
    boundary space onto the co-tree span at the bottom; higher degrees
    via the contracting homotopy."""
    tree = tree_functor(proto, vertex_key, cert)
    return tree, [ratlin.copy(m) for m in _tree_aux(proto.gap, tree).phi]


def build_lift_cache(proto) -> LiftCache:
    gap = proto.gap
    cert = smallness(proto)
    cells = sorted(proto.all_cells(), key=lambda c: (proto.dim_of(c), repr(c)))
    for key in cells:
        if cert.k[key] is None:
            raise NotGood(f"cell {key} is not small")
    trees = {key: tree_functor(proto, key, cert) for key in cells}
    cache = LiftCache(gap=gap, cert=cert, trees=trees, values={})
    for key in cells:
        if proto.dim_of(key) == 0:
            cache.values[key] = [ratlin.copy(m) for m in _tree_aux(gap, trees[key]).phi]
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
        rows = gap.dim_at(zdeg)
        z = ratlin.zeros(rows, ng)
        if g >= 1:
            z = ratlin.add(z, _mm(out[g - 1], gap.d(g), rows, ng))
        sgn = Fraction((-1) ** g)
        for fsign, fkey in faces:
            fval = cache.values[fkey][g]
            if rows and fval and fval[0]:
                z = ratlin.add(z, ratlin.scale(fval, sgn * fsign))
        if rows and not aux.support_ok(zdeg, z):
            raise LiftObstruction(f"face values escape the tree subcomplex at {key}")
        if zdeg == 0:
            chk = _mm(aux.pi0, z, rows, ng)
            if not ratlin.is_zero(chk):
                raise LiftObstruction(f"degree-0 argument has nonzero class at {key}")
        elif 0 < zdeg <= gap.top:
            chk = _mm(gap.d(zdeg), z, gap.dim_at(zdeg - 1), ng)
            if not ratlin.is_zero(chk):
                raise LiftObstruction(f"argument fails the cycle check at {key}")
        if g + jdim > gap.top:
            if rows and not ratlin.is_zero(z):
                raise LiftObstruction(f"nonzero top-degree obstruction at {key}")
            out.append(ratlin.zeros(gap.dim_at(g + jdim), ng))
            continue
        m = aux.homotopy(zdeg, z, ng) if rows else ratlin.zeros(gap.dim_at(g + jdim), ng)
        back = _mm(gap.d(g + jdim), m, rows, ng)
        if not ratlin.eq(back, z):
            raise LiftObstruction(f"chain-map identity fails at {key}, degree {g}")
        out.append(m)
    return out


@dataclass
class HyperCochain:
    """Assignment of a graded operator to every cell of the domain."""

    gap: GapComplex
    domain: object
    values: dict   # cell key -> GradedOperator
    kind: str = "rational"

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
        blocks = {}
        for g in range(gap.top + 1):
            sign = Fraction((-1) ** (jdim * g))
            blocks[g] = ratlin.scale(mats[g], sign) if mats[g] else mats[g]
        values[key] = GradedOperator(degree=jdim, blocks=blocks, kind="rational")
    return HyperCochain(gap=gap, domain=proto, values=values, kind="rational")


def cochain_chain_map_defect(cochain: HyperCochain):
    """Largest entry of eth(value) - sum of signed face values; exactly
    zero for the rational construction, quadrature-sized for the
    analytical one."""
    gap = cochain.gap
    worst = 0
    for key, op in cochain.values.items():
        lhs = eth(op, gap)
        for fsign, fkey in cochain.domain.boundary_of(key):
            fop = cochain.values[fkey]
            for g in range(gap.top + 1):
                blk = fop.block(gap, g)
                if cochain.kind == "rational":
                    term = ratlin.scale(blk, Fraction(-fsign)) if blk else blk
                    lhs.blocks[g] = ratlin.add(lhs.blocks[g], term) if term else lhs.blocks[g]
                else:
                    lhs.blocks[g] = lhs.blocks[g] - fsign * blk
        for g in range(gap.top + 1):
            blk = lhs.blocks[g]
            if cochain.kind == "rational":
                m = max((abs(v) for row in blk for v in row), default=0)
            else:
                m = float(abs(blk).max()) if getattr(blk, "size", 0) else 0.0
            worst = max(worst, m)
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
    out = [Fraction(0)] * gap.dim_at(gap.top)
    for key, coeff in cycle.items():
        op = cochain.operator(key)
        if op.degree != gap.top:
            raise NotACycle("cycle has support outside the top dimension")
        img = op.apply(gap, 0, rep)
        out = [a + Fraction(coeff) * b for a, b in zip(out, img)]
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
