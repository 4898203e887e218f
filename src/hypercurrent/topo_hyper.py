"""The exact rational current construction on a parameter domain.

Every cell of a good parameter domain gets a preferred tree (greedy at
the least injective level); vertices get a canonical chain map into
their tree's subcomplex, and higher cells extend it degreewise through
the contracting homotopy of the tree subcomplex.  All arithmetic is
exact and the chain-map identity is asserted at each step, so the lift
is reproducible bit for bit.  A HyperCochain holds the analytical
cochain, one float stack per cell dimension, whose distance from a chain
map cochain_chain_map_defect measures in one pass per dimension.

The lift is stacked: each dimension, vertices included, is one stack
per degree of numerators over one denominator, its cells in cell_index
order.  Every numerator is a Python int.  The lift reads cells by their
cell_index rows only; keys name a failing cell.  lift_simplex gathers a
dimension's face values from the stack below through the domain's face
rows (row indices and signs) and runs every product and check on the
whole stack.  The pairing checks the cycles' boundaries on the same face
rows and contracts the top stack's degree-0 numerators (Koszul sign +1)
with their coefficients.

A cell's lift depends on its domain only through its signature: its
tree, then each face's signature and sign in face_rows order (Kirchhoff:
the weights enter only through the tree choice).  build_lift_cache
numbers the signatures, with the trees from one argsort of the level
weights per level and one tree_functor call per distinct (level, order
type); lift_simplex runs only on the first cell of each signature the
gap has not seen, the gap keeps that lift, and every stack is gathered
from the gap's lifts over their denominator, so domains over one gap
share them.  lift_simplex and QMat reduce what they make, so no output
depends on which lifts the gap kept.

Errors are those a cell-by-cell pass in (dim, repr) order meets first:
earliest cell, then degree, then check (support, class or cycle, top
degree, chain-map identity); a cycle with nonzero boundary is rejected
before one that names a cell outside the domain.  A domain that is a
disjoint union of parts (the transversal spheres of a chunk of
weight-space cells) is lifted as one domain; failures are then ordered
by dimension, part, and repr of the cell in its part's own vertex
numbering, and the LiftObstruction names the cell that way and carries
its part.  A dimension that fails keeps no lift, and every cell of a
new signature is then lifted to name the failure.  hypercurrent_homology
pairs many cycles over one lift, the domain's lift property, which a
protocol builds with build_lift_cache once and keeps; the LiftCache's
signatures number its top cells' signatures.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complex_core import GapComplex, GradedOperator, contraction, eth
from .errors import InvariantBroken, LiftObstruction, NotACycle, NotGood, NotSmall
from .forests import DTree, _restricted, greedy_dtree
from .ratlin import QMat

__all__ = [
    "LiftCache",
    "HyperCochain",
    "tree_functor",
    "lift_simplex",
    "build_lift_cache",
    "cochain_chain_map_defect",
    "hypercurrent_homology",
]


def _tree_masks(gap: GapComplex, tree: DTree):
    """Per degree, the indices of the tree subcomplex's cells."""
    ld = tree.level - gap.p
    idx = sorted(gap.parent.cell_index(tree.level, nm) for nm in tree.cells)
    return [np.arange(gap.dim_at(j)) if j < ld else np.array(idx if j == ld else [], dtype=np.intp)
            for j in range(gap.top + 1)]


class _TreeAux:
    """Contraction and vertex-lift data for one tree subcomplex, embedded
    in ambient coordinates as QMat; outside[j] marks the degree-j rows
    off the tree's cells."""

    def __init__(self, gap: GapComplex, tree: DTree):
        self.gap = gap
        self.tree = tree
        self.masks = _tree_masks(gap, tree)
        ld = tree.level - gap.p
        dims_sub = [len(self.masks[j]) for j in range(ld + 1)]
        # the gap's own boundaries below the tree's degree, its columns there
        bnds = [None] + [gap.d(j) for j in range(1, ld)] \
            + ([_restricted(gap, tree.level, self.masks[ld].tolist())] if ld else [])
        contr = contraction(dims_sub, bnds)
        # ambient-shaped homotopy, one matrix per degree 0..top-1
        self.h = [self._embed(j + 1, j, contr.h[j] if j < ld else None) for j in range(gap.top)]
        self.pi0 = self._embed(0, 0, contr.pi0)
        self.outside = [np.ones(gap.dim_at(j), dtype=bool) for j in range(gap.top + 1)]
        for off, mask in zip(self.outside, self.masks):
            off[mask] = False
        self.phi = self._vertex_lift()

    def _embed(self, r, c, sub):
        """The block sub from the tree's degree-c cells to its degree-r
        cells as an ambient QMat; None is zero."""
        gap = self.gap
        out = np.zeros((gap.dim_at(r), gap.dim_at(c)), dtype=object)
        if sub is None:
            return QMat(out)
        out[self.masks[r][:, None], self.masks[c]] = sub.num
        return QMat(out, sub.den)

    def _vertex_lift(self):
        gap = self.gap
        phi0 = QMat.identity(gap.dim_at(0))
        if self.tree.kind == "cotree":
            phi0 = phi0 + gap.homology[0].bounds @ self.tree.right_inverse
        phis = [phi0]
        for g in range(1, gap.top + 1):
            phis.append(self.h[g - 1] @ (phis[g - 1] @ gap.d(g)))
        for g in range(1, gap.top + 1):
            if gap.d(g) @ phis[g] != phis[g - 1] @ gap.d(g):
                raise LiftObstruction("vertex lift is not a chain map")
        return tuple(phis)


def _tree_aux(gap: GapComplex, tree: DTree) -> _TreeAux:
    return gap.derived(("tree_aux", tree.key), lambda: _TreeAux(gap, tree))


@dataclass
class LiftCache:
    """Per-cell chain maps m(x (x) [cell]) in ambient coordinates: stacks[d]
    is the lift of the d-cells, per input degree numerators (cell, rows,
    cols) over one denominator, and the degree-g block of a cell's row
    maps degree-g basis chains to degree g+dim(cell) chains on the cell's
    tree subcomplex.  trees holds a tree per distinct (level, order type)
    of the cells, and tree_of each cell's place in it, in cell_index
    order.  signatures numbers the top cells' signatures, in cell_index
    order: two top cells of one number have one lift."""

    gap: GapComplex
    trees: list
    tree_of: np.ndarray = field(repr=False, compare=False)
    stacks: list = field(default_factory=list, repr=False, compare=False)
    signatures: np.ndarray = field(default=None, repr=False, compare=False)


def tree_functor(proto, row):
    """The preferred tree of a small cell, given by its cell_index row:
    greedy at its least injective level, using the order type certified
    on the whole closed cell (read at its first vertex's row of
    level_weights); kept in the gap's memo by (level, order type), so
    protocols share it, with its contraction, built while the gap holds
    the tree's elimination."""
    gap = proto.gap
    cells = proto.cell_index
    k = int(proto.certificate.least[row])
    if k < 0:
        raise NotSmall(f"cell {cells.keys[row]} has no injective level")
    names = gap.parent.cells[k]
    w = proto.level_weights[k - gap.p][cells.vertices[row, 0]]
    order = tuple(names[i] for i in np.argsort(w, kind="stable"))
    return gap.derived(("tree", k, order), lambda: _tree_aux(
        gap, greedy_dtree(gap, k, dict(zip(names, w.tolist())))).tree)


class _Lifts:
    """The lifts a gap has seen, by signature.  trees numbers the trees by
    key; per cell dimension, index maps a signature (the cell's tree
    number, then each face's signature number and sign in face_rows
    order) to its number, and blocks holds per input degree the lifts of
    the signatures in number order, numerators over one denominator,
    reduced; a gather of some of them keeps that denominator."""

    def __init__(self):
        self.trees, self.index, self.blocks = {}, {}, {}


def build_lift_cache(proto) -> LiftCache:
    """The lift of every cell of a small domain, one stack per dimension
    in cell_index order.  A cell's lift is a function of its signature, so
    lift_simplex runs only on the first cell of each signature the gap
    has not seen, and every stack is gathered from the gap's lifts."""
    gap = proto.gap
    cert = proto.certificate
    cells = proto.cell_index
    keys = cells.keys
    if cert.least.min() < 0:
        # the cell a cell-by-cell pass in (dim, repr) order meets first
        bad = (keys[i] for i in np.flatnonzero(cert.least < 0))
        first = min(bad, key=lambda c: (proto.dim_of(c), repr(c)))
        raise NotGood(f"cell {first} is not small")
    cache = LiftCache(gap, *_cell_trees(proto))
    seen = gap.derived("lifts", _Lifts)
    sig = np.array([seen.trees.setdefault(t.key, len(seen.trees)) for t in cache.trees],
                   dtype=np.int64)[cache.tree_of]
    for j, (a, b) in enumerate(zip(cells.offsets, cells.offsets[1:])):
        rows = sig[a:b, None]
        if j:
            faces, signs = proto.face_rows[j]
            pairs = np.stack([sig[faces + cells.offsets[j - 1]], signs], axis=2)
            rows = np.concatenate([rows, pairs.reshape(b - a, -1)], axis=1)
        sig[a:b] = _lift_dimension(proto, j, rows, cache, seen)
    cache.signatures = sig[cells.offsets[-2]:]
    return cache


def _cell_trees(proto):
    """A tree per distinct row of a domain's cells, and each cell's place
    among them (LiftCache.trees and tree_of): one row per cell, its least
    level and that level's order type at its first vertex (from one
    argsort of each level's weights), and one tree_functor call, by its
    first cell's row, per distinct row."""
    cells = proto.cell_index
    least = proto.certificate.least
    weights = proto.level_weights
    rows = np.full((len(least), 1 + max(w.shape[1] for w in weights)), -1, dtype=np.intp)
    rows[:, 0] = least
    for k, w in enumerate(weights, start=proto.gap.p):
        at = least == k
        rows[at, 1:1 + w.shape[1]] = np.argsort(w, axis=1, kind="stable")[cells.vertices[at, 0]]
    first, tree_of = _distinct(rows)
    return [tree_functor(proto, i) for i in first.tolist()], tree_of


def _lift_dimension(proto, j, rows, cache, seen):
    """Append the stack of the j-cells, whose signatures are rows, to
    cache.stacks, lifting the first cell of each signature seen has not
    kept and keeping its lift there; returns the cells' signature
    numbers.  A failure keeps nothing and is named as a pass over every
    cell of a new signature names it."""
    gap = cache.gap
    index = seen.index.setdefault(j, {})
    first, inverse = _distinct(rows)
    distinct = list(map(tuple, rows[first].tolist()))
    new = np.sort(first[[r not in index for r in distinct]])
    if len(new):
        if j == 0:
            # the vertices are the first cells of cell_index
            phis = [_tree_aux(gap, cache.trees[t]).phi for t in cache.tree_of[new].tolist()]
            blocks = [_stacked([phi[g] for phi in phis]) for g in range(gap.top + 1)]
        else:
            try:
                lift_simplex(proto, j, new, cache)
            except LiftObstruction:
                lift_simplex(proto, j, np.flatnonzero(np.isin(inverse, inverse[new])), cache)
                raise
            blocks = cache.stacks.pop()
        old = seen.blocks.get(j)
        seen.blocks[j] = blocks if old is None else list(map(_grown, old, blocks))
        for i in new.tolist():
            index[tuple(rows[i].tolist())] = len(index)
    sigs = np.array([index[r] for r in distinct], dtype=np.int64)[inverse]
    del cache.stacks[j:]
    cache.stacks.append([(num[sigs], den) for num, den in seen.blocks[j]])
    return sigs


def _distinct(rows):
    """The place of the first of each distinct row of an integer array,
    and the number of each row among the distinct rows in lexicographic
    order.  The constant last key sorts rows of no entries too."""
    order = np.lexsort((*rows.T[::-1], np.zeros(len(rows), dtype=np.intp)))
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    number = np.empty(len(rows), dtype=np.intp)
    number[order] = np.cumsum(new) - 1
    return order[new], number


def _grown(old, new):
    """The stack old with the rows of the stack new appended, over their
    common denominator, reduced."""
    (onum, oden), (nnum, nden) = old, new
    den = math.lcm(oden, nden)
    return _reduced(np.concatenate([onum * (den // oden), nnum * (den // nden)]), den)


def _stacked(mats):
    """QMats of one shape as numerators over their common denominator,
    stacked along a leading axis."""
    den = math.lcm(*(m.den for m in mats))
    return np.stack([m.num * (den // m.den) for m in mats]), den


def _reduced(num, den):
    """A stack over den with the factor common to den and all entries
    divided out."""
    g = math.gcd(den, int(np.gcd.reduce(num, axis=None)))
    return (num // g, den // g) if g > 1 else (num, den)


def _nonzero(num):
    """Per cell of a stack: does any entry differ from zero."""
    return num.astype(bool).any(axis=(1, 2))


# the checks of one lift step in the order they are made
_OBSTRUCTIONS = (
    "face values escape the tree subcomplex at {key}",
    "degree-0 argument has nonzero class at {key}",
    "argument fails the cycle check at {key}",
    "nonzero top-degree obstruction at {key}",
    "chain-map identity fails at {key}, degree {g}",
)


def _located(proto, row):
    """A cell, given by its cell_index row, as lift failures are ordered
    and named: its part, its repr in that part's own vertex numbering,
    and that cell."""
    part, local = proto.part_of(proto.cell_index.keys[row])
    return part, repr(local), local


def lift_simplex(proto, jdim, rows, cache: LiftCache):
    """Extend the lift over the jdim-cells in places rows among the
    jdim-cells of cell_index, every lower dimension being lifted; stores
    their stack as cache.stacks[jdim].

    For each basis chain x in increasing degree the defining value is
    the contracting homotopy applied to
        m(dx (x) [cell]) + (-1)^{|x|} m(x (x) d[cell]);
    the argument is asserted to be an exact cycle (a boundary) before
    and after the solve.  Stacks, face rows and the order of errors are
    as the module docstring says; the stack stored is reduced.
    """
    gap = cache.gap
    top = gap.top
    if not 0 < jdim <= len(cache.stacks):
        raise ValueError("lift_simplex reads the lift of every lower dimension")
    faces, signs = (view[rows] for view in proto.face_rows[jdim])
    at = np.asarray(rows, dtype=np.intp) + proto.cell_index.offsets[jdim]
    trees, tree_of = np.unique(cache.tree_of[at], return_inverse=True)
    auxes = [_tree_aux(gap, cache.trees[t]) for t in trees.tolist()]
    n = len(at)
    out = []
    failed = []     # (failing cells, degree, check) of each check that fails

    def check(bad, g, which):
        if bad.any():
            failed.append((bad, g, which))

    for g in range(top + 1):
        zdeg = g + jdim - 1
        fnum, zden = cache.stacks[jdim - 1][g]
        z = (fnum[faces] * ((-1) ** g * signs[..., None, None])).sum(1)
        if g >= 1:
            pnum, pden = out[g - 1]
            d = gap.d(g)
            bden = pden * d.den
            den = math.lcm(zden, bden)
            z = z * (den // zden) + (pnum @ d.num) * (den // bden)
            zden = den
        if gap.dim_at(zdeg):
            off = np.stack([aux.outside[zdeg] for aux in auxes])[tree_of]
            check((z.astype(bool) & off[:, :, None]).any(axis=(1, 2)), g, 0)
            if zdeg == 0:
                check(_nonzero(np.stack([aux.pi0.num for aux in auxes])[tree_of] @ z), g, 1)
            else:
                check(_nonzero(gap.d(zdeg).num @ z), g, 2)
        if g + jdim > top:
            check(_nonzero(z), g, 3)
            out.append((np.zeros((n, 0, gap.dim_at(g)), dtype=object), 1))
            continue
        hnum, hden = _stacked([aux.h[zdeg] for aux in auxes])
        m, mden = _reduced(hnum[tree_of] @ z, hden * zden)
        # d m == z, cross-multiplied: (d.num @ m) / (d.den mden) == z / zden
        dt = gap.d(g + jdim)
        check(_nonzero((dt.num @ m) * zden - z * (dt.den * mden)), g, 4)
        out.append((m, mden))
    if failed:
        part, _, local, g, which = min((*_located(proto, at[i]), g, which)
                                       for bad, g, which in failed
                                       for i in np.flatnonzero(bad).tolist())
        raise LiftObstruction(_OBSTRUCTIONS[which].format(key=local, g=g), part=part)
    del cache.stacks[jdim:]
    cache.stacks.append(out)


@dataclass
class HyperCochain:
    """The analytical cochain: stacks[d] holds the degree-0 block of every
    d-cell of the domain, in cell_index order, as one float array (cells,
    rows, cols)."""

    gap: GapComplex
    domain: object
    stacks: list

    def block(self, key):
        cells = self.domain.cell_index
        dim = self.domain.dim_of(key)
        return self.stacks[dim][cells.position[key] - cells.offsets[dim]]


def cochain_chain_map_defect(cochain: HyperCochain):
    """Largest entry of eth(value) - sum of signed face values over all
    cells (0 if all are zero; NaN if a block is not finite): per dimension
    one eth of the stack, less the faces gathered through the face rows,
    one face at a time in boundary_of order, rounding as cell by cell."""
    stacks = cochain.stacks
    if not all(np.isfinite(stack).all() for stack in stacks):
        return math.nan
    peaks = []
    for dim, stack in enumerate(stacks):
        lhs = eth(GradedOperator(degree=dim, blocks={0: stack}), cochain.gap).blocks
        if dim:
            rows, signs = cochain.domain.face_rows[dim]
            faces = stacks[dim - 1][rows] * signs[:, :, None, None]
            for m in range(dim + 1):
                lhs[0] = lhs[0] - faces[:, m]
        peaks += [np.abs(blk).max() for blk in lhs.values() if blk.size]
    worst = np.max(peaks, initial=0.0)
    return float(worst) if worst else 0


def hypercurrent_homology(proto, cycles, classes):
    """Pair top cycles of the parameter domain with degree-p homology.

    cycles is a sequence of top cycles (each a mapping from a cell key to
    its coefficient), all paired over one lift; classes is a QMat whose
    columns are degree-p classes in the chosen basis.  Returns one
    (coordinates, chain) pair of QMats per cycle, one column per class:
    the coordinates of the paired chain's class in the chosen degree-q
    homology basis of the parent complex, and the paired chain.  The
    pairing reads the degree-0 block of each cycle cell's lift, whose
    Koszul sign is +1."""
    gap = proto.gap
    cycles = list(cycles)
    cells = proto.cell_index
    # per cycle, its first cell outside the top cells, else (row, coefficient) per cell
    strays = [next((k for k in map(tuple, c) if proto.dim_of(k) != gap.top
                    or k not in cells.position), None) for c in cycles]
    entries = [[] if stray is not None else [(cells.position[tuple(k)] - cells.offsets[gap.top],
                                              Fraction(v)) for k, v in c.items()]
               for c, stray in zip(cycles, strays)]
    # the coefficients as integers over one denominator, zeros padding
    width = max(map(len, entries), default=0)
    cden = math.lcm(1, *(f.denominator for e in entries for _, f in e))
    gather = np.zeros((len(cycles), width), dtype=np.intp)
    weights = np.zeros((len(cycles), width), dtype=object)
    for i, e in enumerate(entries):
        gather[i, :len(e)] = [row for row, _ in e]
        weights[i, :len(e)] = [f.numerator * (cden // f.denominator) for _, f in e]
    if width and gap.top:
        # one signed scatter over the face rows, cycle i's offset by i * stride
        rows, signs = proto.face_rows[gap.top]
        stride = cells.offsets[gap.top]
        at, where = np.unique(rows[gather] + stride * np.arange(len(cycles))[:, None, None],
                              return_inverse=True)
        bnd = np.zeros(len(at), dtype=object)
        np.add.at(bnd, where.ravel(), (weights[:, :, None] * signs[gather]).ravel())
        broken = set((at[bnd.astype(bool)] // stride).tolist())
        if any(i in broken and stray is None for i, stray in enumerate(strays)):
            raise NotACycle("parameter chain has nonzero boundary")
    stacks = proto.lift.stacks
    # the degree-p representative is a chain in degree 0 of the shifted complex
    rep = gap.parent_hp.representative(classes)
    for stray in (k for k in strays if k is not None):
        if proto.dim_of(stray) != gap.top:
            raise NotACycle("cycle has support outside the top dimension")
        raise NotACycle(f"cycle names {stray}, which is not a cell of the domain")
    # one contraction of the top stack's degree-0 numerators with every
    # cycle's coefficients, over the product of the denominators
    shape = (gap.dim_at(gap.top), gap.dim_at(0))
    if width:
        num, den = stacks[gap.top][0]
        total = (weights[:, :, None, None] * num[gather]).sum(axis=1)
    else:
        total, den = np.zeros((len(cycles),) + shape, dtype=object), 1
    # the paired chains side by side, one block of columns per cycle
    k = rep.shape[1]
    chains = QMat((total @ rep.num).transpose(1, 0, 2).reshape(shape[0], len(cycles) * k),
                  den * cden * rep.den)
    # with top 0 the output is a degree-p chain whose class lives in the
    # parent directly
    homology = gap.parent_hq if gap.top == 0 else gap.homology[gap.top]
    try:
        cls = homology.class_of(chains)
    except ValueError as exc:
        # the lift is a chain map, so the paired chain is a cycle
        raise InvariantBroken(f"paired chain: {exc}") from exc
    if gap.top != 0:
        cls = gap.hq_project @ cls
    return [(cls[:, i * k:(i + 1) * k], chains[:, i * k:(i + 1) * k]) for i in range(len(cycles))]
