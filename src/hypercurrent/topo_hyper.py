"""The exact rational current construction on a parameter domain.

Every cell of a good parameter domain gets a preferred tree (greedy at
the least injective level); vertices get a canonical chain map into
their tree's subcomplex, and higher cells extend it degreewise through
the contracting homotopy of the tree subcomplex.  All arithmetic is
exact (ratlin.QMat: integer numerators over one denominator) and the
chain-map identity is asserted at each step, so the lift is
reproducible bit for bit.

The pairing of a top cycle with degree-p classes reads the degree-0
blocks of the cycle cells' lifts straight from the lift cache's top
stack (their Koszul sign is +1).  A HyperCochain holds the analytical
route's cochain, whose distance from a chain map
cochain_chain_map_defect measures; the tests build the exact cochain
from the lift cache, with the Koszul sign on every block, as the
defect's zero reference.

The lift stays stacked to the end.  Each dimension, vertices included,
is one stack per degree: object arrays of numerators over one
denominator, with a cell key -> row index.  lift_simplex gathers a
dimension's face values from the previous dimension's stack and runs
every product and check on the whole stack; the pairing contracts the
top stack's degree-0 numerators with the cycle's coefficients and
reduces once.  A cell's lowest-terms QMats, equal to a cell-by-cell
lift's, are built only when LiftCache.values is read at that cell.  If
checks fail, the error raised is the one a cell-by-cell pass in
(dim, repr) order meets first: earliest cell, then degree, then check
(support, class or cycle, top degree, chain-map identity).

A domain that is a disjoint union of parts (the transversal spheres of
a chunk of weight-space cells) is lifted as one domain, so each stack
holds every part's cells of its dimension.  Failures are then ordered
by dimension, part, and repr of the cell in its part's own vertex
numbering; the LiftObstruction names the cell that way and carries its
part.  hypercurrent_homology pairs many cycles over one lift: one
gather and contraction of the top stack for all of them and one
class_of on their paired chains side by side.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .complex_core import GapComplex, contraction, eth
from .errors import InvariantBroken, LiftObstruction, NotACycle, NotGood, NotSmall
from .forests import DTree, greedy_dtree
from .ratlin import QMat

__all__ = [
    "LiftCache",
    "HyperCochain",
    "tree_functor",
    "lift_simplex",
    "build_lift_cache",
    "cochain_chain_map_defect",
    "hypercurrent_homology",
    "cycle_boundary_defect",
]


def _tree_masks(gap: GapComplex, tree: DTree):
    """Per degree, the indices of the tree subcomplex's cells."""
    ld = tree.level - gap.p
    idx = sorted(gap.parent.cell_index(tree.level, nm) for nm in tree.cells)
    masks = []
    for j in range(gap.top + 1):
        if j < ld:
            masks.append(range(gap.dim_at(j)))
        elif j == ld:
            masks.append(idx)
        else:
            masks.append([])
    return [np.array(m, dtype=np.intp) for m in masks]


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
        bnds = [None] + [gap.d(j)[np.ix_(self.masks[j - 1], self.masks[j])]
                         for j in range(1, ld + 1)]
        contr = contraction(dims_sub, bnds)
        # ambient-shaped homotopy, one matrix per degree 0..top-1
        self.h = [self._embed(j + 1, j, contr.h[j] if j < ld else None) for j in range(gap.top)]
        self.pi0 = self._embed(0, 0, contr.pi0)
        self.outside = []
        for j in range(gap.top + 1):
            off = np.ones(gap.dim_at(j), dtype=bool)
            off[self.masks[j]] = False
            self.outside.append(off)
        self.phi = self._vertex_lift()

    def _embed(self, r, c, sub):
        """The block sub from the tree's degree-c cells to its degree-r
        cells as an ambient QMat; None is zero."""
        gap = self.gap
        out = np.zeros((gap.dim_at(r), gap.dim_at(c)), dtype=object)
        if sub is None:
            return QMat(out)
        out[np.ix_(self.masks[r], self.masks[c])] = sub.num
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


class _Stack(NamedTuple):
    """The lift of cells of one dimension: per input degree, numerators
    (cell, rows, cols) over one denominator; row maps a cell key to its
    place in keys."""

    keys: tuple
    row: dict
    blocks: list    # (num, den) per input degree


class _CellBlocks(Mapping):
    """Read-only view of the stacks by cell: a cell's lowest-terms QMats,
    one per input degree, built when the cell is first read."""

    def __init__(self, stacks):
        self._stacks = stacks
        self._built = {}

    def __getitem__(self, key):
        if key in self._built:
            return self._built[key]
        for stack in self._stacks:
            i = stack.row.get(key)
            if i is not None:
                out = tuple(QMat(num[i], den) for num, den in stack.blocks)
                self._built[key] = out
                return out
        raise KeyError(key)

    def __iter__(self):
        for stack in self._stacks:
            yield from stack.keys

    def __len__(self):
        return sum(len(stack.keys) for stack in self._stacks)


@dataclass
class LiftCache:
    """Per-cell chain maps m(x (x) [cell]) in ambient coordinates.

    stacks[d] holds the lift of the d-cells, vertices included, as one
    stack of numerators over one denominator per input degree with a
    cell key -> row index; the next dimension gathers its faces from it
    and the pairing contracts the top one.  values[key][g] maps degree-g
    basis chains to degree g+dim(cell) chains supported on the cell's
    tree subcomplex, as a lowest-terms QMat built from the stack when
    the cell is first read.
    """

    gap: GapComplex
    trees: dict       # cell key -> DTree
    values: Mapping   # cell key -> tuple of QMat, one per input degree
    stacks: list = field(default_factory=list, repr=False, compare=False)


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


def build_lift_cache(proto) -> LiftCache:
    gap = proto.gap
    cert = proto.certificate
    cells = proto.cell_index
    keys = cells.keys
    if cert.least.min() < 0:
        # the cell a cell-by-cell pass in (dim, repr) order meets first
        bad = (keys[i] for i in np.flatnonzero(cert.least < 0))
        first = min(bad, key=lambda c: (proto.dim_of(c), repr(c)))
        raise NotGood(f"cell {first} is not small")
    # the tree depends only on the cell's first vertex and its level
    at = list(zip(cells.vertices[:, 0].tolist(), cert.least.tolist()))
    found = {}
    for a, key in zip(at, keys):
        if a not in found:
            found[a] = tree_functor(proto, key)
    trees = dict(zip(keys, map(found.__getitem__, at)))
    stacks = []
    cache = LiftCache(gap=gap, trees=trees, values=_CellBlocks(stacks), stacks=stacks)
    vertices = keys[cells.offsets[0]:cells.offsets[1]]
    distinct, tree_of = _tree_positions(trees, vertices)
    phis = [_tree_aux(gap, tree).phi for tree in distinct]
    blocks = []
    for g in range(gap.top + 1):
        num, den = _stacked([phi[g] for phi in phis])
        blocks.append((num[tree_of], den))
    stacks.append(_Stack(vertices, dict(zip(vertices, range(len(vertices)))), blocks))
    for a, b in zip(cells.offsets[1:], cells.offsets[2:]):
        lift_simplex(proto, keys[a:b], cache)
    return cache


def _tree_positions(trees, keys):
    """The distinct trees of the cells keys, in order of first appearance,
    and each cell's position among them."""
    per_key = list(map(trees.__getitem__, keys))
    ids = list(map(id, per_key))
    distinct = dict(zip(ids, per_key))
    pos = dict(zip(distinct, range(len(distinct))))
    return list(distinct.values()), np.fromiter(map(pos.__getitem__, ids), np.intp, len(ids))


def _stacked(mats):
    """QMats of one shape as numerators over their common denominator,
    stacked along a leading axis."""
    den = math.lcm(*(m.den for m in mats))
    return np.stack([m.num * (den // m.den) for m in mats]), den


def _reduced(num, den):
    """A stack over den with the factor common to den and all entries
    divided out."""
    g = math.gcd(den, *num.flat)
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


def _located(proto, key):
    """A cell as lift failures are ordered and named: its part, its repr in
    that part's own vertex numbering, and that cell."""
    part, local = proto.part_of(key)
    return part, repr(local), local


def lift_simplex(proto, keys, cache: LiftCache):
    """Extend the lift over the cells keys, all of one dimension j, all
    lower dimensions being done; stores their stack as cache.stacks[j].

    For each basis chain x in increasing degree the defining value is
    the contracting homotopy applied to
        m(dx (x) [cell]) + (-1)^{|x|} m(x (x) d[cell]);
    the argument is asserted to be an exact cycle (a boundary) before
    and after the solve, in exact arithmetic.  The cells are lifted as
    one stack per degree: face values are gathered from the stack of
    dimension j-1 and each tree's homotopy acts on its cells at once.
    When checks fail the error names the failure a cell-by-cell pass in
    (dim, repr) order would meet first: earliest cell, then degree, then
    check, with cells of a domain of several parts ordered by part first
    (see the module docstring).
    """
    gap = cache.gap
    top = gap.top
    keys = tuple(keys)
    jdim = proto.dim_of(keys[0])
    if set(map(proto.dim_of, keys)) != {jdim}:
        raise ValueError("lift_simplex takes cells of one dimension")
    fstack = cache.stacks[jdim - 1]
    # one cell's boundary at a time: the faces' rows in the stack below
    counts, faces, signs = [], [], []
    for key in keys:
        bnd = proto.boundary_of(key)
        counts.append(len(bnd))
        for sign, face in bnd:
            signs.append(sign)
            faces.append(fstack.row[face])
    cells = np.repeat(np.arange(len(keys)), counts)
    faces = np.array(faces, dtype=np.intp)
    signs = np.array(signs, dtype=object)[:, None, None]
    trees, tree_of = _tree_positions(cache.trees, keys)
    auxes = [_tree_aux(gap, tree) for tree in trees]
    n = len(keys)
    out = []
    failed = []     # (failing cells, degree, check) of each check that fails

    def check(bad, g, which):
        if bad.any():
            failed.append((bad, g, which))

    for g in range(top + 1):
        ng = gap.dim_at(g)
        zdeg = g + jdim - 1
        rows = gap.dim_at(zdeg)
        fnum, zden = fstack.blocks[g]
        z = np.zeros((n, rows, ng), dtype=object)
        np.add.at(z, cells, fnum[faces] * (signs * (-1) ** g))
        if g >= 1:
            pnum, pden = out[g - 1]
            d = gap.d(g)
            bden = pden * d.den
            den = math.lcm(zden, bden)
            z = z * (den // zden) + (pnum @ d.num) * (den // bden)
            zden = den
        if rows:
            off = np.stack([aux.outside[zdeg] for aux in auxes])[tree_of]
            check((z.astype(bool) & off[:, :, None]).any(axis=(1, 2)), g, 0)
            if zdeg == 0:
                pi0 = np.stack([aux.pi0.num for aux in auxes])[tree_of]
                check(_nonzero(pi0 @ z), g, 1)
            else:
                check(_nonzero(gap.d(zdeg).num @ z), g, 2)
        if g + jdim > top:
            check(_nonzero(z), g, 3)
            out.append((np.zeros((n, 0, ng), dtype=object), 1))
            continue
        hnum, hden = _stacked([aux.h[zdeg] for aux in auxes])
        m, mden = _reduced(hnum[tree_of] @ z, hden * zden)
        d = gap.d(g + jdim)
        # d m == z, cross-multiplied: (d.num @ m) / (d.den mden) == z / zden
        check(_nonzero((d.num @ m) * zden - z * (d.den * mden)), g, 4)
        out.append((m, mden))
    if failed:
        part, _, local, g, which = min((*_located(proto, keys[i]), g, which)
                                       for bad, g, which in failed
                                       for i in np.flatnonzero(bad).tolist())
        raise LiftObstruction(_OBSTRUCTIONS[which].format(key=local, g=g), part=part)
    del cache.stacks[jdim:]
    cache.stacks.append(_Stack(keys, dict(zip(keys, range(n))), out))


@dataclass
class HyperCochain:
    """Assignment of a graded operator to every cell of the domain."""

    gap: GapComplex
    domain: object
    values: dict   # cell key -> GradedOperator


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


def hypercurrent_homology(proto, cycle, class_p):
    """Pair a top cycle of the parameter domain with degree-p homology:
    class_p is one class (a list of coordinates) or a QMat whose columns
    are classes.  Returns their coordinates in the chosen degree-q
    homology basis of the parent complex (a list, or a QMat of columns)
    and the paired chain.  The pairing reads the degree-0 block of each
    cycle cell's lift, whose Koszul sign is +1.

    cycle may also be a sequence of cycles, all paired over one lift;
    the result is then a list of (coordinates, chain), one per cycle."""
    gap = proto.gap
    one = isinstance(cycle, Mapping)
    cycles = [cycle] if one else list(cycle)
    for c in cycles:
        if cycle_boundary_defect(proto, c):
            raise NotACycle("parameter chain has nonzero boundary")
    stacks = build_lift_cache(proto).stacks
    top = stacks[gap.top] if gap.top < len(stacks) else None
    # the degree-p representative is a chain in degree 0 of the shifted complex
    as_list = not isinstance(class_p, QMat)
    if as_list:
        class_p = [Fraction(c) for c in class_p]
    rep = gap.parent_hp.representative(class_p)
    if as_list:
        rep = QMat.from_rows([[v] for v in rep], (len(rep), 1))
    entries = []    # per cycle, (row in the top stack, coefficient) per cell
    for c in cycles:
        entries.append([])
        for key, coeff in c.items():
            key = tuple(key)
            if proto.dim_of(key) != gap.top:
                raise NotACycle("cycle has support outside the top dimension")
            if top is None or key not in top.row:
                raise NotACycle(f"cycle names {key}, which is not a cell of the domain")
            entries[-1].append((top.row[key], Fraction(coeff)))
    # one contraction of the top stack's degree-0 numerators with every
    # cycle's coefficients (zeros pad the shorter cycles), over the product
    # of the denominators
    shape = (gap.dim_at(gap.top), gap.dim_at(0))
    width = max(map(len, entries), default=0)
    cden = math.lcm(1, *(f.denominator for e in entries for _, f in e))
    gather = np.zeros((len(cycles), width), dtype=np.intp)
    weights = np.zeros((len(cycles), width), dtype=object)
    for i, e in enumerate(entries):
        gather[i, :len(e)] = [row for row, _ in e]
        weights[i, :len(e)] = [f.numerator * (cden // f.denominator) for _, f in e]
    if width:
        num, den = top.blocks[0]
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
    out = []
    for i in range(len(cycles)):
        pair = cls[:, i * k:(i + 1) * k], chains[:, i * k:(i + 1) * k]
        out.append(tuple(m[:, 0] for m in pair) if as_list else pair)
    return out[0] if one else out
