"""The exact current as a cochain, the cell-by-cell chain-map defect,
and the cell structures and structural predictions the tests check the
exact route against.

hypercurrent_cochain signs every block of the lift cache with its Koszul
sign, so the exact cochain is a chain map with defect exactly zero; the
library's pairing reads only the degree-0 blocks, whose sign is +1.
chain_map_defect_oracle walks a cochain cell by cell through
boundary_of, the route the library's stacked defect is checked against.
lift_stacks gathers a lift cache's signature blocks to every cell, and
cell_blocks and cell_trees read its lift and trees by cell.
CubeCwDomain runs the same lift over the face poset of the cube's cells
instead of a triangulation.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from hypercurrent.complex_core import GapComplex, GradedOperator, eth
from hypercurrent.protocol import CellIndex, smallness
from hypercurrent.ratlin import QMat
from hypercurrent.topo_hyper import HyperCochain, build_lift_cache

from cell_weights import cube_corner_weight
from protocol_ops import boundary_of, levels_of


@dataclass
class CellCochain:
    """A cochain cell by cell: values maps a cell key to its GradedOperator,
    whose blocks may be QMats or float arrays."""

    gap: GapComplex
    domain: object
    values: dict


def cell_by_cell(coch: HyperCochain) -> CellCochain:
    """The analytical cochain's stacks read by cell: the blocks in place
    order, each with the key of its place."""
    blocks = (block for stack in coch.stacks for block in stack)
    return CellCochain(coch.gap, coch.domain, {
        key: GradedOperator(degree=coch.domain.dim_of(key), blocks={0: block})
        for key, block in zip(coch.domain.cell_index.keys, blocks)})


def chain_map_defect_oracle(cochain):
    """Largest entry of eth(value) - sum of signed face values, one cell and
    one face at a time in boundary_of order: exactly zero (the int 0) for
    a chain map, NaN when some entry is NaN.  Takes a CellCochain, or the
    library's HyperCochain read by cell."""
    if isinstance(cochain, HyperCochain):
        cochain = cell_by_cell(cochain)
    gap = cochain.gap

    def block(op, g):
        # a missing block is an exact zero
        return op.blocks.get(g, QMat.zeros(gap.dim_at(g + op.degree), gap.dim_at(g)))

    def minus(a, b):
        # exact between QMats; a QMat meets a float block as its float copy
        if isinstance(a, QMat) and isinstance(b, QMat):
            return a - b
        return (a.to_float() if isinstance(a, QMat) else a) - (b.to_float() if isinstance(b, QMat) else b)

    peaks = [0]
    for key, op in cochain.values.items():
        lhs = eth(op, gap)
        blocks = [block(lhs, g) for g in range(gap.top + 1)]
        for fsign, fkey in boundary_of(cochain.domain, key):
            fop = cochain.values[fkey]
            blocks = [minus(blk, fsign * block(fop, g)) for g, blk in enumerate(blocks)]
        entries = [np.abs(np.array(blk.to_rows(), dtype=object).reshape(blk.shape))
                   if isinstance(blk, QMat) else np.abs(blk) for blk in blocks]
        peaks += [e.max() for e in entries if e.size]
    if any(p != p for p in peaks):
        return math.nan
    return max(peaks)


def lift_stacks(proto, cache):
    """The lift cache's whole stacks: per cell dimension and input degree,
    the numerators of every cell (cell, rows, cols), in cell_index order,
    over their signatures' denominator."""
    offsets = proto.cell_index.offsets
    return [[(num[cache.signatures[a:b]], den) for num, den in blocks]
            for blocks, a, b in zip(cache.blocks, offsets, offsets[1:])]


def cell_blocks(proto, cache):
    """The lift cache's stacks by cell: a cell key -> its lowest-terms
    QMats, one per input degree."""
    cells = proto.cell_index
    return {cells.keys[cells.offsets[d] + i]: tuple(QMat(num[i].astype(object), den)
                                                   for num, den in stack)
            for d, stack in enumerate(lift_stacks(proto, cache)) for i in range(len(stack[0][0]))}


def cell_trees(proto, cache):
    """The lift cache's trees by cell: a cell key -> its tree."""
    return dict(zip(proto.cell_index.keys, map(cache.trees.__getitem__, cache.tree_of.tolist())))


def hypercurrent_cochain(proto) -> CellCochain:
    """The exact current cochain: on a cell of dimension j the operator
    sends a degree-g chain to the lift of (chain (x) [cell]), with the
    Koszul sign making the boundary identity hold with plain simplicial
    boundary signs."""
    cache = build_lift_cache(proto)
    gap = cache.gap
    values = {}
    for key, mats in cell_blocks(proto, cache).items():
        jdim = proto.dim_of(key)
        blocks = {g: mats[g] * (-1) ** (jdim * g) for g in range(gap.top + 1)}
        values[key] = GradedOperator(degree=jdim, blocks=blocks)
    return CellCochain(gap=gap, domain=proto, values=values)


@dataclass(frozen=True)
class CubeCwDomain:
    """Boundary of the cube [-1,1]^n as a regular CW complex.

    Cells are patterns over the axes with entries -1, +1 (fixed) or None
    (free); at least one axis is fixed.  Weights live on the corners,
    exactly as in the triangulated cube protocol with unflipped levels.
    """

    gap: GapComplex
    n: int

    @cached_property
    def certificate(self):
        return smallness(self)

    @cached_property
    def lift(self):
        return build_lift_cache(self)

    @cached_property
    def cell_index(self):
        """The cells by dimension, each cell's corners (in vertices_of order)
        as a row; the vertices are the 0-cells, the corners, in their
        all_cells order.  Its keys are the cells' patterns."""
        keys = tuple(self.all_cells())
        corner = {c: i for i, c in enumerate(c for c in keys if self.dim_of(c) == 0)}
        index = CellIndex(np.array([[corner[v] for v in self.vertices_of(c)] for c in keys
                                    if self.dim_of(c) == d], dtype=np.intp).reshape(-1, 2 ** d)
                          for d in range(self.n))
        index.keys = keys
        return index

    def place_of(self, key):
        return self._places.get(key)

    @cached_property
    def _places(self):
        return dict(zip(self.cell_index.keys, itertools.count()))

    @cached_property
    def face_rows(self):
        """Per dimension, the faces of its cells as rows among the cells one
        dimension down, with their signs, in boundary_of order."""
        index = self.cell_index
        out = [(np.zeros((index.offsets[1], 0), dtype=np.intp),) * 2]
        for d in range(1, self.n):
            lo, a, b = index.offsets[d - 1:d + 2]
            bnd = [self.boundary_of(c) for c in index.keys[a:b]]
            out.append((np.array([[self.place_of(f) - lo for _, f in faces] for faces in bnd],
                                 dtype=np.intp),
                        np.array([[s for s, _ in faces] for faces in bnd], dtype=np.intp)))
        return tuple(out)

    @cached_property
    def level_weights(self):
        """The corners' weights, in their cell_index order."""
        index = self.cell_index
        return levels_of([cube_corner_weight(self.gap, c, (1,) * self.n)
                          for c in index.keys[:index.offsets[1]]])

    def all_cells(self):
        cells = []
        for free_count in range(self.n):
            for free_axes in itertools.combinations(range(self.n), free_count):
                fixed_axes = [a for a in range(self.n) if a not in free_axes]
                for vals in itertools.product((-1, 1), repeat=len(fixed_axes)):
                    pattern = [None] * self.n
                    for a, v in zip(fixed_axes, vals):
                        pattern[a] = v
                    cells.append(tuple(pattern))
        return sorted(cells, key=lambda c: (sum(1 for v in c if v is None), str(c)))

    def dim_of(self, key):
        return sum(1 for v in key if v is None)

    def boundary_of(self, key):
        out = []
        m = 0
        for a, v in enumerate(key):
            if v is not None:
                continue
            base = (-1) ** m
            plus = tuple(1 if i == a else key[i] for i in range(self.n))
            minus = tuple(-1 if i == a else key[i] for i in range(self.n))
            out.append((base, plus))
            out.append((-base, minus))
            m += 1
        return out

    def vertices_of(self, key):
        free = [a for a, v in enumerate(key) if v is None]
        corners = []
        for vals in itertools.product((-1, 1), repeat=len(free)):
            c = list(key)
            for a, v in zip(free, vals):
                c[a] = v
            corners.append(tuple(c))
        return corners

    def part_of(self, key):
        return 0, key

    def fundamental_cycle(self):
        """The top cell fixing axis a at v has coefficient v * (-1)**a, up
        to the overall sign that makes the first top cell +1."""
        tops = [c for c in self.all_cells() if self.dim_of(c) == self.n - 1]
        coeffs = [next(v * (-1) ** a for a, v in enumerate(c) if v is not None) for c in tops]
        return {t: coeffs[0] * c for t, c in zip(tops, coeffs)}


def cube_cw_domain(gap: GapComplex):
    return CubeCwDomain(gap=gap, n=gap.q - gap.p + 1)


def cube_cellular_cochain(gap: GapComplex):
    """The regular-CW variant on the cube boundary domain: the same
    lifting run over the face poset of the cube's cells instead of a
    triangulation.  Returns (domain, cochain)."""
    dom = cube_cw_domain(gap)
    return dom, hypercurrent_cochain(dom)


def addendum_predicts_trivial(x, p, q):
    """Structural sufficient conditions for a forced-trivial pairing:
    a trivial boundary operator inside the gap range, or a level with
    at most one cell."""
    for j in range(p, q + 1):
        if x.n_cells(j) <= 1:
            return True
    for j in range(p, q):
        if x.d(j + 1).is_zero():
            return True
    return False
