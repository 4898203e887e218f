"""Combinatorics of the good and robust weight spaces.

The good weights deformation-retract onto order types, which gives the
wedge count as a product over levels; the complement is stratified by
height data (ordered partitions of the cells per level).  Top cells of
that stratification carry one tied pair per level; a small transversal
cube around a generic center resolves the ties and its boundary is a
good protocol whose pairing decides whether the cell is essential.

The top cells of one gap are classified in chunks of _CHUNK cells.  A
chunk's transversal spheres form one protocol, the disjoint union of
their cubes, built from arrays: each level's ordered partitions become
rows of block ranks (kept by the gap), checked as arrays, and every
cube's corner weights are one stacked array per level.  The union is
certified once and lifted once (one stacked pass per cell dimension).
Every cube's cycle has the same coefficients, so its current is a
function of its top cells' signature numbers in order: one cube per
distinct tuple is paired, its cycle given by its top cells' places, and
the cubes of a tuple share its current matrix, converted to Fractions
once.  The results equal those of one cell at a time.  A lift failure in
a chunk names the cube's top cell and the failing cell in the cube's own
vertex numbering; of several, the lowest dimension, then the earliest
cube, then repr order within the cube decides.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ratlin
from .complex_core import CwComplex, GapComplex, gap_complex
from .errors import EpsilonTooLarge, LiftObstruction
from .protocol import cube_boundary_protocol, cube_corners, is_good
from .ratlin import QMat
from .topo_hyper import hypercurrent_homology

__all__ = [
    "HeightData",
    "DiscriminantCellReport",
    "RobustReport",
    "good_summand_count",
    "enumerate_top_discriminant_cells",
    "transversal_sphere",
    "classify_cell",
    "classify_top_cells",
]

# top cells classified over one union and one lift.  Memory grows with
# the chunk, time hardly falls past a few hundred cells: on K4 at (0, 1),
# 64 800 cells on a 2-core Xeon, chunks of 256, 1024, 2048 and 4096 cells
# peaked at 101, 102, 103 and 125 MB, each run taking 10-11.5 s
_CHUNK = 1024


@dataclass(frozen=True)
class HeightData:
    """Per level, an ordered partition of the cells (blocks listed from
    lowest to highest weight)."""

    p: int
    q: int
    blocks: tuple   # blocks[j-p] = tuple of tuples of cell names

    def level(self, j):
        return self.blocks[j - self.p]

    @property
    def dimension(self):
        return sum(len(lvl) for lvl in self.blocks)


@dataclass(frozen=True)
class DiscriminantCellReport:
    height: HeightData
    dimension: int
    current_matrix: tuple   # rows indexed by degree-q classes, columns by degree-p classes
    essential: bool


@dataclass(frozen=True)
class RobustReport:
    """Every top cell of (x, p, q), classified over one gap.  The cells'
    transversal spheres span H_{L-1} of the good weights, of rank c =
    summands; the robust count d is the rank over Q of the hypercurrent
    map on it, i.e. of the flattened current matrices of the cells."""

    summands: int
    contractible: bool
    cells: tuple          # DiscriminantCellReport per top cell
    robust_summands: int

    @property
    def inessential(self):
        return self.summands - self.robust_summands


def good_summand_count(x: CwComplex, p, q):
    """(product of (n_j! - 1), contractible flag); a level with at most
    one cell collapses the whole good weight space."""
    if any(x.n_cells(j) <= 1 for j in range(p, q + 1)):
        return 0, True
    out = 1
    for j in range(p, q + 1):
        out *= math.factorial(x.n_cells(j)) - 1
    return out, False


def enumerate_top_discriminant_cells(x: CwComplex, p, q):
    """All height data with exactly one two-block per level; there are
    prod_j C(n_j, 2) (n_j - 1)! of them."""
    per_level = []
    for j in range(p, q + 1):
        cells = x.cells[j]
        level_options = []
        for pair in itertools.combinations(cells, 2):
            rest = [c for c in cells if c not in pair]
            blocks = [tuple(pair)] + [(c,) for c in rest]
            for order in itertools.permutations(blocks):
                level_options.append(tuple(order))
        per_level.append(level_options)
    out = []
    for combo in itertools.product(*per_level):
        out.append(HeightData(p=p, q=q, blocks=tuple(combo)))
    return out


def _partition(x: CwComplex, j, lvl):
    """An ordered partition of level j's cells as one row: 1 if it is one
    tied pair and singletons (else 0 and no more), the least gap between
    its blocks' ranks 0, 1, ... (inf for one block), the cell_index of the
    later member of the tied pair, and the block ranks as cell weights."""
    if sorted(map(len, lvl)) != [1] * (len(lvl) - 1) + [2]:
        return (0.0, math.inf, 0.0) + (0.0,) * x.n_cells(j)
    ranks = [0.0] * x.n_cells(j)
    for rank, block in enumerate(lvl):
        for nm in block:
            ranks[x.cell_index(j, nm)] = float(rank)
    later = max(x.cell_index(j, nm) for nm in next(b for b in lvl if len(b) == 2))
    return (1.0, 1.0 if len(lvl) > 1 else math.inf, float(later), *ranks)


def _corner_weights(gap: GapComplex, cells, eps):
    """Per level p..q, the corner weights of the cells' transversal cubes
    as one array (cells, 2^(q-p+1), n_cells): block ranks as the center,
    and the later member of the level's tied pair moved by eps times the
    corner's coordinate on the level's axis.  Each level's partitions are
    rows of _partition, kept by the gap, and the checks run on them
    first: of the cells that fail one, the earliest raises, not top before
    eps that is not finite and positive before eps not below half the
    least gap between block ranks."""
    x, p, q = gap.parent, gap.p, gap.q
    levels = []
    for j in range(p, q + 1):
        seen = gap.derived(("partitions", j), dict)
        rows = [seen.get(lvl) or seen.setdefault(lvl, _partition(x, j, lvl))
                for lvl in (c.level(j) for c in cells)]
        levels.append(np.array(rows).reshape(len(cells), 3 + x.n_cells(j)))
    top = np.logical_and.reduce([rows[:, 0] == 1 for rows in levels])
    least = np.min([rows[:, 1] for rows in levels], axis=0)
    finite = eps > 0 and math.isfinite(eps)
    fails = ~top | (not finite) | ~(eps < least / 2)
    if fails.any():
        first = fails.argmax()
        if not top[first]:
            raise ValueError("transversal spheres are built over top cells only")
        if not finite:
            raise EpsilonTooLarge(f"eps must be finite and positive, got {eps}")
        raise EpsilonTooLarge(f"eps = {eps} is not below half the center gap {least[first]}")
    corners = cube_corners(q - p + 1)
    out = []
    for axis, rows in enumerate(levels):
        weights = np.repeat(rows[:, None, 3:], len(corners), axis=1)
        weights[np.arange(len(cells)), :, rows[:, 2].astype(np.intp)] += eps * corners[:, axis]
        out.append(weights)
    return out


def transversal_sphere(gap: GapComplex, cells, eps=0.25):
    """A good protocol over gap on the boundary of the transversal cubes
    of a sequence of top cells, the disjoint union of their transversal
    spheres, one part per cell in the given order.  A cell's cube is
    centered at a point realizing its height data, and the later member
    of each level's tied pair is perturbed by +-eps along that level's
    cube axis.  The cells are checked in order; a union that is not good
    names the first offending cell in cell_index order by its top cell
    and its place in that cube."""
    cells = list(cells)
    proto = cube_boundary_protocol(gap, _corner_weights(gap, cells, eps))
    ok, offender = is_good(proto)
    if not ok:
        part, local = proto.part_of(offender)
        raise EpsilonTooLarge(f"resolved protocol of top cell {cells[part].blocks} "
                              f"is not good at {local}")
    return proto


def classify_cell(gap: GapComplex, cells, eps=0.25):
    """Pair the transversal spheres of a sequence of top cells, over one
    union of them, against every degree-p class at once; a cell is
    essential iff some value is nonzero.  Returns one report per cell; a
    lift failure is named as the module docstring says."""
    cells = list(cells)
    if not cells:
        return []
    proto = transversal_sphere(gap, cells, eps)
    try:
        tops = proto.lift.signatures[proto.cell_index.offsets[-2]:].reshape(len(cells), -1)
    except LiftObstruction as exc:
        if exc.part is None:
            raise
        raise LiftObstruction(f"transversal sphere of top cell {cells[exc.part].blocks}: {exc}",
                              part=exc.part) from exc
    # each cube's current is a function of its top cells' signatures, in
    # order, as every cube's cycle has the same coefficients: pair the
    # first cube of each tuple, and share its current and its Fractions
    first = {}
    group = [first.setdefault(sigs, i) for i, sigs in enumerate(map(tuple, tops.tolist()))]
    (places, coeffs), n = proto.cycle_by_place, tops.shape[1]
    cycles = [(places[i * n:(i + 1) * n], coeffs[i * n:(i + 1) * n]) for i in first.values()]
    pairs = hypercurrent_homology(proto, cycles, QMat.identity(gap.parent_hp.betti))
    current = {i: tuple(map(tuple, coords.to_rows()))
               for i, (coords, _) in zip(first.values(), pairs)}
    essential = {i: any(v != 0 for row in m for v in row) for i, m in current.items()}
    return [DiscriminantCellReport(height=c, dimension=c.dimension, current_matrix=current[i],
                                   essential=essential[i]) for c, i in zip(cells, group)]


def classify_top_cells(x: CwComplex, p, q, eps=0.25) -> RobustReport:
    """Classify every top discriminant cell over one gap complex and take
    the rank of their current matrices; a contractible good weight space
    has no summands and classifies no cell.  (p, q) must be a gap of x
    either way.  The cells are classified _CHUNK at a time."""
    gap = gap_complex(x, p, q)
    c, contractible = good_summand_count(x, p, q)
    if contractible:
        return RobustReport(summands=c, contractible=True, cells=(), robust_summands=0)
    tops = enumerate_top_discriminant_cells(x, p, q)
    cells = []
    for a in range(0, len(tops), _CHUNK):
        cells.extend(classify_cell(gap, tops[a:a + _CHUNK], eps))
    # the rank over the distinct matrices: the cubes of one tuple share theirs
    width = gap.parent_hq.betti * gap.parent_hp.betti
    distinct = dict.fromkeys({id(rep.current_matrix): rep.current_matrix for rep in cells}.values())
    flat = [[v for row in m for v in row] for m in distinct]
    d = ratlin.rank(QMat.from_rows(flat, (len(flat), width)))
    return RobustReport(summands=c, contractible=False, cells=tuple(cells), robust_summands=d)
