"""Combinatorics of the good and robust weight spaces.

The good weights deformation-retract onto order types, which gives the
wedge count as a product over levels; the complement is stratified by
height data (ordered partitions of the cells per level).  Top cells of
that stratification carry one tied pair per level; a small transversal
cube around a generic center resolves the ties and its boundary is a
good protocol whose pairing decides whether the cell is essential.

The top cells of one gap are classified in chunks of _CHUNK cells.  A
chunk's transversal spheres form one protocol, the disjoint union of
their cubes, which is certified once, lifted once (one stacked pass per
cell dimension) and paired once with every cube's cycle; the results
equal those of one cell at a time.  A lift failure in a chunk names the
cube's top cell and the failing cell in the cube's own vertex
numbering; of several, the lowest dimension, then the earliest cube,
then repr order within the cube decides.
"""

import itertools
import math
from dataclasses import dataclass

from . import ratlin
from .complex_core import CwComplex, GapComplex, gap_complex
from .errors import EpsilonTooLarge, LiftObstruction
from .protocol import WeightPoint, cube_boundary_protocol, is_good
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

    @property
    def is_top(self):
        for lvl in self.blocks:
            sizes = sorted(len(b) for b in lvl)
            if sizes != [1] * (len(lvl) - 1) + [2]:
                return False
        return True


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


def _center_weights(x: CwComplex, cell: HeightData):
    """Block ranks as weights; tied pair equal."""
    centers = []
    for j in range(cell.p, cell.q + 1):
        vals = {}
        for rank, block in enumerate(cell.level(j)):
            for nm in block:
                vals[nm] = float(rank)
        centers.append(tuple(vals[nm] for nm in x.cells[j]))
    return centers


def _corner_weights(gap: GapComplex, cell: HeightData, eps):
    """The corner-to-weights map of one top cell's transversal cube, after
    the checks a transversal sphere makes on the cell and eps."""
    if not cell.is_top:
        raise ValueError("transversal spheres are built over top cells only")
    if not (eps > 0 and math.isfinite(eps)):
        raise EpsilonTooLarge(f"eps must be finite and positive, got {eps}")
    x, p, q = gap.parent, gap.p, gap.q
    centers = _center_weights(x, cell)
    min_gap = None
    for j in range(p, q + 1):
        ranks = sorted(set(centers[j - p]))
        for a, b in zip(ranks, ranks[1:]):
            d = b - a
            min_gap = d if min_gap is None else min(min_gap, d)
    if min_gap is not None and not eps < min_gap / 2:
        raise EpsilonTooLarge(f"eps = {eps} is not below half the center gap {min_gap}")
    perturbed = []
    for j in range(p, q + 1):
        pair = next(b for b in cell.level(j) if len(b) == 2)
        later = max(pair, key=lambda nm: x.cell_index(j, nm))
        perturbed.append(x.cell_index(j, later))

    def corner_weight(corner):
        vals = []
        for j in range(p, q + 1):
            row = list(centers[j - p])
            row[perturbed[j - p]] += eps * corner[j - p]
            vals.append(tuple(row))
        return WeightPoint(p, q, tuple(vals))

    return corner_weight


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
    proto = cube_boundary_protocol(gap, [_corner_weights(gap, c, eps) for c in cells])
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
    units = QMat.identity(gap.parent_hp.betti)
    try:
        pairs = hypercurrent_homology(proto, proto.part_cycles(), units)
    except LiftObstruction as exc:
        if exc.part is None:
            raise
        raise LiftObstruction(f"transversal sphere of top cell {cells[exc.part].blocks}: {exc}",
                              part=exc.part) from exc
    reports = []
    for c, (coords, _) in zip(cells, pairs):
        current = tuple(map(tuple, coords.to_rows()))
        reports.append(DiscriminantCellReport(
            height=c,
            dimension=c.dimension,
            current_matrix=current,
            essential=any(v != 0 for row in current for v in row),
        ))
    return reports


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
    width = gap.parent_hq.betti * gap.parent_hp.betti
    flat = [[v for row in rep.current_matrix for v in row] for rep in cells]
    d = ratlin.rank(QMat.from_rows(flat, (len(cells), width)))
    return RobustReport(summands=c, contractible=False, cells=tuple(cells), robust_summands=d)
