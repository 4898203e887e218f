"""The transversal cubes' corner weights one top cell and one corner at a
time: the oracle for weight space's chunk arrays (_corner_weights) and
for cube_protocol's array build.

is_top, center_weights and corner_weights check a top cell and build the
map from a +-1 corner tuple to its weights, one row per level, as
transversal spheres were built before the chunk arrays;
cube_corner_weight is the builtins' corner map.  stacked turns a sequence of corner maps, one per cube, into
cube_boundary_protocol's stacked corner weights.
"""

import math

import numpy as np

from hypercurrent.errors import EpsilonTooLarge
from hypercurrent.protocol import cube_corners


def is_top(cell):
    """One two-block per level, every other block a singleton."""
    for lvl in cell.blocks:
        sizes = sorted(len(b) for b in lvl)
        if sizes != [1] * (len(lvl) - 1) + [2]:
            return False
    return True


def center_weights(x, cell):
    """Block ranks as weights; tied pair equal."""
    centers = []
    for j in range(cell.p, cell.q + 1):
        vals = {}
        for rank, block in enumerate(cell.level(j)):
            for nm in block:
                vals[nm] = float(rank)
        centers.append(tuple(vals[nm] for nm in x.cells[j]))
    return centers


def corner_weights(gap, cell, eps):
    """The corner-to-weights map of one top cell's transversal cube, after
    the checks a transversal sphere makes on the cell and eps."""
    if not is_top(cell):
        raise ValueError("transversal spheres are built over top cells only")
    if not (eps > 0 and math.isfinite(eps)):
        raise EpsilonTooLarge(f"eps must be finite and positive, got {eps}")
    x, p, q = gap.parent, gap.p, gap.q
    centers = center_weights(x, cell)
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
        return tuple(vals)

    return corner_weight


def cube_corner_weight(gap, corner, signs):
    """The builtin cube protocols' corner map: the cube coordinate x_j
    drives the first cell of level p+j, times signs[j]."""
    p, q = gap.p, gap.q
    vals = []
    for j in range(p, q + 1):
        n = gap.parent.n_cells(j)
        row = [0.0] * n
        row[0] = float(signs[j - p] * corner[j - p])
        vals.append(tuple(row))
    return tuple(vals)


def stacked(gap, maps):
    """Corner maps, one per cube, as cube_boundary_protocol's corner
    weights: per level, an array (cubes, corners, cells)."""
    corners = list(map(tuple, cube_corners(gap.q - gap.p + 1).tolist()))
    points = [[cw(c) for c in corners] for cw in maps]
    return [np.array([[point[j - gap.p] for point in cube] for cube in points], dtype=float)
            .reshape(len(maps), len(corners), gap.parent.n_cells(j))
            for j in range(gap.p, gap.q + 1)]
