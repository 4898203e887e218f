"""The lift as it stood before the gap kept lifts by signature: every
cell of every dimension goes through lift_simplex, and the vertex stack
is built from each vertex's tree.  Kept as the oracle for the stacks
build_lift_cache gathers from the gap's signatures, and for the first
obstruction it names."""

import numpy as np

from hypercurrent.errors import NotGood
from hypercurrent.topo_hyper import LiftCache, _Stack, _stacked, _tree_aux, _tree_positions, \
    lift_simplex, tree_functor


def build_lift_cache_stacked(proto) -> LiftCache:
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
    cache = LiftCache(gap=gap, trees=trees)
    vertices = keys[cells.offsets[0]:cells.offsets[1]]
    distinct, tree_of = _tree_positions(trees, vertices)
    phis = [_tree_aux(gap, tree).phi for tree in distinct]
    blocks = []
    for g in range(gap.top + 1):
        num, den = _stacked([phi[g] for phi in phis])
        blocks.append((num[tree_of], den))
    cache.stacks.append(_Stack(vertices, dict(zip(vertices, range(len(vertices)))), blocks))
    for a, b in zip(cells.offsets[1:], cells.offsets[2:]):
        lift_simplex(proto, keys[a:b], cache)
    return cache
