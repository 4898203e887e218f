"""The lift as it stood before the gap kept lifts by signature: every
cell is its own signature, every cell of every dimension goes through
lift_simplex, and the vertex stack is built from each vertex's tree.
Kept as the oracle for the lift build_lift_cache keeps by the gap's
signatures, and for the first obstruction it names."""

import numpy as np

from hypercurrent.errors import NotGood
from hypercurrent.topo_hyper import LiftCache, _stacked, _tree_aux, lift_simplex, tree_functor


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
    at = list(zip(np.concatenate([rows[:, 0] for rows in cells.rows]).tolist(), cert.least.tolist()))
    found = {}
    for row, a in enumerate(at):
        if a not in found:
            found[a] = len(found), tree_functor(proto, row)
    trees = [tree for _, tree in found.values()]
    own = np.concatenate([np.arange(len(rows)) for rows in cells.rows])
    cache = LiftCache(gap, trees, np.array([found[a][0] for a in at], dtype=np.intp), own)
    distinct, tree_of = np.unique(cache.tree_of[:cells.offsets[1]], return_inverse=True)
    phis = [_tree_aux(gap, trees[t]).phi for t in distinct.tolist()]
    blocks = []
    for g in range(gap.top + 1):
        num, den = _stacked([phi[g] for phi in phis])
        blocks.append((num[tree_of], den))
    cache.blocks.append(blocks)
    for j, (a, b) in enumerate(zip(cells.offsets[1:], cells.offsets[2:]), start=1):
        cache.blocks.append(lift_simplex(proto, j, np.arange(b - a), cache))
    return cache
