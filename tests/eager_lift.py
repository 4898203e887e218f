"""The lift as it stood before the stacks were kept: each dimension is
lifted as one stack, then unpacked eagerly into one lowest-terms QMat per
cell and degree, and the next dimension gathers its faces from those
values or from the last stack.  Kept as the oracle for the cell blocks
read from topo_hyper.LiftCache's signature blocks."""

import math
from dataclasses import dataclass, field

import numpy as np

from hypercurrent.errors import LiftObstruction, NotGood
from hypercurrent.ratlin import QMat
from hypercurrent.topo_hyper import _OBSTRUCTIONS, _nonzero, _reduced, _stacked, _tree_aux, \
    tree_functor

from protocol_ops import boundary_of, least_levels, vertices_of


@dataclass
class EagerLiftCache:
    gap: object
    trees: dict     # cell key -> DTree
    values: dict    # cell key -> tuple of QMat, one per input degree
    stacked: tuple = field(default=None, repr=False)


def build_lift_cache_eager(proto) -> EagerLiftCache:
    gap = proto.gap
    least = least_levels(proto, proto.certificate)
    cells = sorted(proto.cell_index.keys, key=lambda c: (proto.dim_of(c), repr(c)))
    trees, shared = {}, {}
    for key in cells:
        if least[key] is None:
            raise NotGood(f"cell {key} is not small")
        at = (vertices_of(proto, key)[0], least[key])
        if at not in shared:
            shared[at] = tree_functor(proto, proto.place_of(key))
        trees[key] = shared[at]
    cache = EagerLiftCache(gap=gap, trees=trees, values={})
    by_dim = {}
    for key in cells:
        by_dim.setdefault(proto.dim_of(key), []).append(key)
    for jdim, keys in by_dim.items():
        if jdim == 0:
            cache.values.update((key, _tree_aux(gap, trees[key]).phi) for key in keys)
        else:
            lift_simplex_eager(proto, keys, cache)
    return cache


def lift_simplex_eager(proto, keys, cache: EagerLiftCache):
    gap = cache.gap
    top = gap.top
    jdim = proto.dim_of(keys[0])
    cells, faces, signs = [], [], []
    for i, key in enumerate(keys):
        for fsign, fkey in boundary_of(proto, key):
            cells.append(i)
            faces.append(fkey)
            signs.append(fsign)
    if cache.stacked is not None and all(f in cache.stacked[0] for f in faces):
        index, fstack = cache.stacked
    else:
        distinct = list(dict.fromkeys(faces))
        index = {f: i for i, f in enumerate(distinct)}
        fstack = [_stacked([cache.values[f][g] for f in distinct]) for g in range(top + 1)]
    cells = np.array(cells, dtype=np.intp)
    faces = np.array([index[f] for f in faces], dtype=np.intp)
    signs = np.array(signs, dtype=object)[:, None, None]
    trees = list({cache.trees[key].key: cache.trees[key] for key in keys}.values())
    tree_pos = {tree.key: t for t, tree in enumerate(trees)}
    tree_of = np.array([tree_pos[cache.trees[key].key] for key in keys], dtype=np.intp)
    auxes = [_tree_aux(gap, tree) for tree in trees]
    n = len(keys)
    out = []
    failed = []

    def check(bad, g, which):
        if bad.any():
            failed.append((int(np.argmax(bad)), g, which))

    for g in range(top + 1):
        ng = gap.dim_at(g)
        zdeg = g + jdim - 1
        rows = gap.dim_at(zdeg)
        fnum, zden = fstack[g]
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
        check(_nonzero((d.num @ m) * zden - z * (d.den * mden)), g, 4)
        out.append((m, mden))
    if failed:
        i, g, which = min(failed)
        raise LiftObstruction(_OBSTRUCTIONS[which].format(key=keys[i], g=g))
    # the eager unpack: one lowest-terms QMat per cell and degree
    for i, key in enumerate(keys):
        cache.values[key] = tuple(QMat(num[i], den) for num, den in out)
    cache.stacked = ({key: i for i, key in enumerate(keys)}, out)
