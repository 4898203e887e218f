"""The lift on Fraction lists, as it stood before the QMat operators,
kept verbatim as the oracle for the QMat lift path."""

import json
from fractions import Fraction

import pytest

from hypercurrent import ratlin
from hypercurrent.complex_core import (
    GapComplex,
    contraction,
    gap_complex,
    loads_complex,
    sphere_complex,
    sphere_wedge_complex,
)
from hypercurrent.errors import LiftObstruction, NotGood
from hypercurrent.forests import DTree
from hypercurrent.protocol import cube_cw_domain, cube_protocol, smallness, square_protocol
from hypercurrent.topo_hyper import LiftCache, _tree_masks, build_lift_cache, tree_functor
from hypercurrent.weight_space import enumerate_top_discriminant_cells, transversal_sphere


def _mm(a, b, rows, colns):
    """Matrix product with an explicit result shape, so degenerate
    (zero-dimensional) factors collapse to a correctly shaped zero."""
    if rows == 0 or colns == 0:
        return ratlin.zeros(rows, colns)
    if not a or not a[0] or not b or not b[0]:
        return ratlin.zeros(rows, colns)
    return ratlin.matmul(a, b)


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


_AUX = {}


def _tree_aux(gap, tree):
    # keyed by the gap's id; the entry holds the gap, so the id stays its own
    key = (id(gap), tree.key)
    if key not in _AUX:
        _AUX[key] = _TreeAux(gap, tree)
    return _AUX[key]


def build_lift_cache_oracle(proto) -> LiftCache:
    gap = proto.gap
    cert = smallness(proto)
    cells = sorted(proto.all_cells(), key=lambda c: (proto.dim_of(c), repr(c)))
    for key in cells:
        if cert.k[key] is None:
            raise NotGood(f"cell {key} is not small")
    trees = {key: tree_functor(proto, key) for key in cells}
    cache = LiftCache(gap=gap, cert=cert, trees=trees, values={})
    for key in cells:
        if proto.dim_of(key) == 0:
            cache.values[key] = [ratlin.copy(m) for m in _tree_aux(gap, trees[key]).phi]
        else:
            cache.values[key] = lift_simplex_oracle(proto, key, cache)
    return cache


def lift_simplex_oracle(proto, key, cache: LiftCache):
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


# --- the QMat lift against the oracle -------------------------------------------


def _path3_transversal_sphere():
    x = loads_complex(json.dumps({
        "name": "path3",
        "cells": [["x", "y", "z"], ["xy", "yz"]],
        "boundary": [[[-1, 0], [1, -1], [0, 1]]],
    }))
    gap = gap_complex(x, 0, 1)
    return transversal_sphere(gap, enumerate_top_discriminant_cells(x, 0, 1)[0])


DOMAINS = (
    [("square", square_protocol)]
    + [(f"cube_sphere{q}", lambda q=q: cube_protocol(gap_complex(sphere_complex(q), 0, q)))
       for q in (1, 2, 3)]
    + [(f"cube_wedge{q}", lambda q=q: cube_protocol(gap_complex(sphere_wedge_complex(q), 0, q)))
       for q in (1, 2, 3)]
    + [(f"cube_cw{n}", lambda n=n: cube_cw_domain(gap_complex(sphere_complex(n - 1), 0, n - 1)))
       for n in (2, 3, 4)]
    + [("path3_transversal", _path3_transversal_sphere)]
)


@pytest.mark.parametrize("make", [m for _, m in DOMAINS], ids=[n for n, _ in DOMAINS])
def test_lift_matches_fraction_oracle(make):
    proto = make()
    new = build_lift_cache(proto)
    old = build_lift_cache_oracle(proto)
    gap = proto.gap
    assert new.trees == old.trees
    assert new.values.keys() == old.values.keys()
    for key, mats in new.values.items():
        jdim = proto.dim_of(key)
        assert len(mats) == len(old.values[key]) == gap.top + 1
        for g, mat in enumerate(mats):
            assert mat.shape == (gap.dim_at(g + jdim), gap.dim_at(g))
            assert mat.to_rows() == old.values[key][g]
