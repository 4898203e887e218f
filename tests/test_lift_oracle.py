"""The lift on Fraction lists, as it stood before the QMat operators,
kept as the oracle for the QMat lift path.  The library's matrices
(boundaries, contractions, right inverses) enter it as Fraction rows, and
products run on the Fraction row kernel of ``row_kernel``."""

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

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
from hypercurrent import topo_hyper
from hypercurrent.protocol import (
    cube_protocol,
    cube_sphere_protocol,
    loads_protocol,
    smallness,
    square_protocol,
)
from hypercurrent.ratlin import QMat
from hypercurrent.topo_hyper import _tree_masks, build_lift_cache, tree_functor
from hypercurrent.weight_space import enumerate_top_discriminant_cells, transversal_sphere

import row_kernel
from exact_cochain import cell_blocks, cell_trees, cube_cw_domain
from protocol_ops import boundary_of, least_levels, subdivide


def _zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _scale(a, c):
    return [[c * x for x in row] for row in a]


def _is_zero(a):
    return all(x == 0 for row in a for x in row)


def _mm(a, b, rows, colns):
    """Matrix product with an explicit result shape, so degenerate
    (zero-dimensional) factors collapse to a correctly shaped zero."""
    if rows == 0 or colns == 0:
        return _zeros(rows, colns)
    if not a or not a[0] or not b or not b[0]:
        return _zeros(rows, colns)
    return row_kernel.matmul(a, b)


def _d(gap, j):
    return gap.d(j).to_rows()


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
            full = _d(gap, j)
            sub = [[full[r][c] for c in self.masks[j]] for r in self.masks[j - 1]]
            bnds.append(QMat.from_rows(sub, (dims_sub[j - 1], dims_sub[j])))
        contr = contraction(dims_sub, bnds)
        # ambient-shaped homotopy, one matrix per degree 0..top-1
        self.h = []
        for j in range(gap.top):
            amb = _zeros(gap.dim_at(j + 1), gap.dim_at(j))
            if j < ld:
                sub = contr.h[j].to_rows()
                for r, ri in enumerate(self.masks[j + 1]):
                    for c, ci in enumerate(self.masks[j]):
                        amb[ri][ci] = sub[r][c]
            self.h.append(amb)
        self.pi0 = _zeros(gap.dim_at(0), gap.dim_at(0))
        pi0 = contr.pi0.to_rows()
        for r, ri in enumerate(self.masks[0]):
            for c, ci in enumerate(self.masks[0]):
                self.pi0[ri][ci] = pi0[r][c]
        self.phi = self._vertex_lift()

    def _vertex_lift(self):
        gap = self.gap
        n0 = gap.dim_at(0)
        if self.tree.kind == "cotree":
            bounds = gap.homology[0].bounds.to_rows()
            stored = self.tree.right_inverse.to_rows()
            nb = len(bounds[0]) if bounds else 0
            if nb == 0:
                phi0 = _identity(n0)
            else:
                phi0 = _add(_identity(n0), _mm(bounds, stored, n0, n0))
        else:
            phi0 = _identity(n0)
        phis = [phi0]
        for g in range(1, gap.top + 1):
            ng = gap.dim_at(g)
            prev = _mm(phis[g - 1], _d(gap, g), gap.dim_at(g - 1), ng)
            phis.append(_mm(self.h[g - 1], prev, ng, ng))
        for g in range(1, gap.top + 1):
            lhs = _mm(_d(gap, g), phis[g], gap.dim_at(g - 1), gap.dim_at(g))
            rhs = _mm(phis[g - 1], _d(gap, g), gap.dim_at(g - 1), gap.dim_at(g))
            if lhs != rhs:
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
            else _zeros(0, colns)


_AUX = {}


def _tree_aux(gap, tree):
    # keyed by the gap's id; the entry holds the gap, so the id stays its own
    key = (id(gap), tree.key)
    if key not in _AUX:
        _AUX[key] = _TreeAux(gap, tree)
    return _AUX[key]


@dataclass
class OracleLiftCache:
    gap: object
    trees: dict     # cell key -> DTree
    values: dict    # cell key -> list of Fraction row lists, one per input degree


def build_lift_cache_oracle(proto) -> OracleLiftCache:
    gap = proto.gap
    least = least_levels(proto, smallness(proto))
    cells = sorted(proto.cell_index.keys, key=lambda c: (proto.dim_of(c), repr(c)))
    for key in cells:
        if least[key] is None:
            raise NotGood(f"cell {key} is not small")
    trees = {key: tree_functor(proto, proto.place_of(key)) for key in cells}
    cache = OracleLiftCache(gap=gap, trees=trees, values={})
    for key in cells:
        if proto.dim_of(key) == 0:
            cache.values[key] = [[row[:] for row in m] for m in _tree_aux(gap, trees[key]).phi]
        else:
            cache.values[key] = lift_simplex_oracle(proto, key, cache)
    return cache


def lift_simplex_oracle(proto, key, cache: OracleLiftCache):
    gap = cache.gap
    jdim = proto.dim_of(key)
    aux = _tree_aux(gap, cache.trees[key])
    faces = boundary_of(proto, key)
    out = []
    for g in range(gap.top + 1):
        ng = gap.dim_at(g)
        zdeg = g + jdim - 1
        rows = gap.dim_at(zdeg)
        z = _zeros(rows, ng)
        if g >= 1:
            z = _add(z, _mm(out[g - 1], _d(gap, g), rows, ng))
        sgn = Fraction((-1) ** g)
        for fsign, fkey in faces:
            fval = cache.values[fkey][g]
            if rows and fval and fval[0]:
                z = _add(z, _scale(fval, sgn * fsign))
        if rows and not aux.support_ok(zdeg, z):
            raise LiftObstruction(f"face values escape the tree subcomplex at {key}")
        if zdeg == 0:
            chk = _mm(aux.pi0, z, rows, ng)
            if not _is_zero(chk):
                raise LiftObstruction(f"degree-0 argument has nonzero class at {key}")
        elif 0 < zdeg <= gap.top:
            chk = _mm(_d(gap, zdeg), z, gap.dim_at(zdeg - 1), ng)
            if not _is_zero(chk):
                raise LiftObstruction(f"argument fails the cycle check at {key}")
        if g + jdim > gap.top:
            if rows and not _is_zero(z):
                raise LiftObstruction(f"nonzero top-degree obstruction at {key}")
            out.append(_zeros(gap.dim_at(g + jdim), ng))
            continue
        m = aux.homotopy(zdeg, z, ng) if rows else _zeros(gap.dim_at(g + jdim), ng)
        back = _mm(_d(gap, g + jdim), m, rows, ng)
        if back != z:
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
    return transversal_sphere(gap, enumerate_top_discriminant_cells(x, 0, 1)[:1])


# the q = 3 cube template of the benchmark's generated protocol files: the
# Freudenthal triangulation of the 4-cube's boundary, one simplex per line
# with its orientation, which is also its coefficient in the stored cycle
_CUBE3_SIMPLICES = """
+ mmmm mmmp mmpp mppp  - mmmm mmmp mmpp pmpp  - mmmm mmmp mpmp mppp  + mmmm mmmp mpmp ppmp
+ mmmm mmmp pmmp pmpp  - mmmm mmmp pmmp ppmp  - mmmm mmpm mmpp mppp  + mmmm mmpm mmpp pmpp
+ mmmm mmpm mppm mppp  - mmmm mmpm mppm pppm  - mmmm mmpm pmpm pmpp  + mmmm mmpm pmpm pppm
+ mmmm mpmm mpmp mppp  - mmmm mpmm mpmp ppmp  - mmmm mpmm mppm mppp  + mmmm mpmm mppm pppm
+ mmmm mpmm ppmm ppmp  - mmmm mpmm ppmm pppm  - mmmm pmmm pmmp pmpp  + mmmm pmmm pmmp ppmp
+ mmmm pmmm pmpm pmpp  - mmmm pmmm pmpm pppm  - mmmm pmmm ppmm ppmp  + mmmm pmmm ppmm pppm
+ mmmp mmpp mppp pppp  - mmmp mmpp pmpp pppp  - mmmp mpmp mppp pppp  + mmmp mpmp ppmp pppp
+ mmmp pmmp pmpp pppp  - mmmp pmmp ppmp pppp  - mmpm mmpp mppp pppp  + mmpm mmpp pmpp pppp
+ mmpm mppm mppp pppp  - mmpm mppm pppm pppp  - mmpm pmpm pmpp pppp  + mmpm pmpm pppm pppp
+ mpmm mpmp mppp pppp  - mpmm mpmp ppmp pppp  - mpmm mppm mppp pppp  + mpmm mppm pppm pppp
+ mpmm ppmm ppmp pppp  - mpmm ppmm pppm pppp  - pmmm pmmp pmpp pppp  + pmmm pmmp ppmp pppp
+ pmmm pmpm pmpp pppp  - pmmm pmpm pppm pppp  - pmmm ppmm ppmp pppp  + pmmm ppmm pppm pppp
"""


def _perturbed_cube3_file():
    """A q = 3 wedge cube protocol as the benchmark writes its files:
    seeded level signs, each corner's leading weight scaled by a factor
    in [0.5, 2] and a second weight in [-0.25, 0.25], which keeps the
    order type of every level; the cycle is stored."""
    rng = random.Random(20261018)
    q = 3
    signs = [rng.choice((1, -1)) for _ in range(q + 1)]
    words = _CUBE3_SIMPLICES.split()
    simplices = [{"orientation": 1 if words[i] == "+" else -1,
                  "vertices": ["c" + v for v in words[i + 1:i + 5]]}
                 for i in range(0, len(words), 5)]
    vertices = []
    for vid in sorted({v for s in simplices for v in s["vertices"]}):
        corner = [1 if ch == "p" else -1 for ch in vid[1:]]
        weights = {str(j): [signs[j] * corner[j] * rng.uniform(0.5, 2.0), rng.uniform(-0.25, 0.25)]
                   for j in range(q + 1)}
        vertices.append({"id": vid, "weights": weights})
    doc = {
        "complex": {"builtin": "sphere_wedge", "q": q},
        "p": 0,
        "q": q,
        "vertices": vertices,
        "simplices": simplices,
        "cycle": {",".join(s["vertices"]): s["orientation"] for s in simplices},
    }
    return loads_protocol(json.dumps(doc))


DOMAINS = (
    [("square", square_protocol)]
    + [(f"cube_sphere{q}", lambda q=q: cube_protocol(gap_complex(sphere_complex(q), 0, q)))
       for q in (1, 2, 3, 4)]
    + [(f"cube_wedge{q}", lambda q=q: cube_protocol(gap_complex(sphere_wedge_complex(q), 0, q)))
       for q in (1, 2, 3)]
    + [(f"cube_cw{n}", lambda n=n: cube_cw_domain(gap_complex(sphere_complex(n - 1), 0, n - 1)))
       for n in (2, 3, 4)]
    + [("path3_transversal", _path3_transversal_sphere)]
    + [("cube3_file", _perturbed_cube3_file)]
    # the sign of the odd-degree face terms changes no lift on the domains
    # above, and does on this one
    + [("cube_sphere2_subdivided", lambda: subdivide(cube_sphere_protocol(2)))]
)


@pytest.mark.parametrize("make", [m for _, m in DOMAINS], ids=[n for n, _ in DOMAINS])
def test_lift_matches_fraction_oracle(make):
    proto = make()
    cache = build_lift_cache(proto)
    new = cell_blocks(proto, cache)
    old = build_lift_cache_oracle(proto)
    gap = proto.gap
    assert cell_trees(proto, cache) == old.trees
    assert new.keys() == old.values.keys()
    for key, mats in new.items():
        jdim = proto.dim_of(key)
        assert len(mats) == len(old.values[key]) == gap.top + 1
        for g, mat in enumerate(mats):
            assert mat.shape == (gap.dim_at(g + jdim), gap.dim_at(g))
            assert mat.to_rows() == old.values[key][g]


# --- the first obstruction, stacked route against the cell-by-cell oracle -------


def _bumped(mats, g, r, c):
    """mats with entry (r, c) of its g-th matrix raised by 1, for QMats and
    for Fraction lists."""
    out = list(mats)
    m = out[g]
    if isinstance(m, QMat):
        num = m.num.copy()
        num[r, c] += m.den
        out[g] = QMat(num, m.den)
    else:
        out[g] = [row[:] for row in m]
        out[g][r][c] += 1
    return type(mats)(out)


# (tree, field, degree, row, col) entries raised by 1, and a cell whose first
# face has its sign flipped; the first obstruction each case meets
FIRST_OBSTRUCTIONS = {
    "vertex_lift_class": ([((0, ("e0-",)), "phi", 0, 1, 1)], None,
                          "degree-0 argument has nonzero class at (0, 4)"),
    # cycle check and identity fail on the same cell and degree: check order
    "vertex_lift_cycle": ([((0, ("e0+",)), "phi", 1, 0, 0)], None,
                          "argument fails the cycle check at (0, 4)"),
    "face_sign_cycle": ([], (0, 1, 5), "argument fails the cycle check at (0, 1, 5)"),
    "homotopy_identity": ([((2, ("e2+",)), "h", 1, 0, 0)], None,
                          "chain-map identity fails at (0, 2, 6), degree 0"),
    # edge (0, 4) fails at degree 2, the later edge (0, 5) at degree 0:
    # the earlier cell wins over the earlier degree
    "cell_before_degree": ([((0, ("e0+",)), "phi", 2, 1, 0)], (0, 5),
                           "face values escape the tree subcomplex at (0, 4)"),
}


@pytest.mark.parametrize("case", list(FIRST_OBSTRUCTIONS))
def test_first_obstruction_matches_oracle(monkeypatch, case):
    """Corrupt tree data or one cell's boundary in both routes; the error
    the stacked route raises must be the one the cell-by-cell oracle
    meets first, (dim, repr) order, then degree, then check: the same
    text, naming the same cell and degree."""
    bumps, flip, expected = FIRST_OBSTRUCTIONS[case]
    proto = cube_sphere_protocol(2)
    gap = proto.gap
    trees = {t.key: t for t in (tree_functor(proto, row) for row in range(proto.cell_index.offsets[-1]))}
    for tree_key, field, g, r, c in bumps:
        for aux in (topo_hyper._tree_aux(gap, trees[tree_key]), _tree_aux(gap, trees[tree_key])):
            monkeypatch.setattr(aux, field, _bumped(getattr(aux, field), g, r, c))
    if flip is not None:
        real = boundary_of

        def flipped(domain, key):
            (sign, face), *rest = real(domain, key)
            return [(-sign if key == flip else sign, face)] + rest

        monkeypatch.setitem(globals(), "boundary_of", flipped)
        # the stacked route reads the face view: the same flip there
        index, views = proto.cell_index, list(proto.face_rows)
        dim = len(flip) - 1
        rows, signs = views[dim]
        signs = signs.copy()
        signs[proto.place_of(flip) - index.offsets[dim], 0] *= -1
        views[dim] = (rows, signs)
        monkeypatch.setitem(proto.__dict__, "face_rows", tuple(views))
    with pytest.raises(LiftObstruction) as old:
        build_lift_cache_oracle(proto)
    with pytest.raises(LiftObstruction) as new:
        build_lift_cache(proto)
    assert str(old.value) == expected
    assert str(new.value) == str(old.value)


# --- numerators past the int64 bound ------------------------------------------------


def _steep_circle_protocol():
    """cube_protocol over a circle whose first 1-cell has the boundary column
    (2^40, -2^40): the lift's denominators carry 2^40, so the products of its
    checks pass the int64 bound without any patching."""
    big = 2 ** 40
    x = loads_complex(json.dumps({"name": "steep_circle", "cells": [["e0+", "e0-"], ["e1+", "e1-"]],
                                  "boundary": [[[big, 1], [-big, -1]]]}))
    return cube_protocol(gap_complex(x, 0, 1))


def test_lift_past_the_int64_bound_matches_fraction_oracle():
    proto = _steep_circle_protocol()
    cache = build_lift_cache(proto)
    assert cache.blocks[1][0][0].dtype == object
    new = cell_blocks(proto, cache)
    assert max(m.den for mats in new.values() for m in mats) >= 2 ** 40
    old = build_lift_cache_oracle(proto)
    assert new.keys() == old.values.keys()
    for key, mats in new.items():
        assert [m.to_rows() for m in mats] == [list(map(list, m)) for m in old.values[key]]
