import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from hypercurrent import forests, ratlin
from hypercurrent.complex_core import (
    CwComplex,
    collapsed_sphere_complex,
    gap_complex,
    sphere_complex,
    sphere_wedge_complex,
    torsion_complex,
)
from hypercurrent.errors import NotATree, NotInjective
from hypercurrent.forests import (
    enumerate_dtrees,
    greedy_dtree,
    is_dtree,
    make_dtree,
    matroid_is_dtree,
    torsion_of,
    tree_right_inverse,
)
from hypercurrent.ratlin import QMat


def all_subsets(names):
    for r in range(len(names) + 1):
        yield from itertools.combinations(names, r)


SPHERE2 = gap_complex(sphere_complex(2), 0, 2)
SPHERE1 = gap_complex(sphere_complex(1), 0, 1)
WEDGE2 = gap_complex(sphere_wedge_complex(2), 0, 2)
TOR = gap_complex(torsion_complex(), 0, 2)


# --- enumeration against the definitional oracle ----------------------------


def test_sphere2_level1_trees():
    trees = enumerate_dtrees(SPHERE2, 1)
    assert sorted(t.cells for t in trees) == [("e1+",), ("e1-",)]


def test_wedge_unique_top_tree():
    for q, gapq in [(2, WEDGE2), (3, gap_complex(sphere_wedge_complex(3), 0, 3))]:
        trees = enumerate_dtrees(gapq, q)
        assert [t.cells for t in trees] == [(f"e{q}id",)]


def test_tor_level2_trees():
    trees = enumerate_dtrees(TOR, 2)
    assert sorted(t.cells for t in trees) == [("u",), ("w",)]


@pytest.mark.parametrize(
    "gap,levels",
    [
        (SPHERE1, (0, 1)),
        (SPHERE2, (0, 1, 2)),
        (WEDGE2, (0, 1, 2)),
        (TOR, (0, 1, 2)),
    ],
)
def test_bruteforce_subset_equivalence(gap, levels):
    # matroid characterization == definitional homology test, subset by subset
    for d in levels:
        names = gap.parent.cells[d]
        enumerated = {t.cells for t in enumerate_dtrees(gap, d)}
        for subset in all_subsets(names):
            definitional = is_dtree(gap, d, subset)
            assert matroid_is_dtree(gap, d, subset) == definitional
            assert (tuple(subset) in enumerated) == definitional


@pytest.mark.parametrize("x, p", [(sphere_complex(1), 0), (sphere_complex(1), 1),
                                  (sphere_complex(2), 1), (torsion_complex(), 2)],
                         ids=["sphere1-0", "sphere1-1", "sphere2-1", "tor-2"])
def test_single_level_gap_subset_equivalence(x, p):
    # p == q: the gap has no (p+1)-cells, and both tests find the one co-tree,
    # every p-cell, which greedy picks and torsion_of accepts
    gap = gap_complex(x, p, p)
    names = x.cells[p]
    for subset in all_subsets(names):
        definitional = is_dtree(gap, p, subset)
        assert matroid_is_dtree(gap, p, subset) == definitional
        assert definitional == (set(subset) == set(names))
    tree = greedy_dtree(gap, p, {nm: float(k) for k, nm in enumerate(names)})
    assert tree.cells == tuple(names) and torsion_of(gap, p, names) == 1


def test_tree_equals_cotree_strictly_inside_gap():
    # at levels strictly between the gap ends both definitions agree
    gap3 = gap_complex(sphere_complex(3), 0, 3)
    x = gap3.parent
    for d in (1, 2):
        for subset in all_subsets(x.cells[d]):
            as_tree = is_dtree(gap3, d, subset)
            # rebuild a gap starting at d so the same subset is tested
            # with the co-tree definition
            gap_at_d = gap_complex(x, d, 3)
            as_cotree = is_dtree(gap_at_d, d, subset)
            assert as_tree == as_cotree


# --- specific oracle checks -------------------------------------------------


def test_is_dtree_examples():
    assert is_dtree(SPHERE2, 2, ("e2+",))
    assert not is_dtree(SPHERE2, 2, ("e2+", "e2-"))
    assert not is_dtree(WEDGE2, 2, ("e2const",))


def test_greedy_simple():
    t = greedy_dtree(SPHERE1, 1, {"e1+": 0.3, "e1-": 0.7})
    assert t.cells == ("e1+",)
    t = greedy_dtree(TOR, 2, {"u": 5, "w": 1})
    assert t.cells == ("w",)


def test_greedy_not_injective():
    with pytest.raises(NotInjective):
        greedy_dtree(SPHERE1, 1, {"e1+": 1.0, "e1-": 1.0})


def test_greedy_names_a_cell_without_weight():
    with pytest.raises(ValueError, match="no weight for cell 'e1-' on level 1"):
        greedy_dtree(SPHERE1, 1, {"e1+": 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_greedy_names_a_cell_with_nonfinite_weight(bad):
    # a NaN weight leaves the ascending order undefined
    with pytest.raises(ValueError, match="of cell 'e1-' on level 1 is not finite"):
        greedy_dtree(SPHERE1, 1, {"e1+": 1.0, "e1-": bad})


@pytest.mark.parametrize("d", [-1, 2])
def test_level_outside_the_gap(d):
    # a negative level must not wrap around to the top cells
    weights = {nm: float(i) for cells in SPHERE1.parent.cells for i, nm in enumerate(cells)}
    for build in (lambda: enumerate_dtrees(SPHERE1, d), lambda: greedy_dtree(SPHERE1, d, weights),
                  lambda: is_dtree(SPHERE1, d, ()), lambda: matroid_is_dtree(SPHERE1, d, ()),
                  lambda: tree_right_inverse(SPHERE1, d, ())):
        with pytest.raises(ValueError, match="level outside the gap"):
            build()


def test_greedy_equals_argmin_and_order_type_stability():
    rng = random.Random(23)
    for gap, levels in [(SPHERE2, (0, 1, 2)), (TOR, (0, 1, 2)), (WEDGE2, (0, 1, 2))]:
        for d in levels:
            names = gap.parent.cells[d]
            trees = enumerate_dtrees(gap, d)
            for _ in range(10):
                vals = rng.sample(range(100), len(names))
                weights = dict(zip(names, vals))
                best = min(trees, key=lambda t: sum(weights[nm] for nm in t.cells))
                got = greedy_dtree(gap, d, weights)
                assert got.cells == best.cells
                # monotone reparameterization leaves the argmin unchanged
                squashed = {nm: 2.0 ** (v / 7.0) for nm, v in weights.items()}
                assert greedy_dtree(gap, d, squashed).cells == got.cells


# --- torsion -----------------------------------------------------------------


def test_tor_torsion():
    assert torsion_of(TOR, 2, ("u",)) == 2
    assert torsion_of(TOR, 2, ("w",)) == 3


def test_sphere_torsion_trivial():
    for q in (1, 2, 3):
        gap = gap_complex(sphere_complex(q), 0, q)
        for d in range(q + 1):
            for t in enumerate_dtrees(gap, d):
                assert t.torsion == 1


def test_cotree_torsion_on_connected_graph():
    for t in enumerate_dtrees(SPHERE1, 0):
        assert t.torsion == 1


def kernel_lattice_torsion(gap, d, cells):
    """Torsion of a tree's homology one degree down, through the cycle
    lattice: a Z-basis of the (d-1)-cycles, the tree's boundary columns in
    that basis, and the Smith form of those coordinates."""
    x = gap.parent
    idx = sorted(x.cell_index(d, nm) for nm in cells)
    coeffs = ratlin.solve_matrix(ratlin.integer_kernel_basis(x.d(d - 1)), x.d(d)[:, idx])
    assert coeffs is not None and coeffs.den == 1
    return ratlin.torsion_order(coeffs)


def complete_graph(n):
    verts = [chr(ord("a") + i) for i in range(n)]
    edges = list(itertools.combinations(range(n), 2))
    bnd = [[(i == v) - (i == u) for u, v in edges] for i in range(n)]
    return CwComplex(f"K{n}", (tuple(verts), tuple(verts[u] + verts[v] for u, v in edges)),
                     (QMat.from_rows(bnd, (n, len(edges))),))


TORSION_GAPS = (
    [(sphere_complex(q), 0, q) for q in range(1, 5)]
    + [(sphere_wedge_complex(q), 0, q) for q in range(1, 5)]
    + [(collapsed_sphere_complex(q), 1, q) for q in range(2, 5)]
    + [(torsion_complex(), 0, 2)] + [(complete_graph(n), 0, 1) for n in (3, 4, 5)]
)


def test_torsion_equals_kernel_lattice_route():
    count = 0
    for x, p, q in TORSION_GAPS:
        gap = gap_complex(x, p, q)
        for d in range(p + 1, q + 1):
            for t in enumerate_dtrees(gap, d):
                assert torsion_of(gap, d, t.cells) == t.torsion \
                    == kernel_lattice_torsion(gap, d, t.cells), (x.name, t.cells)
                count += 1
    assert count == 195


def test_torsion_requires_tree():
    with pytest.raises(NotATree):
        torsion_of(SPHERE2, 2, ("e2+", "e2-"))


# --- right inverses -----------------------------------------------------------


def test_right_inverse_sphere1():
    rinv = tree_right_inverse(SPHERE1, 1, ("e1+",))
    bounds = SPHERE1.homology[0].bounds  # canonical basis of the boundary space
    # bounds is the echelon basis, spanned by e0+ - e0-
    assert bounds[:, 0] == [Fraction(1), Fraction(-1)]
    sol = rinv @ [Fraction(1)]
    assert sol == [Fraction(1), Fraction(0)]  # e1+ solves the boundary equation


def test_right_inverse_tor():
    rinv = tree_right_inverse(TOR, 2, ("u",))
    bounds = TOR.homology[1].bounds
    assert bounds[:, 0] == [Fraction(1)]  # normalized span of the edge
    sol = rinv @ [Fraction(1)]
    assert sol == [Fraction(1, 2), Fraction(0)]  # solves 2x = 1 on the u column


def test_right_inverse_identity_on_bounds():
    for gap, levels in [(SPHERE2, (1, 2)), (TOR, (1, 2)), (WEDGE2, (1, 2))]:
        for d in levels:
            jd = d - gap.p
            bounds = gap.homology[jd - 1].bounds
            for t in enumerate_dtrees(gap, d):
                assert gap.parent.d(d) @ t.right_inverse == bounds


def test_cotree_projection_properties():
    for t in enumerate_dtrees(SPHERE2, 0):
        proj = -t.right_inverse
        bounds = SPHERE2.homology[0].bounds
        # left inverse of the inclusion of the boundary space
        assert proj @ bounds == QMat.identity(1)
        # kernel contains the co-tree cell
        i = SPHERE2.parent.cell_index(0, t.cells[0])
        vec = [Fraction(0), Fraction(0)]
        vec[i] = Fraction(1)
        assert proj @ vec == [Fraction(0)]


def test_make_dtree_rejects_nontree():
    with pytest.raises(NotATree):
        make_dtree(SPHERE2, 2, ("e2+", "e2-"))


def test_make_dtree_kept_per_gap(monkeypatch):
    gap = gap_complex(sphere_wedge_complex(2), 0, 2)
    checks = []
    real = forests.matroid_is_dtree
    monkeypatch.setattr(forests, "matroid_is_dtree",
                        lambda g, d, cells: checks.append(cells) or real(g, d, cells))
    tree = greedy_dtree(gap, 1, {nm: i for i, nm in enumerate(gap.parent.cells[1])})
    assert make_dtree(gap, 1, tree.cells[::-1]) is tree
    assert any(t is tree for t in enumerate_dtrees(gap, 1))
    assert checks.count(tree.cells) == 1
    # a set that is not a tree is checked, and refused, every time
    for _ in range(2):
        with pytest.raises(NotATree):
            make_dtree(gap, 2, gap.parent.cells[2])
    assert checks.count(tuple(gap.parent.cells[2])) == 2
    # equal content is one gap with one tree; a new name is another complex
    again = gap_complex(sphere_wedge_complex(2), 0, 2)
    assert again is gap and make_dtree(again, 1, tree.cells) is tree
    assert checks.count(tree.cells) == 1
    renamed = gap_complex(dataclasses.replace(gap.parent, name="renamed"), 0, 2)
    assert renamed is not gap and make_dtree(renamed, 1, tree.cells) is not tree
    assert checks.count(tree.cells) == 2
