import random
from fractions import Fraction

import numpy as np
import pytest

from hypercurrent import ratlin
from hypercurrent.complex_core import (
    collapsed_sphere_complex,
    gap_complex,
    sphere_complex,
    sphere_wedge_complex,
    torsion_complex,
)
from hypercurrent.errors import NotACycle, NotSmall
from hypercurrent.ratlin import QMat
from hypercurrent.protocol import (
    SimplicialProtocol,
    WeightPoint,
    cube_protocol,
    cube_sphere_protocol,
    restrict,
    scale,
    smallness,
    square_protocol,
    subdivide,
)
from hypercurrent.topo_hyper import (
    _tree_aux,
    addendum_predicts_trivial,
    build_lift_cache,
    cochain_chain_map_defect,
    cube_cellular_cochain,
    hypercurrent_cochain,
    hypercurrent_homology,
    lift_vertex,
    tree_functor,
)


def constant_protocol(gap, weight_point, nvertices=3):
    """A path of nvertices vertices, all carrying the same weights."""
    simplices = [(i, i + 1) for i in range(nvertices - 1)]
    return SimplicialProtocol(
        gap=gap,
        vertex_ids=tuple(f"v{i}" for i in range(nvertices)),
        vertex_weights=tuple(weight_point for _ in range(nvertices)),
        simplices=tuple(
            sorted([(i,) for i in range(nvertices)] + simplices, key=lambda s: (len(s), s))
        ),
    )


# --- tree functor ------------------------------------------------------------


def test_tree_functor_cube2_facets():
    proto = cube_sphere_protocol(2)
    cert = smallness(proto)
    for s in proto.simplices_of_dim(2):
        k = cert.k[s]
        t = tree_functor(proto, s)
        assert t.level == k
        corner = proto.vertex_ids[s[0]]
        side = corner[1 + k]
        # weight of the first cell at the facet level is x_k = +-1; the
        # greedy tree picks the cheaper cell
        expected = (f"e{k}-",) if side == "p" else (f"e{k}+",)
        assert t.cells == expected


def test_tree_functor_wedge_top():
    for q in (1, 2, 3):
        proto = cube_protocol(gap_complex(sphere_wedge_complex(q), 0, q))
        cert = smallness(proto)
        for s in proto.simplices_of_dim(q):
            if cert.k[s] == q:
                assert tree_functor(proto, s).cells == (f"e{q}id",)


def test_tree_functor_not_small():
    gap = gap_complex(sphere_complex(1), 0, 1)
    up = WeightPoint(0, 1, ((0.0, 1.0), (0.0, 1.0)))
    down = WeightPoint(0, 1, ((1.0, 0.0), (1.0, 0.0)))
    proto = SimplicialProtocol(
        gap=gap, vertex_ids=("A", "B"), vertex_weights=(up, down),
        simplices=((0,), (1,), (0, 1)),
    )
    with pytest.raises(NotSmall):
        tree_functor(proto, (0, 1))


def test_tree_functor_face_inclusion():
    # the face's tree sits inside the cell's tree as a subcomplex
    for proto in (square_protocol(), cube_sphere_protocol(2)):
        for s in proto.all_cells():
            t = tree_functor(proto, s)
            for _, f in proto.boundary_of(s):
                tf = tree_functor(proto, f)
                assert tf.level <= t.level
                if tf.level == t.level:
                    assert tf.cells == t.cells


def test_tree_functor_shared_over_the_gap():
    # scaling keeps every order type, so both protocols get the same tree
    # objects from the gap's memo
    proto = cube_sphere_protocol(2)
    scaled = scale(proto, 3.0)
    assert scaled.gap is proto.gap
    for s in proto.all_cells():
        assert tree_functor(scaled, s) is tree_functor(proto, s)


# --- vertex lifts -------------------------------------------------------------


def test_lift_vertex_tree_level_identity():
    proto = square_protocol()
    cert = smallness(proto)
    # a vertex with k=0 lives at co-tree level; build a level-1 vertex via
    # a constant protocol whose level-0 weights tie
    gap = proto.gap
    wp = WeightPoint(0, 1, ((0.0, 0.0), (0.0, 1.0)))
    cproto = constant_protocol(gap, wp, nvertices=2)
    tree, phi = lift_vertex(cproto, (0,))
    assert tree.level == 1
    assert phi[0] == QMat.identity(2)


def test_lift_vertex_cotree_class():
    proto = square_protocol()
    gap = proto.gap
    for v in range(len(proto.vertex_ids)):
        tree, phi = lift_vertex(proto, (v,))
        assert tree.level == 0
        h0 = gap.homology[0]
        for col in range(2):
            vec = [Fraction(0), Fraction(0)]
            vec[col] = Fraction(1)
            image = phi[0] @ vec
            assert h0.class_of(image) == h0.class_of(vec)


def test_lift_vertex_cotree_explicit_value():
    # co-tree {e0+} on the circle projects e0- onto e0+ along the bounds
    proto = square_protocol()
    target = None
    for v in range(len(proto.vertex_ids)):
        t = tree_functor(proto, (v,))
        if t.cells == ("e0+",):
            target = v
            break
    tree, phi = lift_vertex(proto, (target,))
    image = phi[0] @ [Fraction(0), Fraction(1)]
    assert image == [Fraction(1), Fraction(0)]


def test_lift_vertex_chain_identity():
    proto = cube_sphere_protocol(2)
    gap = proto.gap
    for v in range(0, len(proto.vertex_ids), 3):
        _, phi = lift_vertex(proto, (v,))
        for g in range(1, gap.top + 1):
            assert gap.d(g) @ phi[g] == phi[g - 1] @ gap.d(g)


# --- simplex lifts ------------------------------------------------------------


def test_constant_tree_edge_lifts_to_zero():
    proto = square_protocol()
    cache = build_lift_cache(proto)
    cert = cache.cert
    for s in proto.simplices_of_dim(1):
        if cert.k[s] == 0:
            # both endpoints share the edge's co-tree, so the lift vanishes
            for g, mat in enumerate(cache.values[s]):
                assert mat.is_zero()
                assert mat.shape == (proto.gap.dim_at(g + 1), proto.gap.dim_at(g))


def test_square_top_edge_support():
    proto = square_protocol()
    cache = build_lift_cache(proto)
    cert = cache.cert
    gen = [Fraction(1), Fraction(0)]  # e0+ generates degree-0 homology
    seen = set()
    for s in proto.simplices_of_dim(1):
        if cert.k[s] != 1:
            continue
        tree = cache.trees[s]
        val = cache.values[s][0] @ gen
        support = {proto.gap.cells_at(1)[i] for i, v in enumerate(val) if v != 0}
        assert support <= set(tree.cells)
        seen |= support
    assert seen == {"e1+", "e1-"}


def test_lift_cache_chain_identity_exact():
    for proto in (square_protocol(), cube_sphere_protocol(2)):
        coch = hypercurrent_cochain(proto)
        assert cochain_chain_map_defect(coch) == 0


# --- the cochain and its pairing ------------------------------------------------


def test_constant_protocol_cochain():
    gap = gap_complex(sphere_complex(2), 0, 2)
    wp = WeightPoint(0, 2, ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
    proto = constant_protocol(gap, wp)
    coch = hypercurrent_cochain(proto)
    for key, op in coch.values.items():
        if proto.dim_of(key) >= 1:
            assert all(b.is_zero() for b in op.blocks.values())
        else:
            blk = op.blocks[0]
            assert blk @ blk == blk
            h0 = gap.homology[0]
            for c in range(2):
                vec = [Fraction(0), Fraction(0)]
                vec[c] = Fraction(1)
                assert h0.class_of(blk @ vec) == h0.class_of(vec)


def test_square_pairing_value():
    proto = square_protocol()
    coords, chain = hypercurrent_homology(proto, proto.fundamental_cycle, [1])
    assert chain in ([Fraction(1), Fraction(1)], [Fraction(-1), Fraction(-1)])
    assert coords in ([Fraction(1)], [Fraction(-1)])


def test_cube2_pairing_value():
    proto = cube_sphere_protocol(2)
    coords, chain = hypercurrent_homology(proto, proto.fundamental_cycle, [1])
    assert chain in ([Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)])
    assert coords in ([Fraction(1)], [Fraction(-1)])


@pytest.mark.parametrize("q", [1, 2, 3])
def test_sphere_pairing_is_isomorphism(q):
    proto = cube_sphere_protocol(q)
    coords, _ = hypercurrent_homology(proto, proto.fundamental_cycle, [1])
    assert len(coords) == 1 and abs(coords[0]) == 1


@pytest.mark.parametrize("q", [1, 2, 3])
def test_wedge_pairing_trivial(q):
    proto = cube_protocol(gap_complex(sphere_wedge_complex(q), 0, q))
    coords, chain = hypercurrent_homology(proto, proto.fundamental_cycle, [1])
    assert all(c == 0 for c in coords)
    assert all(c == 0 for c in chain)


def test_collapsed_sphere_nontrivial_pairing():
    gap = gap_complex(collapsed_sphere_complex(3), 1, 3)
    proto = cube_protocol(gap)
    coords, _ = hypercurrent_homology(proto, proto.fundamental_cycle, [1])
    assert len(coords) == 1 and abs(coords[0]) == 1


def test_zero_cycle_gives_zero():
    proto = square_protocol()
    coords, chain = hypercurrent_homology(proto, {}, [1])
    assert coords == [Fraction(0)] and all(c == 0 for c in chain)


def test_not_a_cycle_rejected():
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    with pytest.raises(NotACycle):
        hypercurrent_homology(proto, {edge: 1}, [1])


def test_representative_independence():
    proto = cube_sphere_protocol(2)
    gap = proto.gap
    coch = hypercurrent_cochain(proto)
    rep = gap.parent_hp.representative([Fraction(1)])
    rng = random.Random(5)
    shift = [Fraction(rng.randint(-2, 2)) for _ in range(gap.dim_at(1))]
    rep2 = [a + b for a, b in zip(rep, gap.d(1) @ shift)]

    def pair(vec):
        out = [Fraction(0)] * gap.dim_at(gap.top)
        for key, coeff in proto.fundamental_cycle.items():
            img = coch.operator(key).apply(gap, 0, vec)
            out = [a + coeff * b for a, b in zip(out, img)]
        return gap.homology[gap.top].class_of(out)

    assert pair(rep) == pair(rep2)


def test_scaling_leaves_cochain_unchanged():
    proto = square_protocol()
    a = hypercurrent_cochain(proto)
    b = hypercurrent_cochain(scale(proto, 12.5))
    for key in a.values:
        for g in a.values[key].blocks:
            assert a.values[key].blocks[g] == b.values[key].blocks[g]


def test_functoriality_restriction():
    proto = cube_sphere_protocol(2)
    full = hypercurrent_cochain(proto)
    # restrict to the closed star of one facet: all faces of its triangles
    cert = smallness(proto)
    tris = [s for s in proto.simplices_of_dim(2) if cert.k[s] == 2][:2]
    part = hypercurrent_cochain(restrict(proto, tris))
    for key in part.values:
        for g in range(proto.gap.top + 1):
            assert part.values[key].blocks[g] == full.values[key].blocks[g]


def test_homotopy_invariance_under_subdivision():
    for proto in (square_protocol(), cube_sphere_protocol(2)):
        sub = subdivide(proto)
        c1, _ = hypercurrent_homology(proto, proto.fundamental_cycle, [1])
        c2, _ = hypercurrent_homology(sub, sub.fundamental_cycle, [1])
        assert c1 == c2


def test_initial_condition_identity():
    # q = p: the pairing of a vertex with a class is the class itself
    x = sphere_complex(1)
    gap = gap_complex(x, 1, 1)
    wp = WeightPoint(1, 1, ((0.0, 1.0),))
    proto = constant_protocol(gap, wp)
    coords, _ = hypercurrent_homology(proto, {(0,): 1}, [1])
    assert coords == [Fraction(1)]


def test_positively_acyclic_trees():
    proto = cube_sphere_protocol(2)
    cache = build_lift_cache(proto)
    gap = proto.gap
    for aux in {_tree_aux(gap, t) for t in cache.trees.values()}:
        dims = [len(m) for m in aux.masks]
        for j in range(1, gap.top + 1):
            sub = gap.d(j)[np.ix_(aux.masks[j - 1], aux.masks[j])]
            z = dims[j] - ratlin.rank(sub)
            if j + 1 <= gap.top:
                up = gap.d(j + 1)[np.ix_(aux.masks[j], aux.masks[j + 1])]
                b = ratlin.rank(up)
            else:
                b = 0
            assert z == b


# --- structural triviality --------------------------------------------------------


def test_addendum_examples():
    for q in (1, 2, 3):
        assert not addendum_predicts_trivial(sphere_wedge_complex(q), 0, q)
    tor = torsion_complex()
    assert addendum_predicts_trivial(tor, 0, 2)  # single cell at levels 0 and 1


def test_addendum_trivial_boundary():
    # collapsed sphere has a zero boundary into degree p-1 but not inside
    x = collapsed_sphere_complex(2)
    assert not addendum_predicts_trivial(x, 1, 2)
    # a complex with a zero boundary inside the range
    from hypercurrent.complex_core import CwComplex

    cells = [("v",), ("a", "b")]
    rose = CwComplex("rose2", tuple(cells), (QMat.zeros(1, 2),))
    assert addendum_predicts_trivial(rose, 0, 1)


def test_addendum_cross_check_pairing_zero():
    # whenever the structural conditions hold, every pairing vanishes
    gap = gap_complex(torsion_complex(), 0, 2)
    wp = WeightPoint(0, 2, ((0.0,), (0.0,), (0.0, 1.0)))
    proto = constant_protocol(gap, wp)
    coch = hypercurrent_cochain(proto)
    # closed path is not a cycle; use single vertices against all classes
    for key, op in coch.values.items():
        if proto.dim_of(key) >= 1:
            assert all(b.is_zero() for b in op.blocks.values())


# --- cellular variant ---------------------------------------------------------------


def test_cellular_variant_agrees_on_homology():
    for q in (1, 2):
        gap = gap_complex(sphere_complex(q), 0, q)
        dom, coch = cube_cellular_cochain(gap)
        coords_cw, _ = hypercurrent_homology(dom, dom.fundamental_cycle(), [1], cochain=coch)
        proto = cube_sphere_protocol(q)
        coords_tri, _ = hypercurrent_homology(proto, proto.fundamental_cycle, [1])
        assert abs(coords_cw[0]) == abs(coords_tri[0]) == 1


def test_addendum_single_top_cell():
    import json

    from hypercurrent.complex_core import loads_complex

    seg = loads_complex(
        json.dumps({"name": "segment", "cells": [["0", "1"], ["a"]],
                    "boundary": [[[-1], [1]]]})
    )
    assert addendum_predicts_trivial(seg, 0, 1)  # a single top cell
