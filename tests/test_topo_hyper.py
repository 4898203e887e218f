import random
import re
from fractions import Fraction

import numpy as np
import pytest

from hypercurrent import complex_core, ratlin, topo_hyper
from hypercurrent.complex_core import (
    collapsed_sphere_complex,
    gap_complex,
    sphere_complex,
    sphere_wedge_complex,
    torsion_complex,
)
from hypercurrent.errors import LiftObstruction, NotACycle, NotSmall
from hypercurrent.ratlin import QMat
from hypercurrent.protocol import (
    cube_protocol,
    cube_sphere_protocol,
    simplicial_protocol,
    smallness,
    square_protocol,
)
from hypercurrent.topo_hyper import (
    _tree_aux,
    build_lift_cache,
    hypercurrent_homology,
    tree_functor,
)

from eager_lift import build_lift_cache_eager
from exact_cochain import (addendum_predicts_trivial, cell_blocks, cell_trees,
                           chain_map_defect_oracle, cube_cellular_cochain, hypercurrent_cochain)
from protocol_ops import _closure, least_levels, levels_of, pair_one, scale, subdivide
from test_lift_oracle import build_lift_cache_oracle


def lift_vertex(proto, vertex_key):
    """Canonical chain map into the vertex tree's subcomplex: identity in
    degree 0 for trees above the bottom level, projection along the
    boundary space onto the co-tree span at the bottom; higher degrees
    via the contracting homotopy."""
    tree = tree_functor(proto, proto.cell_index.position[vertex_key])
    return tree, _tree_aux(proto.gap, tree).phi


def restrict(proto, keys):
    """Face-closed sub-protocol generated by the given simplices and every
    vertex."""
    closed = _closure([tuple(k) for k in keys])
    present = set(closed)
    return simplicial_protocol(
        gap=proto.gap,
        vertex_ids=proto.vertex_ids,
        level_weights=proto.level_weights,
        simplices=tuple(closed),
        orientation={k: v for k, v in proto.orientation.items() if k in present},
        cycle={k: v for k, v in proto.fundamental_cycle.items() if k in present},
    )


def constant_protocol(gap, point, nvertices=3):
    """A path of nvertices vertices, all carrying the same weights: point,
    one row per level."""
    simplices = [(i, i + 1) for i in range(nvertices - 1)]
    return simplicial_protocol(
        gap=gap,
        vertex_ids=tuple(f"v{i}" for i in range(nvertices)),
        level_weights=levels_of([point] * nvertices),
        simplices=tuple(
            sorted([(i,) for i in range(nvertices)] + simplices, key=lambda s: (len(s), s))
        ),
    )


# --- tree functor ------------------------------------------------------------


def test_tree_functor_cube2_facets():
    proto = cube_sphere_protocol(2)
    least = least_levels(proto, smallness(proto))
    for s in proto.simplices_of_dim(2):
        k = least[s]
        t = tree_functor(proto, proto.cell_index.position[s])
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
        least = least_levels(proto, smallness(proto))
        for s in proto.simplices_of_dim(q):
            if least[s] == q:
                assert tree_functor(proto, proto.cell_index.position[s]).cells == (f"e{q}id",)


def test_tree_functor_not_small():
    gap = gap_complex(sphere_complex(1), 0, 1)
    up = ((0.0, 1.0), (0.0, 1.0))
    down = ((1.0, 0.0), (1.0, 0.0))
    proto = simplicial_protocol(
        gap=gap, vertex_ids=("A", "B"), level_weights=levels_of((up, down)),
        simplices=((0,), (1,), (0, 1)),
    )
    with pytest.raises(NotSmall):
        tree_functor(proto, proto.cell_index.position[(0, 1)])


def test_tree_functor_face_inclusion():
    # the face's tree sits inside the cell's tree as a subcomplex
    for proto in (square_protocol(), cube_sphere_protocol(2)):
        position = proto.cell_index.position
        for s in proto.all_cells():
            t = tree_functor(proto, position[s])
            for _, f in proto.boundary_of(s):
                tf = tree_functor(proto, position[f])
                assert tf.level <= t.level
                if tf.level == t.level:
                    assert tf.cells == t.cells


def test_tree_functor_shared_over_the_gap():
    # scaling keeps every order type, so both protocols get the same tree
    # objects from the gap's memo
    proto = cube_sphere_protocol(2)
    scaled = scale(proto, 3.0)
    assert scaled.gap is proto.gap
    for row in range(len(proto.all_cells())):
        assert tree_functor(scaled, row) is tree_functor(proto, row)


def test_lift_reads_no_weight_point_or_vertex_list(monkeypatch):
    # the trees come from the certificate alone: once it is made, a
    # protocol whose vertices_of and level_weights raise lifts and pairs
    # to the same class, on a gap that has kept no tree
    first = cube_sphere_protocol(3)
    expected = hypercurrent_homology(first, [first.fundamental_cycle], QMat.identity(1))
    complex_core._GAPS.clear()
    proto = cube_sphere_protocol(3)
    proto.certificate

    def refused(self, key=None):
        raise AssertionError("the lift reads the domain's arrays and certificate only")

    monkeypatch.setattr(type(proto), "vertices_of", refused)
    monkeypatch.setattr(type(proto), "level_weights", property(refused), raising=False)
    with pytest.raises(AssertionError, match="certificate only"):
        proto.level_weights
    assert hypercurrent_homology(proto, [proto.fundamental_cycle], QMat.identity(1)) == expected


def test_lift_cache_one_tree_per_level_and_order_type(monkeypatch):
    # the tree depends only on the cell's level and the order type of that
    # level at the cell's first vertex, so build_lift_cache asks for it once
    # per such pair, not once per first vertex and level
    proto = cube_sphere_protocol(3)
    least = least_levels(proto, proto.certificate)
    keys = proto.cell_index.keys
    calls = []
    original = topo_hyper.tree_functor

    def counted(proto, row):
        calls.append(keys[row])
        return original(proto, row)

    monkeypatch.setattr(topo_hyper, "tree_functor", counted)
    cache = build_lift_cache(proto)

    def order_type(key):
        k = least[key]
        weights = proto.level_weights[k - proto.gap.p][proto.vertices_of(key)[0][0]].tolist()
        return k, tuple(sorted(range(len(weights)), key=weights.__getitem__))

    pairs = {(proto.vertices_of(key)[0], least[key]) for key in proto.all_cells()}
    assert len(calls) == len(set(map(order_type, proto.all_cells()))) < len(pairs)
    assert len({order_type(key) for key in calls}) == len(calls)
    trees = cell_trees(proto, cache)
    for row, key in enumerate(keys):
        assert trees[key] is original(proto, row)


# --- vertex lifts -------------------------------------------------------------


def test_lift_vertex_tree_level_identity():
    proto = square_protocol()
    cert = smallness(proto)
    # a vertex with k=0 lives at co-tree level; build a level-1 vertex via
    # a constant protocol whose level-0 weights tie
    gap = proto.gap
    wp = ((0.0, 0.0), (0.0, 1.0))
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
            vec = QMat.identity(2)[:, col:col + 1]
            image = phi[0] @ vec
            assert h0.class_of(image) == h0.class_of(vec)


def test_lift_vertex_cotree_explicit_value():
    # co-tree {e0+} on the circle projects e0- onto e0+ along the bounds
    proto = square_protocol()
    target = None
    for v in range(len(proto.vertex_ids)):
        t = tree_functor(proto, proto.cell_index.position[(v,)])
        if t.cells == ("e0+",):
            target = v
            break
    tree, phi = lift_vertex(proto, (target,))
    image = phi[0] @ QMat.from_rows([[0], [1]], (2, 1))
    assert image == QMat.from_rows([[1], [0]], (2, 1))


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
    least = least_levels(proto, proto.certificate)
    for s in proto.simplices_of_dim(1):
        if least[s] == 0:
            # both endpoints share the edge's co-tree, so the lift vanishes
            for g, mat in enumerate(cell_blocks(proto, cache)[s]):
                assert mat.is_zero()
                assert mat.shape == (proto.gap.dim_at(g + 1), proto.gap.dim_at(g))


def test_square_top_edge_support():
    proto = square_protocol()
    cache = build_lift_cache(proto)
    least = least_levels(proto, proto.certificate)
    gen = QMat.from_rows([[1], [0]], (2, 1))  # e0+ generates degree-0 homology
    seen = set()
    for s in proto.simplices_of_dim(1):
        if least[s] != 1:
            continue
        tree = cell_trees(proto, cache)[s]
        val = cell_blocks(proto, cache)[s][0] @ gen
        support = {proto.gap.cells_at(1)[i] for i, (v,) in enumerate(val.to_rows()) if v != 0}
        assert support <= set(tree.cells)
        seen |= support
    assert seen == {"e1+", "e1-"}


def test_lift_cache_chain_identity_exact():
    for proto in (square_protocol(), cube_sphere_protocol(2)):
        coch = hypercurrent_cochain(proto)
        assert chain_map_defect_oracle(coch) == 0


# --- the cochain and its pairing ------------------------------------------------


def test_constant_protocol_cochain():
    gap = gap_complex(sphere_complex(2), 0, 2)
    wp = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
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
                vec = QMat.identity(2)[:, c:c + 1]
                assert h0.class_of(blk @ vec) == h0.class_of(vec)


def test_square_pairing_value():
    proto = square_protocol()
    coords, chain = pair_one(proto, proto.fundamental_cycle)
    assert chain in ([Fraction(1), Fraction(1)], [Fraction(-1), Fraction(-1)])
    assert coords in ([Fraction(1)], [Fraction(-1)])


def test_cube2_pairing_value():
    proto = cube_sphere_protocol(2)
    coords, chain = pair_one(proto, proto.fundamental_cycle)
    assert chain in ([Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)])
    assert coords in ([Fraction(1)], [Fraction(-1)])


@pytest.mark.parametrize("q", [1, 2, 3])
def test_sphere_pairing_is_isomorphism(q):
    proto = cube_sphere_protocol(q)
    coords, _ = pair_one(proto, proto.fundamental_cycle)
    assert len(coords) == 1 and abs(coords[0]) == 1


@pytest.mark.parametrize("q", [1, 2, 3])
def test_wedge_pairing_trivial(q):
    proto = cube_protocol(gap_complex(sphere_wedge_complex(q), 0, q))
    coords, chain = pair_one(proto, proto.fundamental_cycle)
    assert all(c == 0 for c in coords)
    assert all(c == 0 for c in chain)


def test_collapsed_sphere_nontrivial_pairing():
    gap = gap_complex(collapsed_sphere_complex(3), 1, 3)
    proto = cube_protocol(gap)
    coords, _ = pair_one(proto, proto.fundamental_cycle)
    assert len(coords) == 1 and abs(coords[0]) == 1


def test_zero_cycle_gives_zero():
    proto = square_protocol()
    coords, chain = pair_one(proto, {})
    assert coords == [Fraction(0)] and all(c == 0 for c in chain)


def test_not_a_cycle_rejected():
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    with pytest.raises(NotACycle):
        hypercurrent_homology(proto, [{edge: 1}], QMat.identity(1))


def test_cycle_outside_the_domain_is_not_a_cycle():
    # the square's cycle paired over the path its last edge leaves behind
    proto = square_protocol()
    edges = proto.simplices_of_dim(1)
    path = restrict(proto, edges[:-1])
    with pytest.raises(NotACycle, match=re.escape(f"cycle names {edges[-1]}, which is not a cell")):
        hypercurrent_homology(path, [proto.fundamental_cycle], QMat.identity(1))


def test_many_cycles_pair_as_each_alone():
    # cycles of different lengths and denominators over one lift of a
    # three-part union, against one call per cycle
    from hypercurrent.complex_core import loads_complex
    from hypercurrent.weight_space import enumerate_top_discriminant_cells, transversal_sphere

    x = loads_complex('{"name": "triangle", "cells": [["a", "b", "c"], ["ab", "bc", "ca"]], '
                      '"boundary": [[[-1, 0, 1], [1, -1, 0], [0, 1, -1]]]}')
    union = transversal_sphere(gap_complex(x, 0, 1), enumerate_top_discriminant_cells(x, 0, 1)[:3])
    a, b, c = union.part_cycles()
    cycles = [a, {}, {k: Fraction(-3, 2) * v for k, v in {**b, **c}.items()}, c]
    for classes in ([[1]], [[Fraction(2, 3)]], [[1, Fraction(2, 3), 0]]):
        classes = QMat.from_rows(classes, (1, len(classes[0])))
        many = hypercurrent_homology(union, cycles, classes)
        assert many == [hypercurrent_homology(union, [cycle], classes)[0] for cycle in cycles]
        assert all(m.shape[1] == classes.shape[1] for pair in many for m in pair)
    one = QMat.identity(1)
    assert any(not coords.is_zero() for coords, _ in hypercurrent_homology(union, cycles, one))
    assert hypercurrent_homology(union, [], one) == []
    with pytest.raises(NotACycle, match="nonzero boundary"):
        hypercurrent_homology(union, [a, {next(iter(b)): 1}], one)


def test_representative_independence():
    proto = cube_sphere_protocol(2)
    gap = proto.gap
    coch = hypercurrent_cochain(proto)
    rep = gap.parent_hp.representative(QMat.identity(1))
    rng = random.Random(5)
    shift = QMat.from_rows([[rng.randint(-2, 2)] for _ in range(gap.dim_at(1))], (gap.dim_at(1), 1))
    rep2 = rep + gap.d(1) @ shift

    def pair(vec):
        out = QMat.zeros(gap.dim_at(gap.top), 1)
        for key, coeff in proto.fundamental_cycle.items():
            out = out + coeff * (coch.values[key].blocks[0] @ vec)
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
    least = least_levels(proto, smallness(proto))
    tris = [s for s in proto.simplices_of_dim(2) if least[s] == 2][:2]
    part = hypercurrent_cochain(restrict(proto, tris))
    for key in part.values:
        for g in range(proto.gap.top + 1):
            assert part.values[key].blocks[g] == full.values[key].blocks[g]


def test_homotopy_invariance_under_subdivision():
    for proto in (square_protocol(), cube_sphere_protocol(2)):
        sub = subdivide(proto)
        c1, _ = pair_one(proto, proto.fundamental_cycle)
        c2, _ = pair_one(sub, sub.fundamental_cycle)
        assert c1 == c2


def test_initial_condition_identity():
    # q = p: the pairing of a vertex with a class is the class itself
    x = sphere_complex(1)
    gap = gap_complex(x, 1, 1)
    wp = ((0.0, 1.0),)
    proto = constant_protocol(gap, wp)
    coords, _ = pair_one(proto, {(0,): 1})
    assert coords == [Fraction(1)]


def test_positively_acyclic_trees():
    proto = cube_sphere_protocol(2)
    cache = build_lift_cache(proto)
    gap = proto.gap
    for aux in {_tree_aux(gap, t) for t in cache.trees}:
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
    wp = ((0.0,), (0.0,), (0.0, 1.0))
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
        dom, _ = cube_cellular_cochain(gap)
        coords_cw, _ = pair_one(dom, dom.fundamental_cycle())
        proto = cube_sphere_protocol(q)
        coords_tri, _ = pair_one(proto, proto.fundamental_cycle)
        assert abs(coords_cw[0]) == abs(coords_tri[0]) == 1


def test_addendum_single_top_cell():
    import json

    from hypercurrent.complex_core import loads_complex

    seg = loads_complex(
        json.dumps({"name": "segment", "cells": [["0", "1"], ["a"]],
                    "boundary": [[[-1], [1]]]})
    )
    assert addendum_predicts_trivial(seg, 0, 1)  # a single top cell


# --- lazy blocks against the eager unpack ------------------------------------------


def _cube3_file():
    from test_lift_oracle import _perturbed_cube3_file

    return _perturbed_cube3_file()


LAZY_DOMAINS = {
    "cube_sphere3": lambda: cube_sphere_protocol(3),
    "cube_wedge3": lambda: cube_protocol(gap_complex(sphere_wedge_complex(3), 0, 3)),
    "cube3_file": _cube3_file,
}


@pytest.mark.parametrize("name", list(LAZY_DOMAINS))
def test_lazy_blocks_equal_eager_unpack(name):
    proto = LAZY_DOMAINS[name]()
    cache = build_lift_cache(proto)
    lazy = cell_blocks(proto, cache)
    eager = build_lift_cache_eager(proto)
    assert cell_trees(proto, cache) == eager.trees
    assert len(lazy) == len(eager.values) == len(proto.all_cells())
    assert set(lazy) == set(eager.values)
    for key, mats in eager.values.items():
        assert lazy[key] == mats


def test_first_obstruction_follows_repr_order(monkeypatch):
    # two failing edges whose numeric order and (dim, repr) order disagree:
    # the error names the one a cell-by-cell pass in (dim, repr) order meets
    proto = cube_sphere_protocol(3)
    edges = proto.simplices_of_dim(1)
    a, b = next((e, f) for e in edges for f in edges if e[0] == f[0] and 2 <= e[1] < 10 <= f[1])
    assert a < b and repr(b) < repr(a)
    real = type(proto).boundary_of

    def flipped(self, key):
        (sign, face), *rest = real(self, key)
        return [(-sign if key in (a, b) else sign, face)] + rest

    monkeypatch.setattr(type(proto), "boundary_of", flipped)
    # the library's lift reads the face view: the same flip there
    index, views = proto.cell_index, list(proto.face_rows)
    rows, signs = views[1]
    signs = signs.copy()
    signs[[index.position[e] - index.offsets[1] for e in (a, b)], 0] *= -1
    views[1] = (rows, signs)
    monkeypatch.setitem(proto.__dict__, "face_rows", tuple(views))
    with pytest.raises(LiftObstruction) as eager:
        build_lift_cache_eager(proto)
    with pytest.raises(LiftObstruction) as lazy:
        build_lift_cache(proto)
    assert str(eager.value).endswith(f"at {b}")
    assert str(lazy.value) == str(eager.value)


# --- the lift's Python-int stacks and the cycle check on face rows -----------


def _fundamental_cycle(domain):
    cycle = domain.fundamental_cycle
    return cycle() if callable(cycle) else cycle


INT64_DOMAINS = {
    "cube_sphere3": lambda: cube_sphere_protocol(3),
    "cube_wedge3": lambda: cube_protocol(gap_complex(sphere_wedge_complex(3), 0, 3)),
    "cube_cw3": lambda: cube_cellular_cochain(gap_complex(sphere_complex(2), 0, 2))[0],
}


@pytest.mark.parametrize("name", list(INT64_DOMAINS))
def test_lift_holds_python_ints_and_matches_fraction_oracle(name):
    # every stack, every QMat read from it and the pairing hold Python ints,
    # on domains whose entries would fit int64, and each cell's blocks are
    # the cell-by-cell Fraction lift's
    proto = INT64_DOMAINS[name]()
    cache = build_lift_cache(proto)
    [pairing] = hypercurrent_homology(proto, [_fundamental_cycle(proto)], QMat.identity(1))
    assert all(num.dtype == object and type(den) is int
               for stack in cache.stacks for num, den in stack)
    assert all(type(v) is int for stack in cache.stacks for num, _ in stack for v in num.flat)
    blocks = cell_blocks(proto, cache)
    assert all(m.num.dtype == object for mats in blocks.values() for m in mats)
    old = build_lift_cache_oracle(proto)
    assert blocks.keys() == old.values.keys()
    for key, mats in blocks.items():
        assert [m.to_rows() for m in mats] == [list(map(list, m)) for m in old.values[key]]
    assert all(type(m.den) is int and all(type(v) is int for v in m.num.flat) for m in pairing)


def test_cycle_check_reads_the_face_rows():
    # a chain raises NotACycle exactly when its boundary, summed face by face
    # through boundary_of, is nonzero; alone and in a sequence of cycles
    proto = cube_sphere_protocol(2)
    cycle = proto.fundamental_cycle
    rng = random.Random(2525)
    for _ in range(20):
        chain = {key: rng.choice((2, 3)) * c for key, c in cycle.items()}
        for key in rng.sample(list(chain), rng.choice((0, 0, 1, 2))):
            chain[key] += rng.choice((-1, 1))
        bnd = {}
        for key, c in chain.items():
            for sign, face in proto.boundary_of(key):
                bnd[face] = bnd.get(face, 0) + sign * c
        if any(bnd.values()):
            with pytest.raises(NotACycle, match="nonzero boundary"):
                hypercurrent_homology(proto, [chain], QMat.identity(1))
            with pytest.raises(NotACycle, match="nonzero boundary"):
                hypercurrent_homology(proto, [cycle, chain, cycle], QMat.identity(1))
        else:
            assert hypercurrent_homology(proto, [cycle, chain], QMat.identity(1))[1] == \
                hypercurrent_homology(proto, [chain], QMat.identity(1))[0]


def test_nonzero_boundary_is_raised_before_a_cell_outside_the_domain():
    proto = square_protocol()
    edges = proto.simplices_of_dim(1)
    path = restrict(proto, edges[:-1])
    outside = re.escape(f"cycle names {edges[-1]}, which is not a cell of the domain")
    # the square's cycle names an edge the path does not hold
    with pytest.raises(NotACycle, match="nonzero boundary"):
        hypercurrent_homology(path, [proto.fundamental_cycle, {edges[0]: 1}], QMat.identity(1))
    with pytest.raises(NotACycle, match=outside):
        hypercurrent_homology(path, [{}, proto.fundamental_cycle], QMat.identity(1))
    with pytest.raises(NotACycle, match=outside):
        hypercurrent_homology(path, [{edges[-1]: 1}], QMat.identity(1))
    with pytest.raises(NotACycle, match="support outside the top dimension"):
        hypercurrent_homology(proto, [{}, {edges[0][:1]: 1}], QMat.identity(1))


def test_pairing_names_its_forms_when_given_another():
    # a single cycle mapping in place of a sequence of them, and a list of
    # classes in place of a QMat of class columns, are TypeErrors naming both
    proto = square_protocol()
    cycle = proto.fundamental_cycle
    forms = "expected a sequence of cycle mappings and a QMat of class columns"
    with pytest.raises(TypeError, match=re.escape(forms)):
        hypercurrent_homology(proto, cycle, QMat.identity(1))
    with pytest.raises(TypeError, match=re.escape(forms)):
        hypercurrent_homology(proto, [cycle], [[1]])
    [(coords, _)] = hypercurrent_homology(proto, [cycle], QMat.identity(1))
    assert coords.shape == (1, 1)
