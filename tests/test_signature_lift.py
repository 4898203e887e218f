"""The lift kept by signature against the lift of every cell.

build_lift_cache lifts only the first cell of each signature its gap has
not seen and gathers every stack from the gap's lifts; the stacked lift
of every cell (stacked_lift.build_lift_cache_stacked) is the oracle for
its stacks, its trees and the first obstruction it names."""

import dataclasses
import itertools
import json
import random
import re

import pytest

from hypercurrent import complex_core, topo_hyper
from hypercurrent.complex_core import gap_complex, sphere_complex, sphere_wedge_complex
from hypercurrent.errors import LiftObstruction
from hypercurrent.forests import make_dtree
from hypercurrent.protocol import builtin_protocol, cube_protocol, dumps_protocol, loads_protocol
from hypercurrent.ratlin import QMat
from hypercurrent.topo_hyper import build_lift_cache
from hypercurrent.weight_space import enumerate_top_discriminant_cells, transversal_sphere

from exact_cochain import cell_trees, cube_cw_domain
from stacked_lift import build_lift_cache_stacked
from test_forests import complete_graph
from test_weight_space import STAR4, graph_complex, path_complex, triangle_complex


def assert_same_lift(proto, cache, oracle):
    """Equal trees by cell, and per dimension and degree the same
    rationals for the same number of cells."""
    assert cell_trees(proto, cache) == cell_trees(proto, oracle)
    assert len(cache.stacks) == len(oracle.stacks)
    for new, old in zip(cache.stacks, oracle.stacks):
        for (num, den), (onum, oden) in zip(new, old, strict=True):
            assert num.shape == onum.shape
            assert (num.astype(object) * oden == onum.astype(object) * den).all()


def count_lifts(monkeypatch):
    """The cells each lift_simplex call is given, one list per call."""
    calls = []
    real = topo_hyper.lift_simplex

    def counted(proto, jdim, rows, cache):
        calls.append(list(rows))
        return real(proto, jdim, rows, cache)

    monkeypatch.setattr(topo_hyper, "lift_simplex", counted)
    return calls


def builtins():
    return [lambda kind=kind, q=q: builtin_protocol(kind, q)
            for kind in ("cube_sphere", "cube_wedge") for q in range(1, 6)] \
        + [lambda: builtin_protocol("square", 1)]


def cube_files():
    def dumped(x, q, signs):
        return lambda: loads_protocol(dumps_protocol(cube_protocol(gap_complex(x, 0, q), signs)))

    return [dumped(make(q), q, list(signs)) for q in (2, 3)
            for make in (sphere_complex, sphere_wedge_complex)
            for signs in itertools.product((1, -1), repeat=q + 1)]


def unions():
    def union(x):
        return lambda: transversal_sphere(gap_complex(x, 0, 1),
                                          enumerate_top_discriminant_cells(x, 0, 1))

    return [union(path_complex()), union(triangle_complex()), union(graph_complex("star4", STAR4))]


def k4_slices():
    # 256 top cells of K4 at (0, 1) a slice: 256 squares, 2048 cells
    x = complete_graph(4)
    tops = enumerate_top_discriminant_cells(x, 0, 1)
    return [lambda a=a: transversal_sphere(gap_complex(x, 0, 1), tops[a:a + 256])
            for a in (0, 30000)]


def cw_domains():
    return [lambda n=n: cube_cw_domain(gap_complex(sphere_complex(n - 1), 0, n - 1))
            for n in (2, 3, 4)]


GROUPS = {"builtins": builtins, "cube_files": cube_files, "unions": unions,
          "k4_slices": k4_slices, "cw_domains": cw_domains}


@pytest.mark.parametrize("group", list(GROUPS))
def test_signature_lift_equals_the_lift_of_every_cell(group, monkeypatch):
    # each domain is lifted from no gaps, then again with every signature
    # kept, in one order and in the reverse order; every lift equals the
    # lift of every cell, and a pass with every signature kept lifts none
    makers = GROUPS[group]()
    oracles = [build_lift_cache_stacked(make()) for make in makers]
    calls = count_lifts(monkeypatch)
    for order in (makers, makers[::-1]):
        complex_core._GAPS.clear()
        expected = oracles if order is makers else oracles[::-1]
        for passes in range(2):
            del calls[:]
            for make, oracle in zip(order, expected):
                proto = make()
                assert_same_lift(proto, build_lift_cache(proto), oracle)
            assert bool(calls) != bool(passes)


def test_the_gap_keeps_one_lift_per_signature(monkeypatch):
    # cube_sphere:3 has 224 cells and 64 signatures; each signature's
    # first cell is lifted, the others gathered
    calls = count_lifts(monkeypatch)
    proto = builtin_protocol("cube_sphere", 3)
    cache = build_lift_cache(proto)
    seen = proto.gap.derived("lifts", topo_hyper._Lifts)
    assert len(proto.all_cells()) == 224
    assert sum(map(len, seen.index.values())) == 64
    assert [len(keys) for keys in calls] == [len(seen.index[j]) for j in (1, 2, 3)]
    for j, stack in enumerate(cache.stacks):
        assert len(stack[0][0]) > len(seen.index[j]) == len(seen.blocks[j][0][0])


def test_the_lift_reads_cells_by_row_only():
    # build_lift_cache, lift_simplex and tree_functor read cells by their
    # cell_index rows: with no key -> row map, and no lift kept by the
    # gap, the lift has the same signatures and stacks
    makers = [lambda: builtin_protocol("cube_sphere", 3), unions()[2]]
    for make in makers:
        proto = make()
        expected = build_lift_cache(proto)
        complex_core._GAPS.clear()
        built = make()
        blind = dataclasses.replace(built, cell_index=built.cell_index._replace(position={}))
        cache = build_lift_cache(blind)
        assert (cache.signatures == expected.signatures).all()
        assert_same_lift(proto, cache, expected)


def test_lift_simplex_needs_every_lower_dimension():
    proto = builtin_protocol("cube_sphere", 2)
    cache = build_lift_cache(proto)
    del cache.stacks[1:]
    with pytest.raises(ValueError, match="every lower dimension"):
        topo_hyper.lift_simplex(proto, 2, [0], cache)


def cube3_file_doc(rng, signs):
    """A q = 3 sphere cube protocol document whose corner weights are
    scaled by seeded factors in [0.5, 2]: the order type of every level at
    every corner is that of the unscaled cube."""
    doc = json.loads(dumps_protocol(cube_protocol(gap_complex(sphere_complex(3), 0, 3), signs)))
    for vertex in doc["vertices"]:
        for level in vertex["weights"].values():
            level[0] *= rng.uniform(0.5, 2.0)
    return doc


def test_two_files_in_one_chamber_lift_once(monkeypatch):
    rng = random.Random(3030)
    docs = [cube3_file_doc(rng, [1, -1, 1, 1]) for _ in range(2)]
    assert docs[0]["vertices"] != docs[1]["vertices"]
    protos = [loads_protocol(json.dumps(doc)) for doc in docs]
    oracles = [build_lift_cache_stacked(proto) for proto in protos]
    complex_core._GAPS.clear()
    calls = count_lifts(monkeypatch)
    first, second = (loads_protocol(json.dumps(doc)) for doc in docs)
    assert first.gap is second.gap
    assert_same_lift(first, build_lift_cache(first), oracles[0])
    assert len(calls) == 3
    assert_same_lift(second, build_lift_cache(second), oracles[1])
    assert len(calls) == 3


def bump_homotopy(monkeypatch, gap, level, cell, degree):
    """Raise entry (0, 0) of one tree's contracting homotopy in one degree."""
    aux = topo_hyper._tree_aux(gap, make_dtree(gap, level, (cell,)))
    h = list(aux.h)
    num = h[degree].num.copy()
    num[0, 0] += h[degree].den
    h[degree] = QMat(num, h[degree].den)
    monkeypatch.setattr(aux, "h", h)


def signatures(proto, trees):
    """Each cell's signature as nested tuples: its tree, then each face's
    signature and sign."""
    out = {}
    for key in proto.all_cells():
        out[key] = (trees[key].key,) + tuple((out[f], s) for s, f in proto.boundary_of(key))
    return out


def test_a_failing_signature_is_named_at_its_first_cell_in_repr_order(monkeypatch):
    # the failing 2-cell (0, 10, 14) shares its signature with (0, 8, 14),
    # which comes first in cell_index order and later in repr order
    proto = builtin_protocol("cube_sphere", 3)
    trees = cell_trees(proto, build_lift_cache(proto))
    complex_core._GAPS.clear()
    proto = builtin_protocol("cube_sphere", 3)
    bump_homotopy(monkeypatch, proto.gap, 3, "e3+", 1)
    with pytest.raises(LiftObstruction) as oracle:
        build_lift_cache_stacked(proto)
    assert str(oracle.value) == "chain-map identity fails at (0, 10, 14), degree 0"
    sig = signatures(proto, trees)
    position = proto.cell_index.position
    assert sig[(0, 8, 14)] == sig[(0, 10, 14)] and position[(0, 8, 14)] < position[(0, 10, 14)]
    calls = count_lifts(monkeypatch)
    seen = proto.gap.derived("lifts", topo_hyper._Lifts)
    for _ in range(2):
        del calls[:]
        with pytest.raises(LiftObstruction) as lifted:
            build_lift_cache(proto)
        assert str(lifted.value) == str(oracle.value) and lifted.value.part == 0
        # the vertices and edges are kept; the failing dimension is lifted
        # again, once for the first cell of each new signature and once for
        # every cell of a new signature, and keeps nothing
        assert seen.index[0] and seen.index[1] and not seen.index[2] and 2 not in seen.blocks
        assert [len(keys) for keys in calls][-2:] == \
            [len(set(map(sig.get, proto.simplices_of_dim(2)))), len(proto.simplices_of_dim(2))]


def test_a_vertex_fault_is_named_in_repr_order(monkeypatch):
    # edges (0, 8), (0, 9) and (0, 10) share a signature; the fault is met
    # first at (0, 10) in repr order
    proto = builtin_protocol("cube_sphere", 3)
    aux = topo_hyper._tree_aux(proto.gap, make_dtree(proto.gap, 0, ("e0+",)))
    phi = list(aux.phi)
    num = phi[0].num.copy()
    num[0, 0] += phi[0].den
    phi[0] = QMat(num, phi[0].den)
    monkeypatch.setattr(aux, "phi", tuple(phi))
    with pytest.raises(LiftObstruction) as oracle:
        build_lift_cache_stacked(proto)
    with pytest.raises(LiftObstruction) as lifted:
        build_lift_cache(proto)
    assert str(lifted.value) == str(oracle.value)
    assert re.search(r"at \(0, 10\)$", str(lifted.value))
