import dataclasses
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypercurrent import protocol, ratlin
from hypercurrent.complex_core import gap_complex, loads_complex, sphere_complex, \
    sphere_wedge_complex
from hypercurrent.errors import (
    BadCoordinates,
    LevelMismatch,
    NonfiniteBeta,
    NonpositiveBeta,
    NotACycle,
    NotClosedUnderFaces,
    ParseError,
)
from hypercurrent.forests import greedy_dtree
from hypercurrent.protocol import (
    cube_protocol,
    cube_sphere_protocol,
    dumps_protocol,
    is_good,
    loads_protocol,
    simplicial_protocol,
    smallness,
    square_protocol,
    weights_at,
)
from hypercurrent.ratlin import QMat
from hypercurrent.topo_hyper import tree_functor
from hypercurrent.weight_space import enumerate_top_discriminant_cells, transversal_sphere

from cell_weights import corner_weights, cube_corner_weight
from exact_cochain import cube_cw_domain
from generic import AMPLITUDE, SEEDS, generic_protocol
from protocol_ops import _closure, _cube_boundary, _ordered_to_sorted, _perm_sign, boundary_of, \
    closure_by_faces, least_levels, levels_of, oracle_cube_boundary_protocol, padded_vertices, scale, \
    shuffled_doc, simplex_faces, smallness_by_level, square_doc_without_last_edge, subdivide, tied_protocol, \
    vertex_levels, vertices_of
from test_weight_space import graph_complex, ngon_sphere, three_disc_triangle


def cycle_boundary(proto, cycle):
    out = {}
    for key, coeff in cycle.items():
        for sign, face in simplex_faces(key):
            out[face] = out.get(face, 0) + coeff * sign
    return {k: v for k, v in out.items() if v}


def _normalized_kernel_cycle(tops, boundary_of):
    """The +-1 coefficient vector spanning the kernel of the top boundary."""
    faces = sorted({f for t in tops for _, f in boundary_of(t)}, key=repr)
    face_index = {f: i for i, f in enumerate(faces)}
    mat = [[Fraction(0)] * len(tops) for _ in faces]
    for cidx, t in enumerate(tops):
        for sign, f in boundary_of(t):
            mat[face_index[f]][cidx] += Fraction(sign)
    kernel = ratlin.nullspace(QMat.from_rows(mat, (len(faces), len(tops))))
    if kernel.shape[1] != 1:
        raise ValueError("top-dimensional cycle is not one-dimensional")
    coeffs = [c for (c,) in kernel.to_rows()]
    lead = next(c for c in coeffs if c != 0)
    coeffs = [c / abs(lead) for c in coeffs]
    if any(abs(c) != 1 for c in coeffs):
        raise ValueError("fundamental cycle is not a +-1 chain")
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    return {t: int(c) for t, c in zip(tops, coeffs)}


# --- loading -----------------------------------------------------------------


def test_round_trip_square():
    proto = square_protocol()
    text = dumps_protocol(proto)
    back = loads_protocol(text)
    assert back.vertex_ids == proto.vertex_ids
    assert back.cell_index.keys == proto.cell_index.keys
    assert back.fundamental_cycle == proto.fundamental_cycle
    for a, b in zip(back.level_weights, proto.level_weights, strict=True):
        assert np.array_equal(a, b)


def test_missing_vertex_is_not_closed():
    doc = {
        "complex": {"builtin": "sphere", "q": 1},
        "p": 0,
        "q": 1,
        "vertices": [
            {"id": "A", "weights": {"0": [0.0, 1.0], "1": [0.0, 1.0]}},
        ],
        "simplices": [{"vertices": ["A", "B"]}],
    }
    import json

    with pytest.raises(NotClosedUnderFaces):
        loads_protocol(json.dumps(doc))


def test_level_mismatch():
    doc = {
        "complex": {"builtin": "sphere", "q": 1},
        "p": 0,
        "q": 1,
        "vertices": [{"id": "A", "weights": {"0": [0.0, 1.0], "1": [0.0]}}],
        "simplices": [],
    }
    import json

    with pytest.raises(LevelMismatch):
        loads_protocol(json.dumps(doc))


def test_stored_cycle_outside_the_protocol_is_rejected():
    doc, name = square_doc_without_last_edge()
    with pytest.raises(NotACycle, match=f"cycle names simplex {name},"):
        loads_protocol(json.dumps(doc))


def test_comma_in_a_vertex_id_is_refused_both_ways():
    # a stored cycle key joins vertex ids with commas, so an id holding one
    # can be neither read nor written
    doc = json.loads(dumps_protocol(square_protocol()))
    doc["vertices"][1]["id"] = "c,m"
    with pytest.raises(ParseError, match=r"vertex id 'c,m' holds a comma"):
        loads_protocol(json.dumps(doc))
    proto = subdivide(square_protocol())
    bad = next(vid for vid in proto.vertex_ids if "," in vid)
    with pytest.raises(ValueError, match=f"vertex id {re.escape(repr(bad))} holds a comma"):
        dumps_protocol(proto)


def _numbered_square_doc():
    """The square protocol's document with its vertex ids 0..3 as JSON
    numbers, in its simplices and vertices; its cycle keys name them as the
    strings "0,1" and so on."""
    doc = json.loads(dumps_protocol(square_protocol()))
    number = {v["id"]: k for k, v in enumerate(doc["vertices"])}
    for v in doc["vertices"]:
        v["id"] = number[v["id"]]
    for s in doc["simplices"]:
        s["vertices"] = [number[v] for v in s["vertices"]]
    doc["cycle"] = {",".join(str(number[v]) for v in key.split(",")): c
                    for key, c in doc["cycle"].items()}
    return doc


def test_numeric_vertex_ids_with_a_cycle_are_refused_both_ways(tmp_path, capsys):
    # a stored cycle key is a string of vertex ids, so with a cycle every id
    # must be a string: reading refuses a number, and so does writing
    from hypercurrent import cli

    doc = _numbered_square_doc()
    with pytest.raises(ParseError, match="vertex id 0 is not a string"):
        loads_protocol(json.dumps(doc))
    path = tmp_path / "numbered.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["topo", "current", str(path)]) == 2
    assert "vertex id 0 is not a string" in capsys.readouterr().err
    numbered = dataclasses.replace(square_protocol(), vertex_ids=(0, 1, 2, 3))
    with pytest.raises(ValueError, match="vertex id 0 is not a string"):
        dumps_protocol(numbered)


def test_numeric_vertex_ids_without_a_cycle_read_and_write_back():
    doc = _numbered_square_doc()
    del doc["cycle"]
    proto = loads_protocol(json.dumps(doc))
    assert proto.vertex_ids == (0, 1, 2, 3) and not proto.fundamental_cycle
    text = dumps_protocol(proto)
    again = loads_protocol(text)
    assert again.vertex_ids == proto.vertex_ids and again.cell_index.keys == proto.cell_index.keys
    assert dumps_protocol(again) == text


def _graph_transversal_sphere(name, cells, edges, count):
    """The transversal spheres of the first count top discriminant cells
    of a graph at (0, 1), as one protocol."""
    bnd = [[0] * len(edges) for _ in cells]
    for k, (a, b) in enumerate(edges):
        bnd[a][k], bnd[b][k] = -1, 1
    x = loads_complex(json.dumps({
        "name": name, "cells": [cells, [cells[a] + cells[b] for a, b in edges]],
        "boundary": [bnd]}))
    return transversal_sphere(gap_complex(x, 0, 1), enumerate_top_discriminant_cells(x, 0, 1)[:count])


WRITTEN_DOMAINS = (
    [(f"{kind}{q}", lambda kind=kind, q=q: protocol.builtin_protocol(kind, q))
     for kind in ("cube_sphere", "cube_wedge") for q in (1, 2, 3, 4, 5)]
    + [(f"generic{q}_seed{seed}", lambda q=q, seed=seed: generic_protocol(q, seed))
       for q in AMPLITUDE for seed in SEEDS]
    + [("square", square_protocol),
       # int and float cell names and a numeric complex name
       ("numeric_names", lambda: cube_protocol(gap_complex(_graph(
           2.5, [[1, 2.5], [-3, 4], [0.25, 6]], [[[1, -1], [-1, 1]], [[1, 1], [1, 1]]]), 0, 2))),
       ("path3", lambda: _graph_transversal_sphere("path3", list("xyz"), [(0, 1), (1, 2)], 1)),
       ("triangle", lambda: _graph_transversal_sphere(
           "triangle", list("abc"), [(0, 1), (1, 2), (0, 2)], 2)),
       ("k4_chunk", lambda: _graph_transversal_sphere(
           "k4", list("abcd"), list(itertools.combinations(range(4), 2)), 3))]
)


@pytest.mark.parametrize("make", [m for _, m in WRITTEN_DOMAINS], ids=[n for n, _ in WRITTEN_DOMAINS])
def test_every_written_protocol_reads_back(make, monkeypatch, tmp_path, capsys):
    from hypercurrent import cli

    proto = make()
    text = dumps_protocol(proto)
    back = loads_protocol(text)
    assert back.vertex_ids == proto.vertex_ids
    assert back.cell_index.keys == proto.cell_index.keys
    assert [w.tobytes() for w in back.level_weights] == [w.tobytes() for w in proto.level_weights]
    assert back.fundamental_cycle == proto.fundamental_cycle and proto.fundamental_cycle
    assert back.orientation == proto.orientation
    assert dumps_protocol(back) == text
    # the report of the read-back file is the report of the protocol itself
    path = tmp_path / "proto.json"
    path.write_text(text)
    reports = []
    for loaded in (False, True):
        if loaded:
            monkeypatch.setattr(cli, "_load_protocol_arg", lambda _: proto)
        assert cli.main(["topo", "current", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


simplex_lists = st.lists(
    st.lists(st.integers(0, 13), min_size=1, max_size=4, unique=True).map(lambda s: tuple(sorted(s))),
    max_size=8)


# isolated vertices; a repeated simplex and a face listed beside its simplex;
# vertex indices of 10 and more, where repr order is not numeric order
@example([(3,), (7,)])
@example([(0, 1, 2), (0, 1, 2), (1, 2), (2,)])
@example([(2, 9, 11), (10, 12), (1,)])
@given(simplex_lists)
def test_closure_matches_closure_by_faces(simplices):
    cells, places = protocol._close(protocol._by_dim(simplices), 14)
    assert list(protocol.CellIndex(cells).keys) == closure_by_faces(simplices)
    for d, faces in enumerate(places, start=1):
        for row, at in zip(cells[d].tolist(), faces.tolist()):
            assert [tuple(cells[d - 1][r].tolist()) for r in at] == \
                [f for _, f in simplex_faces(tuple(row))]


def _lookup_domain(name):
    # a file listing its simplices out of order, a union of three squares
    # (the triangle's transversal spheres) and one of three 3-cubes (the
    # 3-gon sphere's)
    if name == "file":
        return loads_protocol(json.dumps(shuffled_doc(cube_sphere_protocol(2), 11)))
    x, q = (_graph("triangle", *GRAPHS["triangle"]), 1) if name == "squares" else (ngon_sphere(3), 2)
    return transversal_sphere(gap_complex(x, 0, q), enumerate_top_discriminant_cells(x, 0, q)[:3])


@pytest.mark.parametrize("name", ["file", "squares", "cubes"])
def test_place_of_equals_a_dict_of_every_cell(name):
    # the oracle: every cell, closed by faces from the top cells and the
    # vertices, numbered in (length, key) order
    proto = _lookup_domain(name)
    nv, dim = len(proto.vertex_ids), proto.dim
    oracle = {key: i for i, key in enumerate(closure_by_faces(
        proto.simplices_of_dim(dim) + [(v,) for v in range(nv)]))}
    assert len(oracle) == proto.cell_index.offsets[-1]
    # the place the dict gives, as an int, for the key in any spelling equal to it
    for key, at in oracle.items():
        for same in (key, tuple(map(np.int64, key)), tuple(map(np.int32, key)), tuple(map(float, key))):
            got = proto.place_of(same)
            assert got == at and type(got) is int
        if dim and len(key) > 1:
            assert proto.place_of(key[::-1]) is None
    assert proto.place_of((False,)) == oracle[(0,)] and proto.place_of((True,)) == oracle[(1,)]
    assert proto.place_of((False, True)) == oracle.get((0, 1))
    # every tuple of up to dim + 2 entries from -1 to nv, as the dict has it
    for n in range(1, dim + 3):
        for key in itertools.combinations(range(-1, nv + 1), n):
            assert proto.place_of(key) == oracle.get(key)
    # none for what names no cell
    size = nv // proto.cell_index.parts
    for key in [(), ("0",), ("a", "b"), (0, "1"), (None,), (0.5,), (math.nan,), (-1,), (-size,), (nv,),
                (nv + size,), (10 ** 30,), tuple(range(dim + 2)), (size - 1, size), (0, size)]:
        assert proto.place_of(key) is None


def test_cell_index_and_level_weights_match_per_cell_reads():
    proto = cube_sphere_protocol(3)   # 16 vertices
    cells = proto.cell_index
    width = proto.dim + 1
    for d in range(width):
        keys = cells.keys[cells.offsets[d]:cells.offsets[d + 1]]
        assert keys == tuple(proto.simplices_of_dim(d))
        # each cell's vertices, one row per cell
        assert cells.rows[d].tolist() == [[v for (v,) in vertices_of(proto, key)] for key in keys]
    assert [proto.place_of(key) for key in cells.keys] == list(range(cells.offsets[-1]))
    # row v of each level is vertex v's corner weights
    corners = [tuple(1 if s == "p" else -1 for s in vid[1:]) for vid in proto.vertex_ids]
    for k, w in enumerate(proto.level_weights):
        assert np.array_equal(w, [cube_corner_weight(proto.gap, c, (1,) * width)[k] for c in corners])


# --- evaluation ----------------------------------------------------------------


def test_weights_at_vertex_indicator():
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    wp = weights_at(proto, edge, [1.0, 0.0])
    assert len(wp) == len(proto.level_weights)
    for got, w in zip(wp, proto.level_weights):
        assert got.dtype == float and np.array_equal(got, w[edge[0]])


def test_weights_at_barycenter():
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    wp = weights_at(proto, edge, [0.5, 0.5])
    for got, w in zip(wp, proto.level_weights, strict=True):
        for a, b, c in zip(got, w[edge[0]], w[edge[1]]):
            assert a == pytest.approx((b + c) / 2)
    # bit for bit the sum over the vertices, entry by entry in Python floats
    coords = [0.3, 0.7]
    for got, w in zip(weights_at(proto, edge, coords), proto.level_weights):
        want = [sum(c * w[v].tolist()[i] for c, v in zip(coords, edge)) for i in range(w.shape[1])]
        assert got.tobytes() == np.array(want).tobytes()


def test_weights_at_bad_coords():
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    with pytest.raises(BadCoordinates):
        weights_at(proto, edge, [0.7, 0.7])
    with pytest.raises(BadCoordinates):
        weights_at(proto, edge, [-0.5, 1.5])
    # a vertex tuple that is no simplex: a diagonal, an index from the end
    # and one past the vertices
    for key in ((0, 3), (-1, 0), (0, 99)):
        with pytest.raises(BadCoordinates, match=re.escape(f"{key} is not a simplex of the protocol")):
            weights_at(proto, key, [0.5, 0.5])


@pytest.mark.parametrize("coords", [[math.nan, math.nan], [math.inf, -math.inf], [math.nan, 1.0]])
def test_weights_at_rejects_nonfinite_coords(coords):
    # NaN compares false against every bound, so it used to pass both checks
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    with pytest.raises(BadCoordinates, match="must be finite"):
        weights_at(proto, edge, coords)


def test_cube2_facet_barycenter_gap():
    proto = cube_sphere_protocol(2)
    least = least_levels(proto, smallness(proto))
    tri = next(s for s in proto.simplices_of_dim(2) if least[s] == 2)
    wp = weights_at(proto, tri, [1 / 3] * 3)
    w2 = wp[2]
    assert abs(abs(w2[0] - w2[1]) - 1.0) < 1e-12


# --- smallness ------------------------------------------------------------------


def test_constant_injective_protocol_all_k_p():
    gap = gap_complex(sphere_complex(1), 0, 1)
    wp = ((0.0, 1.0), (0.0, 0.0))
    proto = simplicial_protocol(
        gap=gap,
        vertex_ids=("A", "B"),
        level_weights=levels_of((wp, wp)),
        simplices=((0,), (1,), (0, 1)),
    )
    least = least_levels(proto, smallness(proto))
    assert all(least[s] == 0 for s in proto.cell_index.keys)


def test_cube_facet_levels():
    for q in (1, 2):
        proto = cube_sphere_protocol(q)
        least = least_levels(proto, smallness(proto))
        corners = {v: c for v, c in enumerate(proto.vertex_ids)}
        for s in proto.simplices_of_dim(q):
            # the facet a top simplex lives in is the axis where all its
            # corners agree
            axes = []
            for i in range(q + 1):
                vals = {1 if corners[v][1 + i] == "p" else -1 for v in s}
                if len(vals) == 1:
                    axes.append(i)
            assert least[s] == min(axes)


def test_tie_straddling_simplex_has_no_k():
    gap = gap_complex(sphere_complex(1), 0, 1)
    up = ((0.0, 1.0), (0.0, 1.0))
    down = ((1.0, 0.0), (1.0, 0.0))
    proto = simplicial_protocol(
        gap=gap,
        vertex_ids=("A", "B"),
        level_weights=levels_of((up, down)),
        simplices=((0,), (1,), (0, 1)),
    )
    assert least_levels(proto, smallness(proto))[(0, 1)] is None
    ok, offender = is_good(proto)
    assert not ok and offender == (0, 1)


def test_good_protocols():
    assert is_good(square_protocol())[0]
    for q in (1, 2, 3):
        assert is_good(cube_sphere_protocol(q))[0]


def loop_certified_levels(gap, points):
    """Levels whose weight functions separate every cell pair with one
    strict sign across all the given points, each its weights as one row
    per level."""
    out = set()
    for j in range(gap.p, gap.q + 1):
        n = gap.parent.n_cells(j)
        ok = True
        for a in range(n):
            for b in range(a + 1, n):
                diffs = [wp[j - gap.p][a] - wp[j - gap.p][b] for wp in points]
                if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(j)
    return out


def loop_smallness(domain):
    # the per-pair loop the certificate used to run, as the oracle: per
    # cell in cell_index order, whether each level is certified, and the
    # least certified level, -1 where there is none
    gap = domain.gap
    keys = domain.cell_index.keys
    levels = np.zeros((len(keys), gap.q - gap.p + 1), dtype=bool)
    least = np.full(len(keys), -1)
    for i, key in enumerate(keys):
        cert = loop_certified_levels(gap, [vertex_levels(domain, v) for v in vertices_of(domain, key)])
        levels[i, [j - gap.p for j in cert]] = True
        least[i] = min(cert, default=-1)
    return levels, least


def _graph(name, cells, boundary):
    return loads_complex(json.dumps({"name": name, "cells": cells, "boundary": boundary}))


def _smallness_domains():
    for q in (1, 2, 3, 4):
        yield cube_sphere_protocol(q)
        yield cube_protocol(gap_complex(sphere_wedge_complex(q), 0, q))
    yield square_protocol()
    for n in (2, 3, 4):
        yield cube_cw_domain(gap_complex(sphere_complex(n - 1), 0, n - 1))
    # midpoint vertices tie the cube coordinate at zero
    yield subdivide(square_protocol())
    yield subdivide(cube_sphere_protocol(2))
    # level 1 tied at both vertices, then at one of them
    tied = ((0.0, 1.0), (0.0, 0.0))
    for other in (tied, ((0.0, 1.0), (2.0, 0.0))):
        yield simplicial_protocol(gap=gap_complex(sphere_complex(1), 0, 1), vertex_ids=("A", "B"),
                                  level_weights=levels_of((tied, other)),
                                  simplices=((0,), (1,), (0, 1)))
    path3 = _graph("path3", [["x", "y", "z"], ["xy", "yz"]], [[[-1, 0], [1, -1], [0, 1]]])
    triangle = _graph("triangle", [["a", "b", "c"], ["ab", "bc", "ca"]],
                      [[[-1, 0, 1], [1, -1, 0], [0, 1, -1]]])
    for x in (path3, triangle):
        gap = gap_complex(x, 0, 1)
        for cell in enumerate_top_discriminant_cells(x, 0, 1):
            yield transversal_sphere(gap, [cell])


def test_smallness_matches_pair_loop():
    uncertified = 0
    for domain in _smallness_domains():
        cert = smallness(domain)
        levels, least = loop_smallness(domain)
        assert np.array_equal(cert.levels, levels) and np.array_equal(cert.least, least)
        uncertified += (~cert.levels).any(axis=1).sum()
    assert uncertified    # some cell pair changes sign, so both outcomes are compared


def _cycle(n):
    """The n-cycle graph: n vertices and n edges, all cells at levels 0 and 1."""
    return graph_complex(f"cycle{n}", [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)])


def _ranked_domains():
    """Domains whose certificate tests compare with the by-level reference:
    the smallness domains, and seeded protocols with ties and swaps at some
    vertices, among them levels of 17 cells, whose rankings are coded in
    Python ints (17^17 >= 2^63)."""
    yield from _smallness_domains()
    for seed in range(4):
        yield tied_protocol(square_protocol(), gap_complex(_cycle(17), 0, 1), seed)
        yield tied_protocol(subdivide(square_protocol()), gap_complex(_cycle(5), 0, 1), seed)
        yield tied_protocol(cube_sphere_protocol(2), gap_complex(three_disc_triangle(), 0, 2), seed)
        yield tied_protocol(cube_sphere_protocol(3), gap_complex(sphere_complex(3), 0, 3), seed)


def test_certificate_matches_the_by_level_reference():
    # levels and least as one whole-ranking gather per level made them;
    # order and rankings give each certified cell's argsort at its first
    # vertex, and its tree is greedy's on that vertex's weights
    widest, uncertified, tied, trees = 0, 0, 0, set()
    for domain in _ranked_domains():
        gap, cert = domain.gap, smallness(domain)
        levels, least = smallness_by_level(domain)
        assert np.array_equal(cert.levels, levels) and np.array_equal(cert.least, least)
        assert np.array_equal(cert.order < 0, cert.least < 0)
        for ranked in cert.rankings:
            assert list(map(tuple, ranked.tolist())) == sorted(set(map(tuple, ranked.tolist())))
        first = padded_vertices(domain.cell_index)[:, 0]
        for row in np.flatnonzero(cert.least >= 0).tolist():
            k = int(cert.least[row])
            w = domain.level_weights[k - gap.p][first[row]]
            ranking = cert.rankings[k - gap.p][cert.order[row]]
            assert ranking.tolist() == np.argsort(w, kind="stable").tolist()
            tree = greedy_dtree(gap, k, dict(zip(gap.parent.cells[k], w.tolist())))
            assert tree_functor(domain, row).key == tree.key
            trees.add(tree.key)
        widest = max(widest, *(w.shape[1] for w in domain.level_weights))
        uncertified += (cert.least < 0).sum()
        tied += sum((np.diff(np.sort(w, axis=1), axis=1) == 0).any(axis=1).sum()
                    for w in domain.level_weights)
    assert widest >= 16 and uncertified and tied and len(trees) > 20


def test_all_zero_weights_bad():
    gap = gap_complex(sphere_complex(1), 0, 1)
    zero = ((0.0, 0.0), (0.0, 0.0))
    proto = simplicial_protocol(
        gap=gap, vertex_ids=("A",), level_weights=levels_of((zero,)), simplices=((0,),)
    )
    assert not is_good(proto)[0]


def test_scale_preserves_certificate():
    proto = cube_sphere_protocol(2)
    scaled = scale(proto, 7.5)
    assert np.array_equal(smallness(proto).least, smallness(scaled).least)
    with pytest.raises(NonpositiveBeta):
        scale(proto, 0.0)


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
def test_scale_rejects_nonfinite_beta(beta):
    # inf times a zero weight is NaN: the scaled protocol would have no
    # small cell
    with pytest.raises(NonfiniteBeta):
        scale(square_protocol(), beta)


def test_scale_identity():
    proto = square_protocol()
    same = scale(proto, 1.0)
    assert all(np.array_equal(a, b) for a, b in zip(same.level_weights, proto.level_weights, strict=True))


# --- cube protocols ---------------------------------------------------------------


def test_square_protocol_fig_pattern():
    proto = square_protocol()
    least = least_levels(proto, smallness(proto))
    for s in proto.simplices_of_dim(1):
        ys = proto.level_weights[1][list(s), 0]  # level-1 weight of e1+ is -y
        xs = proto.level_weights[0][list(s), 0]  # level-0 weight of e0+ is +x
        if all(y < 0 for y in ys):  # top edge: W+ < W-
            assert least[s] == 1
        if all(x > 0 for x in xs):  # right edge: E+ > E-
            assert least[s] == 0


def test_square_cycle_boundary_zero():
    proto = square_protocol()
    assert len(proto.fundamental_cycle) == 4
    assert cycle_boundary(proto, proto.fundamental_cycle) == {}


@pytest.mark.parametrize("q,count", [(1, 4), (2, 12), (3, 48), (4, 240)])
def test_cube_cycle(q, count):
    proto = cube_sphere_protocol(q)
    assert len(proto.fundamental_cycle) == count
    assert all(c in (1, -1) for c in proto.fundamental_cycle.values())
    assert cycle_boundary(proto, proto.fundamental_cycle) == {}


@pytest.mark.parametrize("make", [sphere_complex, sphere_wedge_complex])
@pytest.mark.parametrize("q,signs", [(1, [1, -1]), (2, [-1, 1, -1]), (3, [1, -1, -1, 1])])
def test_cube_cycle_matches_kernel(make, q, signs):
    proto = cube_protocol(gap_complex(make(q), 0, q), signs=signs)
    oracle = _normalized_kernel_cycle(sorted(proto.fundamental_cycle), simplex_faces)
    assert list(proto.fundamental_cycle.items()) == list(oracle.items())
    assert proto.orientation == oracle


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cube_cw_cycle_matches_kernel(n):
    dom = cube_cw_domain(gap_complex(sphere_complex(n - 1), 0, n - 1))
    tops = [c for c in dom.all_cells() if dom.dim_of(c) == n - 1]
    oracle = _normalized_kernel_cycle(tops, dom.boundary_of)
    assert list(dom.fundamental_cycle().items()) == list(oracle.items())


def test_cube_facet_weights_constant():
    proto = cube_sphere_protocol(2)
    # facet x_0 = +1 has constant level-0 weights (1, 0)
    plus_corners = [v for v, cid in enumerate(proto.vertex_ids) if cid[1] == "p"]
    for v in plus_corners:
        assert proto.level_weights[0][v].tolist() == [1.0, 0.0]


def test_wedge_cube_protocol_good():
    q = 2
    gap = gap_complex(sphere_wedge_complex(q), 0, q)
    proto = cube_protocol(gap)
    assert is_good(proto)[0]


# --- permutation signs ----------------------------------------------------------


def cycle_walk_sign(perm):
    """Sign of a permutation of range(n): each cycle of even length flips it."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def test_perm_sign_equals_cycle_walk():
    labels = (3, 7, 8, 12, 20, 31)
    for n in range(7):
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        assert protocol._permutation_signs(perms).tolist() == list(map(cycle_walk_sign, perms.tolist()))
        # the oracles the tests sign simplices with
        for perm in itertools.permutations(range(n)):
            assert _perm_sign(perm) == cycle_walk_sign(perm)
            # an ordered simplex on arbitrary labels, signed as its sort
            ordered = tuple(labels[i] for i in perm)
            srt = tuple(sorted(ordered))
            assert _ordered_to_sorted([(2, ordered)]) == \
                {srt: 2 * cycle_walk_sign([ordered.index(v) for v in srt])}


# --- subdivision --------------------------------------------------------------------


def test_subdivide_square():
    proto = square_protocol()
    sub = subdivide(proto)
    assert len(sub.simplices_of_dim(1)) == 8
    assert cycle_boundary(sub, sub.fundamental_cycle) == {}
    assert is_good(sub)[0]


def test_subdivide_cube2():
    proto = cube_sphere_protocol(2)
    sub = subdivide(proto)
    assert len(sub.simplices_of_dim(2)) == 48
    assert cycle_boundary(sub, sub.fundamental_cycle) == {}
    assert is_good(sub)[0]


# --- cube CW domain ------------------------------------------------------------------


def test_cube_cw_boundary_squares_to_zero():
    gap = gap_complex(sphere_complex(2), 0, 2)
    dom = cube_cw_domain(gap)
    for cell in dom.all_cells():
        acc = {}
        for s1, f1 in dom.boundary_of(cell):
            for s2, f2 in dom.boundary_of(f1):
                acc[f2] = acc.get(f2, 0) + s1 * s2
        assert all(v == 0 for v in acc.values())


def test_cube_cw_counts_and_cycle():
    gap = gap_complex(sphere_complex(2), 0, 2)
    dom = cube_cw_domain(gap)
    cells = dom.all_cells()
    assert sum(1 for c in cells if dom.dim_of(c) == 0) == 8
    assert sum(1 for c in cells if dom.dim_of(c) == 1) == 12
    assert sum(1 for c in cells if dom.dim_of(c) == 2) == 6
    cyc = dom.fundamental_cycle()
    assert len(cyc) == 6
    acc = {}
    for cell, coeff in cyc.items():
        for s, f in dom.boundary_of(cell):
            acc[f] = acc.get(f, 0) + coeff * s
    assert all(v == 0 for v in acc.values())


def test_cube_cw_goodness_and_k():
    gap = gap_complex(sphere_complex(2), 0, 2)
    dom = cube_cw_domain(gap)
    ok, _ = is_good(dom)
    assert ok
    least = least_levels(dom, smallness(dom))
    for cell in dom.all_cells():
        if dom.dim_of(cell) == 2:
            axis = next(a for a, v in enumerate(cell) if v is not None)
            assert least[cell] == axis


def test_order_type_constant_on_certified_levels():
    # on any simplex with a certified level, the ranking of that level is
    # the same at every vertex and at the barycenter
    proto = cube_sphere_protocol(2)
    least = least_levels(proto, smallness(proto))
    for s in proto.simplices_of_dim(2):
        k = least[s]
        n = len(s)
        rankings = []
        for v in s:
            w = proto.level_weights[k][v]
            rankings.append(tuple(sorted(range(len(w)), key=lambda i: w[i])))
        bary = weights_at(proto, s, [1.0 / n] * n)[k]
        rankings.append(tuple(sorted(range(len(bary)), key=lambda i: bary[i])))
        assert len(set(rankings)) == 1


# --- the weight checks of a document and the face view -----------------------------


def _weights_oracle(gap, doc):
    """A document's weight checks one entry at a time: every vertex's
    levels read in vertex then level order (a missing level or an entry
    that is no JSON number, a bool included, is a ParseError), then each
    level's length and its entries' finiteness, in vertex then level
    order."""
    levels = range(gap.p, gap.q + 1)
    for vertex in doc["vertices"]:
        for j in levels:
            if str(j) not in vertex["weights"]:
                raise ParseError(f"bad protocol document: '{j}'")
            for v in vertex["weights"][str(j)]:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ParseError(f"level {j} of vertex {vertex['id']!r} must hold JSON numbers, "
                                     f"got {v!r}")
    for vertex in doc["vertices"]:
        for j in levels:
            row = vertex["weights"][str(j)]
            if len(row) != gap.parent.n_cells(j):
                raise LevelMismatch(f"level {j} weight vector has length {len(row)}, "
                                    f"expected {gap.parent.n_cells(j)}")
            for v in row:
                if not math.isfinite(float(v)):
                    raise LevelMismatch("non-finite weight entry")


def _faulty(proto, faults):
    """The protocol's document with the weights of (vertex, level index)
    replaced by a row, or dropped where the row is MISSING."""
    doc = json.loads(dumps_protocol(proto))
    for v, k, row in faults:
        weights = doc["vertices"][v]["weights"]
        if row is MISSING:
            del weights[str(proto.gap.p + k)]
        else:
            weights[str(proto.gap.p + k)] = list(row)
    return doc


NAN, SHORT, MISSING = (math.nan, 0.0), (0.0,), None
WEIGHT_FAULTS = {
    "nan_then_length": [(1, 0, NAN), (2, 1, SHORT)],
    "length_then_nan": [(1, 1, SHORT), (2, 0, NAN)],
    "nan_below_length_on_one_vertex": [(3, 0, NAN), (3, 1, SHORT)],
    "length_below_nan_on_one_vertex": [(3, 0, SHORT), (3, 1, NAN)],
    "nan_after_length_on_one_vertex": [(3, 1, NAN), (3, 0, SHORT)],
    "inf_only": [(2, 1, (0.0, -math.inf))],
    # a missing level key, then and after a NaN
    "levels_then_nan": [(0, 1, MISSING), (1, 0, NAN)],
    "nan_then_levels": [(1, 0, NAN), (2, 1, MISSING)],
    "string_then_nan": [(0, 1, ("x", 0.0)), (1, 0, NAN)],
    "nan_then_string": [(0, 1, NAN), (1, 0, ("x", 0.0))],
    # float() reads these, but they are no JSON numbers
    "bool_then_nan": [(0, 1, (True, 0.0)), (1, 0, NAN)],
    "nan_then_numeric_string": [(0, 1, NAN), (2, 0, (0.0, "1_0"))],
    "null": [(3, 1, (None, 0.0))],
    "clean": [],
}


@pytest.mark.parametrize("case", list(WEIGHT_FAULTS))
def test_weight_faults_raise_as_one_entry_at_a_time(case):
    # a NaN on one vertex and a length mismatch on another, in both orders,
    # and their neighbours, written into the square's document: loading it
    # raises what the entry-by-entry checks raise first, with the same text
    proto = square_protocol()
    doc = _faulty(proto, WEIGHT_FAULTS[case])
    errors = []
    for check in (lambda: _weights_oracle(proto.gap, doc), lambda: loads_protocol(json.dumps(doc))):
        try:
            check()
            errors.append(None)
        except Exception as exc:    # compared by type and text
            errors.append((type(exc), str(exc)))
    assert errors[0] == errors[1]
    assert (errors[0] is None) == (case == "clean")


@pytest.mark.parametrize("make", [lambda: cube_sphere_protocol(q) for q in (1, 2, 3, 4)]
                         + [lambda: transversal_sphere(*_triangle_gap_and_cells()),
                            lambda: subdivide(cube_sphere_protocol(2))],
                         ids=["cs1", "cs2", "cs3", "cs4", "triangle_union", "subdivided"])
def test_face_rows_are_boundary_of(make):
    proto = make()
    cells = proto.cell_index
    for d, (rows, signs) in enumerate(proto.face_rows):
        lo, a, b = (cells.offsets[d - 1] if d else 0), cells.offsets[d], cells.offsets[d + 1]
        for i, key in enumerate(cells.keys[a:b]):
            got = [(int(s), cells.keys[lo + r]) for r, s in zip(rows[i], signs[i])]
            assert got == boundary_of(proto, key)


def _triangle_gap_and_cells():
    x = loads_complex('{"name": "triangle", "cells": [["a", "b", "c"], ["ab", "bc", "ca"]], '
                      '"boundary": [[[-1, 0, 1], [1, -1, 0], [0, 1, -1]]]}')
    gap = gap_complex(x, 0, 1)
    return gap, enumerate_top_discriminant_cells(x, 0, 1)[:5]


def test_the_builder_closes_an_open_simplex_set():
    # the top cells alone, and every cell but one face, close to the
    # cell_index and face_rows of the closed set
    proto = cube_sphere_protocol(2)
    tops = proto.simplices_of_dim(2)
    args = proto.gap, proto.vertex_ids, proto.level_weights
    closed = simplicial_protocol(*args, closure_by_faces(tops))
    for simplices in (tops, [s for s in proto.cell_index.keys if s != tops[0][1:]]):
        _same_build(simplicial_protocol(*args, simplices), closed)


def test_empty_sequence_of_corner_maps_is_rejected():
    gap = gap_complex(sphere_complex(1), 0, 1)
    with pytest.raises(ValueError, match="empty sequence"):
        protocol.cube_boundary_protocol(gap, [])


# --- the array build against the simplex-by-simplex build ---------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_cube_boundary_equals_the_simplex_by_simplex_build(n):
    cells, places, coeffs = protocol._cube_boundary(n)
    oracle_corners, tops, oracle_coeffs = _cube_boundary(n)
    assert list(map(tuple, protocol.cube_corners(n).tolist())) == list(oracle_corners)
    assert coeffs == oracle_coeffs
    assert np.array_equal(cells[-1], tops)
    keys = [key for rows in cells for key in map(tuple, rows.tolist())]
    assert keys == _closure(list(map(tuple, tops.tolist())))
    for d, faces in enumerate(places, start=1):
        for m in range(d + 1):
            assert np.array_equal(cells[d - 1][faces[:, m]], np.delete(cells[d], m, axis=1))


def _same_build(new, old):
    """The array build and the earlier build agree on every array view,
    the orientation, the cycle and the certificate."""
    assert (new.vertex_ids, new.cell_index.parts) == (old.vertex_ids, old.cell_index.parts)
    assert [w.tobytes() for w in new.level_weights] == [w.tobytes() for w in old.level_weights]
    a, b = new.cell_index, old.cell_index
    assert (a.keys, a.offsets) == (b.keys, b.offsets)
    assert len(a.rows) == len(b.rows) and all(map(np.array_equal, a.rows, b.rows))
    # the lookup through the first part finds every cell where the earlier build's dict did
    assert [new.place_of(key) for key in b.keys] == list(range(b.offsets[-1]))
    assert len(new.face_rows) == len(old.face_rows)
    for (rows, signs), (old_rows, old_signs) in zip(new.face_rows, old.face_rows):
        assert np.array_equal(rows, old_rows) and np.array_equal(signs, old_signs)
    assert new.orientation == old.orientation
    assert list(new.fundamental_cycle.items()) == list(old.fundamental_cycle.items())
    assert np.array_equal(new.certificate.least, old.certificate.least)
    assert np.array_equal(new.certificate.levels, old.certificate.levels)


@pytest.mark.parametrize("kind,q", [(kind, q) for kind in ("cube_sphere", "cube_wedge")
                                    for q in range(1, 7)] + [("square", 1)])
def test_builtins_equal_the_earlier_build(kind, q):
    make = sphere_wedge_complex if kind == "cube_wedge" else sphere_complex
    gap = gap_complex(make(q), 0, q)
    signs = [1, -1] if kind == "square" else [1] * (q + 1)
    proto = protocol.builtin_protocol(kind, q)
    oracle = oracle_cube_boundary_protocol(gap, lambda c: cube_corner_weight(gap, c, signs))
    _same_build(proto, oracle)
    if q <= 4:
        _same_build(loads_protocol(dumps_protocol(proto)), oracle)


GRAPHS = {
    "triangle": ([["a", "b", "c"], ["ab", "bc", "ca"]], [[[-1, 0, 1], [1, -1, 0], [0, 1, -1]]]),
    "path3": ([["x", "y", "z"], ["xy", "yz"]], [[[-1, 0], [1, -1], [0, 1]]]),
    "path4": ([["w", "x", "y", "z"], ["wx", "xy", "yz"]],
              [[[-1, 0, 0], [1, -1, 0], [0, 1, -1], [0, 0, 1]]]),
}


@pytest.mark.parametrize("name,count", [("triangle", 1024), ("path3", None), ("path4", None)])
def test_cube_unions_equal_the_earlier_build(name, count):
    x = _graph(name, *GRAPHS[name])
    gap = gap_complex(x, 0, 1)
    cells = enumerate_top_discriminant_cells(x, 0, 1)
    if count:
        cells = (cells * -(-count // len(cells)))[:count]
    proto = transversal_sphere(gap, cells)
    assert proto.cell_index.parts == len(cells) > 1
    _same_build(proto, oracle_cube_boundary_protocol(gap, [corner_weights(gap, c, 0.25)
                                                           for c in cells]))


@pytest.mark.parametrize("top", [(0, 1, 2, 3, 65535), (0, 40000, 50000, 60000, 65535)])
def test_face_codes_beyond_int64(top):
    # in base 65536 the codes of four vertices go up to 2**64, past int64,
    # so they are Python ints; the face (40000, 50000, 60000, 65535) has a
    # code above 2**63, which int64 would wrap
    nv = 2 ** 16
    wp = ((0.0, 1.0), (0.0, 1.0))
    proto = simplicial_protocol(gap=gap_complex(sphere_complex(1), 0, 1),
                                vertex_ids=tuple(map(str, range(nv))), level_weights=levels_of((wp,) * nv),
                                simplices=(top,))
    cells = proto.cell_index
    assert list(cells.keys) == closure_by_faces([top] + [(v,) for v in range(nv)])
    for d, (rows, signs) in enumerate(proto.face_rows):
        lo, a, b = (cells.offsets[d - 1] if d else 0), cells.offsets[d], cells.offsets[d + 1]
        for i, key in enumerate(cells.keys[a:b]):
            assert [(int(s), cells.keys[lo + r]) for r, s in zip(rows[i], signs[i])] == \
                boundary_of(proto, key)


def _square_doc_with(*repeated):
    """The square protocol's document with simplices that repeat a vertex
    put first, each given by its vertex ids."""
    doc = json.loads(dumps_protocol(square_protocol()))
    doc["simplices"][:0] = [{"vertices": list(ids)} for ids in repeated]
    return doc


@pytest.mark.parametrize("repeated,named", [
    ([("cmm", "cmm")], "(0, 0)"),
    # the first in the document, not the first by dimension
    ([("cpp", "cpm", "cpp"), ("cmm", "cmm")], "(2, 3, 3)"),
])
def test_a_simplex_repeating_a_vertex_is_rejected(repeated, named):
    with pytest.raises(ParseError, match=re.escape(f"simplex {named} is not a strictly sorted "
                                                   "vertex tuple")):
        loads_protocol(json.dumps(_square_doc_with(*repeated)))


@pytest.mark.parametrize("entry", [True, False, "1_0", "1.0", None])
def test_a_weight_entry_is_a_json_number(entry):
    # float() reads True as 1.0 and "1_0" as 10.0; a document's weights are
    # JSON numbers, and the error names the vertex and the level
    doc = _faulty(square_protocol(), [(2, 1, (0.0, entry))])
    with pytest.raises(ParseError, match=re.escape(f"level 1 of vertex 'cpm' must hold JSON numbers, "
                                                   f"got {entry!r}")):
        loads_protocol(json.dumps(doc))
    # an integer is a JSON number
    back = loads_protocol(json.dumps(_faulty(square_protocol(), [(2, 1, (0, 1))])))
    assert back.level_weights[1][2].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("fault,error", [
    ({"simplices": [{"vertices": ["cmm", "cmm"]}]}, "simplex (0, 0) is not a strictly sorted"),
    ({"orientation": 2}, "orientation signs must be +-1"),
])
def test_parse_errors_come_before_level_mismatch(fault, error):
    # a NaN weight is a LevelMismatch, which a simplex that repeats a vertex
    # or a bad orientation sign, both ParseErrors, comes before
    doc = _faulty(square_protocol(), [(1, 0, NAN)])
    if "simplices" in fault:
        doc["simplices"][:0] = fault["simplices"]
    else:
        doc["simplices"][-1]["orientation"] = fault["orientation"]
    with pytest.raises(ParseError, match=re.escape(error)):
        loads_protocol(json.dumps(doc))
    with pytest.raises(LevelMismatch, match="non-finite weight entry"):
        loads_protocol(json.dumps(_faulty(square_protocol(), [(1, 0, NAN)])))
