import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from hypercurrent import topo_hyper, weight_space
from hypercurrent.cli import main

from hypercurrent.complex_core import (
    betti,
    dumps_complex,
    gap_complex,
    loads_complex,
    sphere_complex,
    sphere_wedge_complex,
    torsion_complex,
)
from hypercurrent.errors import EpsilonTooLarge, GapViolated, LiftObstruction
from hypercurrent.forests import make_dtree
from hypercurrent.protocol import is_good, smallness
from hypercurrent.ratlin import QMat
from hypercurrent.topo_hyper import hypercurrent_homology
from hypercurrent.weight_space import (
    DiscriminantCellReport,
    classify_cell,
    classify_top_cells,
    enumerate_top_discriminant_cells,
    good_summand_count,
    transversal_sphere,
)

from cell_weights import corner_weights, is_top, stacked
from protocol_ops import least_levels


def path_complex():
    return loads_complex(
        json.dumps(
            {
                "name": "path3",
                "cells": [["x", "y", "z"], ["xy", "yz"]],
                "boundary": [[[-1, 0], [1, -1], [0, 1]]],
            }
        )
    )


def triangle_complex():
    """The triangle graph: three vertices, three edges, H_1 of rank one."""
    return loads_complex(
        json.dumps(
            {
                "name": "triangle",
                "cells": [["a", "b", "c"], ["ab", "bc", "ca"]],
                "boundary": [[[-1, 0, 1], [1, -1, 0], [0, 1, -1]]],
            }
        )
    )


PATH4 = [(0, 1), (1, 2), (2, 3)]
STAR4 = [(0, 1), (0, 2), (0, 3)]


def graph_complex(name, edges):
    """A graph on vertices v0.. with the given edges, each oriented low to
    high."""
    nverts = 1 + max(max(e) for e in edges)
    bnd = [[0] * len(edges) for _ in range(nverts)]
    for k, (a, b) in enumerate(edges):
        bnd[a][k], bnd[b][k] = -1, 1
    return loads_complex(json.dumps({
        "name": name,
        "cells": [[f"v{i}" for i in range(nverts)], [f"e{k}" for k in range(len(edges))]],
        "boundary": [bnd]}))


# --- counting -------------------------------------------------------------------


@pytest.mark.parametrize("q", [1, 2, 3])
def test_sphere_summand_count(q):
    c, contractible = good_summand_count(sphere_complex(q), 0, q)
    assert (c, contractible) == (1, False)


def test_path_graph_count():
    c, contractible = good_summand_count(path_complex(), 0, 1)
    assert (c, contractible) == (5, False)


def test_single_cell_level_contractible():
    c, contractible = good_summand_count(torsion_complex(), 0, 2)
    assert c == 0 and contractible


# --- top-cell enumeration ----------------------------------------------------------


def test_sphere_single_top_cell():
    cells = enumerate_top_discriminant_cells(sphere_complex(2), 0, 2)
    assert len(cells) == 1
    cell = cells[0]
    assert is_top(cell)
    assert cell.dimension == 3  # one block per level
    for j in range(3):
        assert cell.level(j) == ((f"e{j}+", f"e{j}-"),)


def test_path_graph_top_cells():
    cells = enumerate_top_discriminant_cells(path_complex(), 0, 1)
    # 3 pairs x 2 block orders at level 0, 1 x 1 at level 1
    assert len(cells) == 6
    for cell in cells:
        assert is_top(cell)
        assert cell.dimension == 2 + 1


def test_dimension_formula():
    x = sphere_complex(3)
    for cell in enumerate_top_discriminant_cells(x, 0, 3):
        assert cell.dimension == sum(x.n_cells(j) - 1 for j in range(4))


# --- transversal spheres --------------------------------------------------------------


def test_transversal_sphere_is_good_and_square_shaped():
    x = sphere_complex(1)
    cell = enumerate_top_discriminant_cells(x, 0, 1)[0]
    proto = transversal_sphere(gap_complex(x, 0, 1), [cell])
    assert is_good(proto)[0]
    assert len(proto.simplices_of_dim(1)) == 4
    least = least_levels(proto, smallness(proto))
    ks = sorted(least[s] for s in proto.simplices_of_dim(1))
    assert ks == [0, 0, 1, 1]  # opposite pairs of edges pin opposite levels


def test_transversal_sphere_cube_pattern():
    x = sphere_complex(2)
    cell = enumerate_top_discriminant_cells(x, 0, 2)[0]
    proto = transversal_sphere(gap_complex(x, 0, 2), [cell])
    assert is_good(proto)[0]
    assert len(proto.simplices_of_dim(2)) == 12
    least = least_levels(proto, smallness(proto))
    assert sorted({least[s] for s in proto.simplices_of_dim(2)}) == [0, 1, 2]


def test_eps_too_large():
    # needs a level with more than one block, so the center has a gap
    x = path_complex()
    gap = gap_complex(x, 0, 1)
    cell = enumerate_top_discriminant_cells(x, 0, 1)[0]
    with pytest.raises(EpsilonTooLarge):
        transversal_sphere(gap, [cell], eps=0.5)
    with pytest.raises(EpsilonTooLarge):
        transversal_sphere(gap, [cell], eps=0.0)


def test_transversal_good_for_all_fixture_cells():
    for x, p, q in [(sphere_complex(1), 0, 1), (sphere_wedge_complex(2), 0, 2), (path_complex(), 0, 1)]:
        gap = gap_complex(x, p, q)
        for cell in enumerate_top_discriminant_cells(x, p, q):
            proto = transversal_sphere(gap, [cell])
            assert is_good(proto)[0]


# --- classification ---------------------------------------------------------------------


@pytest.mark.parametrize("q", [1, 2])
def test_sphere_essential(q):
    r = classify_top_cells(sphere_complex(q), 0, q)
    assert (r.summands, r.inessential, r.robust_summands) == (1, 0, 1)


@pytest.mark.parametrize("q", [1, 2])
def test_wedge_inessential(q):
    r = classify_top_cells(sphere_wedge_complex(q), 0, q)
    assert (r.summands, r.inessential, r.robust_summands) == (1, 1, 0)


def test_torsion_contractible_counts():
    r = classify_top_cells(torsion_complex(), 0, 2)
    assert (r.summands, r.inessential, r.robust_summands) == (0, 0, 0)


@pytest.mark.parametrize("make, q", [(triangle_complex, 3), (torsion_complex, 3)],
                         ids=["triangle", "torsion"])
def test_counts_outside_a_gap_raise(make, q):
    # the torsion complex has a one-cell level, so its good weight space
    # is contractible; the gap is checked before that shortcut
    with pytest.raises(GapViolated):
        classify_top_cells(make(), 0, q)


def test_classification_report_matrix():
    x = sphere_complex(2)
    cell = enumerate_top_discriminant_cells(x, 0, 2)[0]
    report, = classify_cell(gap_complex(x, 0, 2), [cell])
    assert isinstance(report, DiscriminantCellReport)
    assert report.essential
    assert len(report.current_matrix) == 1 and len(report.current_matrix[0]) == 1
    assert abs(report.current_matrix[0][0]) == 1


def test_classification_eps_independent():
    x = sphere_complex(1)
    cell = enumerate_top_discriminant_cells(x, 0, 1)[0]
    gap = gap_complex(x, 0, 1)
    r1, = classify_cell(gap, [cell], eps=0.25)
    r2, = classify_cell(gap, [cell], eps=0.125)
    assert r1.current_matrix == r2.current_matrix


def _affine_weights(proto, a, b):
    """The protocol with every vertex weight mapped through w -> a w + b."""
    return dataclasses.replace(proto, level_weights=tuple(a * w + b for w in proto.level_weights))


def _pairing(proto):
    nclasses = proto.gap.parent_hp.betti
    [(coords, _)] = hypercurrent_homology(proto, [proto.fundamental_cycle],
                                          QMat.identity(nclasses))
    return coords.T.to_rows()


def test_classification_center_choice_independent():
    # a positive affine map of every vertex weight keeps each level's
    # order and ties, hence the trees and the pairing
    essential = 0
    for x, q, cells in ((sphere_complex(2), 2, slice(0, 1)), (triangle_complex(), 1, slice(None))):
        gap = gap_complex(x, 0, q)
        for cell in enumerate_top_discriminant_cells(x, 0, q)[cells]:
            proto = transversal_sphere(gap, [cell])
            base = _pairing(proto)
            essential += any(v != 0 for col in base for v in col)
            for a, b in ((3, 1), (2, 0), (0.5, -7)):
                assert _pairing(_affine_weights(proto, a, b)) == base
    assert essential == 1 + 6


@pytest.mark.parametrize(
    "make, counts",
    [(path_complex, (5, 5, 0)), (triangle_complex, (25, 24, 1))],
    ids=["path3", "triangle"],
)
def test_robust_count_is_a_rank(make, counts):
    x = make()
    r = classify_top_cells(x, 0, 1)
    c, u, d = r.summands, r.inessential, r.robust_summands
    assert (c, u, d) == counts
    assert u == c - d
    assert 0 <= d <= min(c, betti(x, 0) * betti(x, 1))


@pytest.mark.parametrize(
    "make, q",
    [(path_complex, 1), (triangle_complex, 1), (lambda: sphere_complex(2), 2),
     (lambda: sphere_wedge_complex(2), 2), (lambda: graph_complex("path4", PATH4), 1),
     (lambda: graph_complex("star4", STAR4), 1)],
    ids=["path3", "triangle", "sphere2", "wedge2", "path4", "star4"],
)
def test_one_gap_classification_matches_fresh_gaps(make, q):
    # the one-cell classification on a fresh gap per cell is the oracle for
    # classifying chunks of cells over one gap and one lift per chunk
    x = make()
    report = classify_top_cells(x, 0, q)
    cells = enumerate_top_discriminant_cells(x, 0, q)
    assert [r.height for r in report.cells] == cells
    for shared, cell in zip(report.cells, cells):
        assert [shared] == classify_cell(gap_complex(x, 0, q), [cell])


def test_smallness_certified_once_per_cell(monkeypatch):
    # transversal_sphere's goodness check and the lift share one certificate
    from hypercurrent import protocol

    calls = []
    real = protocol.smallness
    monkeypatch.setattr(protocol, "smallness", lambda dom: calls.append(dom) or real(dom))
    x = path_complex()
    gap = gap_complex(x, 0, 1)
    cells = enumerate_top_discriminant_cells(x, 0, 1)
    for cell in cells:
        classify_cell(gap, [cell])
    assert len(calls) == len(cells) == len({id(dom) for dom in calls})
    assert calls[0].certificate is calls[0].certificate


def loops_complex():
    """One vertex, loops a, b, c and 2-cells with d f0 = d f1 = a - b and
    d f2 = 0: degree-1 homology of rank two."""
    return loads_complex(json.dumps({
        "name": "loops",
        "cells": [["v"], ["a", "b", "c"], ["f0", "f1", "f2"]],
        "boundary": [[[0, 0, 0]], [[1, 1, 0], [-1, -1, 0], [0, 0, 0]]],
    }))


def test_robust_count_with_rank_two_homology():
    report = classify_top_cells(loops_complex(), 1, 2)
    assert (report.summands, report.inessential, report.robust_summands) == (25, 24, 1)
    assert len(report.cells) == 36
    assert sum(rep.essential for rep in report.cells) == 4
    assert all(len(rep.current_matrix) == 2 and len(rep.current_matrix[0]) == 2
               for rep in report.cells)


def test_current_matrix_shape_without_degree_p_homology():
    # H_1 = 0 and H_2 of rank one: rows are indexed by degree-q classes,
    # so every cell's matrix is one row with no entries
    x = loads_complex(json.dumps({
        "name": "no_h1",
        "cells": [["v"], ["a", "b"], ["f0", "f1", "f2"]],
        "boundary": [[[0, 0]], [[1, 0, 1], [0, 1, 0]]],
    }))
    report = classify_top_cells(x, 1, 2)
    assert report.summands == 5 and report.robust_summands == 0
    assert report.cells and all(rep.current_matrix == ((),) for rep in report.cells)


# --- chunks: many cells over one union of transversal spheres -------------------------


def test_union_of_transversal_spheres_is_their_disjoint_union():
    x = triangle_complex()
    gap = gap_complex(x, 0, 1)
    cells = enumerate_top_discriminant_cells(x, 0, 1)[:3]
    union = transversal_sphere(gap, cells)
    assert union.parts == 3 and is_good(union)[0]
    size = len(union.vertex_ids) // 3
    cycles = union.part_cycles()
    assert sum(map(len, cycles)) == len(union.fundamental_cycle)
    for i, (cell, cycle) in enumerate(zip(cells, cycles)):
        alone = transversal_sphere(gap, [cell])
        assert union.vertex_weights[i * size:(i + 1) * size] == alone.vertex_weights
        assert union.vertex_ids[i * size:(i + 1) * size] == tuple(f"{i}.{v}" for v in alone.vertex_ids)
        assert dict(map(lambda kc: (union.part_of(kc[0]), kc[1]), cycle.items())) == \
            {(i, key): c for key, c in alone.fundamental_cycle.items()}
    assert len(union.all_cells()) == 3 * len(alone.all_cells())


def test_uneven_chunks_keep_the_report(monkeypatch):
    # 36 triangle cells in chunks of 7: five full chunks and one of a single cell
    x = triangle_complex()
    whole = classify_top_cells(x, 0, 1)
    calls = []
    real = weight_space.classify_cell
    monkeypatch.setattr(weight_space, "_CHUNK", 7)
    monkeypatch.setattr(weight_space, "classify_cell",
                        lambda gap, cells, eps: calls.append(len(cells)) or real(gap, cells, eps))
    assert classify_top_cells(x, 0, 1) == whole
    assert calls == [7] * 5 + [1]


def test_smallness_certified_once_per_chunk(monkeypatch):
    from hypercurrent import protocol

    calls = []
    real = protocol.smallness
    monkeypatch.setattr(protocol, "smallness", lambda dom: calls.append(dom) or real(dom))
    report = classify_top_cells(path_complex(), 0, 1)
    assert len(report.cells) == 6 and len(calls) == 1 and calls[0].parts == 6


def test_batch_eps_error_is_the_first_cells():
    x = path_complex()
    gap = gap_complex(x, 0, 1)
    first = enumerate_top_discriminant_cells(x, 0, 1)[0]
    with pytest.raises(EpsilonTooLarge) as alone:
        classify_cell(gap, [first], eps=0.5)
    with pytest.raises(EpsilonTooLarge) as batch:
        classify_top_cells(x, 0, 1, eps=0.5)
    assert str(batch.value) == str(alone.value) == "eps = 0.5 is not below half the center gap 1.0"


@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan])
def test_nonfinite_eps_is_rejected(eps):
    # sphere1 has no center gap to compare eps with; inf used to reach the
    # protocol check as a non-finite weight (LevelMismatch)
    x = sphere_complex(1)
    gap = gap_complex(x, 0, 1)
    cell = enumerate_top_discriminant_cells(x, 0, 1)[0]
    for call in (lambda: classify_cell(gap, [cell], eps=eps), lambda: classify_cell(gap, [cell] * 2, eps),
                 lambda: classify_top_cells(x, 0, 1, eps=eps)):
        with pytest.raises(EpsilonTooLarge, match="eps must be finite and positive"):
            call()


def corrupt_cotree(monkeypatch, gap, cell):
    """Raise entry (0, 0) of the degree-0 vertex lift of the gap's co-tree
    {cell}: every vertex whose tree it is lifts wrongly, and so does every
    cell whose faces read such a vertex."""
    aux = topo_hyper._tree_aux(gap, make_dtree(gap, gap.p, (cell,)))
    phi = list(aux.phi)
    num = phi[0].num.copy()
    num[0, 0] += phi[0].den
    phi[0] = QMat(num, phi[0].den)
    monkeypatch.setattr(aux, "phi", tuple(phi))


def test_lift_fault_in_a_batch_names_its_cube(monkeypatch):
    # the one-cell classification with the same fault is the oracle for the
    # message; of the faulty cubes the earliest is named
    x = triangle_complex()
    gap = gap_complex(x, 0, 1)
    cells = enumerate_top_discriminant_cells(x, 0, 1)
    corrupt_cotree(monkeypatch, gap, "c")
    alone = {}
    for i, cell in enumerate(cells):
        try:
            classify_cell(gap, [cell])
        except LiftObstruction as exc:
            alone[i] = exc
    first = min(alone)
    assert first > 0 and len(alone) > 1
    assert alone[first].part == 0 and "at (" in str(alone[first])
    assert str(alone[first]).startswith(f"transversal sphere of top cell {cells[first].blocks}: ")
    with pytest.raises(LiftObstruction) as batch:
        classify_cell(gap, cells)
    assert batch.value.part == first
    assert str(batch.value) == str(alone[first])
    with pytest.raises(LiftObstruction) as report:
        classify_top_cells(x, 0, 1)
    assert str(report.value) == str(batch.value)


def test_lift_fault_in_a_batch_exits_1(monkeypatch, tmp_path, capsys):
    path = tmp_path / "path3.json"
    path.write_text(dumps_complex(path_complex()))
    corrupt_cotree(monkeypatch, gap_complex(path_complex(), 0, 1), "z")
    assert main(["weightspace", "report", str(path), "--p", "0", "--q", "1"]) == 1
    captured = capsys.readouterr()
    assert "internal error: LiftObstruction: transversal sphere of top cell" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("make, summands",
                         [(path_complex, 5), (lambda: graph_complex("path4", PATH4), 23)],
                         ids=["path3", "path4"])
def test_single_level_gap(make, summands, tmp_path, capsys):
    # p == q: the gap complex has no edges, so greedy's co-tree is every
    # vertex, and torsion_of's definitional test now agrees; a 0-sphere's
    # cycle has coefficient sum zero, so every cell is inessential
    x = make()
    report = classify_top_cells(x, 0, 0)
    assert (report.summands, report.robust_summands) == (summands, 0)
    assert len(report.cells) == math.comb(x.n_cells(0), 2) * math.factorial(x.n_cells(0) - 1)
    assert not any(rep.essential for rep in report.cells)
    path = tmp_path / "graph.json"
    path.write_text(dumps_complex(x))
    assert main(["weightspace", "report", str(path), "--p", "0", "--q", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["summands"] == summands


def test_empty_sequence_of_top_cells():
    # classify_cell pairs nothing, as hypercurrent_homology does with no
    # cycles; a transversal sphere of no cells has no protocol to be
    gap = gap_complex(sphere_complex(1), 0, 1)
    assert classify_cell(gap, []) == []
    assert classify_cell(gap, iter([])) == []
    with pytest.raises(ValueError, match="empty sequence"):
        transversal_sphere(gap, [])


# --- the chunk arrays and the pairing per signature tuple, against oracles ---------------


K4 = list(itertools.combinations(range(4), 2))

CHUNKS = {
    "path3": (path_complex, 1), "triangle": (triangle_complex, 1),
    "star4": (lambda: graph_complex("star4", STAR4), 1),
    "sphere1": (lambda: sphere_complex(1), 1), "sphere2": (lambda: sphere_complex(2), 2),
    "wedge1": (lambda: sphere_wedge_complex(1), 1), "wedge2": (lambda: sphere_wedge_complex(2), 2),
    "K4": (lambda: graph_complex("K4", K4), 1),
}


def _chunk(name):
    """The gap of a fixture and its first chunk of top cells."""
    make, q = CHUNKS[name]
    x = make()
    return gap_complex(x, 0, q), enumerate_top_discriminant_cells(x, 0, q)[:weight_space._CHUNK]


@pytest.mark.parametrize("name", list(CHUNKS))
@pytest.mark.parametrize("eps", [0.25, 0.1])
def test_chunk_corner_weights_equal_the_per_cell_oracle(name, eps):
    # bit for bit: one corner map and one WeightPoint per corner of each cube
    gap, cells = _chunk(name)
    proto = transversal_sphere(gap, cells, eps)
    oracle = stacked(gap, [corner_weights(gap, c, eps) for c in cells])
    assert len(proto.level_weights) == len(oracle)
    for got, want in zip(proto.level_weights, oracle):
        assert got.dtype == want.dtype and got.shape == (want.shape[0] * want.shape[1], want.shape[2])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(CHUNKS))
def test_one_pairing_per_signature_tuple(name, monkeypatch):
    # the reports equal one pairing per cube over the same union, and the
    # chunk pairs one cycle per distinct tuple of its cubes' top signatures
    gap, cells = _chunk(name)
    paired = []
    real = weight_space.hypercurrent_homology
    monkeypatch.setattr(weight_space, "hypercurrent_homology",
                        lambda proto, cycles, units: paired.append((proto, len(cycles)))
                        or real(proto, cycles, units))
    reports = classify_cell(gap, cells)
    (proto, count), = paired
    tuples = set(map(tuple, proto.lift.signatures.reshape(len(cells), -1).tolist()))
    assert count == len(tuples) <= len(cells)
    per_cube = real(proto, proto.part_cycles(), QMat.identity(gap.parent_hp.betti))
    assert [r.height for r in reports] == cells
    for report, (coords, _) in zip(reports, per_cube):
        current = tuple(map(tuple, coords.to_rows()))
        assert report.current_matrix == current
        assert report.essential == any(v != 0 for row in current for v in row)
    if name == "K4":
        assert count < len(cells) // 10


def _first_error(call):
    try:
        call()
    except Exception as exc:    # compared by type and text
        return type(exc), str(exc)
    return None


def _not_top(cell):
    """The height data with level p's two-block split into singletons."""
    lvl = cell.blocks[0]
    split = tuple(b for block in lvl for b in ([block] if len(block) == 1 else [(nm,) for nm in block]))
    return dataclasses.replace(cell, blocks=(split,) + cell.blocks[1:])


@pytest.mark.parametrize("eps", [0.25, 0.5, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("make", [path_complex, lambda: sphere_complex(1)], ids=["path3", "sphere1"])
def test_check_order_is_the_per_cell_order(make, eps):
    # not top, then eps not finite and positive, then eps not below half the
    # center gap, each for the earliest cell that fails one, as the per-cell
    # oracle meets them cell by cell
    x = make()
    gap = gap_complex(x, 0, 1)
    top = enumerate_top_discriminant_cells(x, 0, 1)
    bad = _not_top(top[0])
    assert not is_top(bad)
    seen = set()
    for cells in ([top[0]], top[:2], [bad], [top[0], bad], [bad, top[0]], top[:1] + [bad] * 2):
        want = _first_error(lambda: [corner_weights(gap, c, eps) for c in cells])
        assert _first_error(lambda: transversal_sphere(gap, cells, eps)) == want
        seen.add(want and want[0])
    assert ValueError in seen
