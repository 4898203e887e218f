import json
import random
from fractions import Fraction

import pytest

from hypercurrent import complex_core, ratlin
from hypercurrent.complex_core import (
    CwComplex,
    betti,
    collapsed_sphere_complex,
    contraction,
    dumps_complex,
    eth,
    _homology_data,
    gap_complex,
    loads_complex,
    sphere_complex,
    sphere_wedge_complex,
    torsion_complex,
    verify_gap,
    GradedOperator,
)
from hypercurrent.errors import (
    BoundarySquareNonzero,
    Disconnected,
    GapViolated,
    NotPositivelyAcyclic,
    ParseError,
)
from hypercurrent.forests import enumerate_dtrees
from hypercurrent.ratlin import QMat


def homology_data(x: CwComplex, j):
    """Cycle, boundary and homology bases of one degree of a complex."""
    return _homology_data(x.n_cells(j), x.d(j + 1), x.d(j) if j >= 1 else None)


def rose_complex(n):
    """Wedge of n circles: one vertex, n loops."""
    cells = [("v",), tuple(f"a{i}" for i in range(n))]
    return CwComplex("rose", tuple(cells), (QMat.zeros(1, n),))


def path_complex():
    """Path graph on 3 vertices (n_0, n_1) = (3, 2)."""
    text = json.dumps(
        {
            "name": "path3",
            "cells": [["x", "y", "z"], ["xy", "yz"]],
            "boundary": [[[-1, 0], [1, -1], [0, 1]]],
        }
    )
    return loads_complex(text)


# --- loading / validation -------------------------------------------------


def test_round_trip_identity():
    # string, int and float cell names and numeric complex names read back
    # with their JSON types
    boundary = [[[1, -1], [-1, 1]], [[1, 1], [1, 1]]]     # the 2-sphere's
    ints = loads_complex(json.dumps({"name": 7, "cells": [[1, 2], [-3, 4], [0, 5]],
                                     "boundary": boundary}))
    floats = loads_complex(json.dumps({"name": 2.5, "cells": [[0.5, 1.5], [-2.5, 3.25], [0.0, 5.5]],
                                       "boundary": boundary}))
    for x in (sphere_complex(1), sphere_complex(2), ints, floats):
        y = loads_complex(dumps_complex(x))
        assert y == x and y.name == x.name and y.cells == x.cells
        assert [type(c) for level in y.cells for c in level] == \
            [type(c) for level in x.cells for c in level]


def test_boundary_square_nonzero():
    doc = {
        "name": "bad",
        "cells": [["v", "w"], ["a"], ["f"]],
        "boundary": [[[1], [-1]], [[1]]],
    }
    with pytest.raises(BoundarySquareNonzero):
        loads_complex(json.dumps(doc))


def test_disconnected_rejected():
    doc = {"name": "two_points", "cells": [["v", "w"]], "boundary": []}
    with pytest.raises(Disconnected):
        loads_complex(json.dumps(doc))


def test_parse_errors():
    with pytest.raises(ParseError):
        loads_complex("not json")
    doc = {"name": "x", "cells": [["v"]], "boundary": [], "extra": 1}
    loads_complex(json.dumps(doc))  # extra fields tolerated
    bad = {"name": "x", "cells": [["v", "w"], ["a"]], "boundary": [[[0.5], [0.5]]]}
    with pytest.raises(ParseError):
        loads_complex(json.dumps(bad))


def test_names_that_are_arrays_or_objects_are_rejected():
    # a gap is shared by the complex's content, names included, so names must
    # be hashable; numbers are kept as they were
    good = {"name": "edge", "cells": [[1, 2], [3]], "boundary": [[[-1], [1]]]}
    assert loads_complex(json.dumps(good)).cells == ((1, 2), (3,))
    for bad in (dict(good, cells=[[["a"], "b"], ["ab"]]), dict(good, cells=[["a", "b"], [{}]]),
                dict(good, name=["edge"])):
        with pytest.raises(ParseError, match="names must be JSON strings or numbers"):
            loads_complex(json.dumps(bad))


def test_torsion_fixture_betti():
    # rank oracle: n = (1,1,2), rank D_1 = 0, rank D_2 = 1
    tor = torsion_complex()
    assert [betti(tor, j) for j in range(3)] == [1, 0, 1]
    assert verify_gap(tor, 0, 2) == (True, None)


# --- spheres --------------------------------------------------------------


def brute_betti(x, j):
    return x.n_cells(j) - ratlin.rank(x.d(j)) - ratlin.rank(x.d(j + 1))


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_sphere_homology(q):
    x = sphere_complex(q)
    for j in range(q + 1):
        expected = 1 if j in (0, q) else 0
        assert betti(x, j) == expected == brute_betti(x, j)
    # Euler characteristic of alternating two-cell dimensions
    assert sum((-1) ** j * 2 for j in range(q + 1)) == 1 + (-1) ** q


def test_sphere_top_generator():
    x = sphere_complex(1)
    h = homology_data(x, 1)
    assert x.d(1) @ QMat.from_rows([[1], [1]], (2, 1)) == QMat.zeros(2, 1)
    assert h.betti == 1
    gen = h.hbasis
    # generator of H_1 is e1+ + e1- up to scale
    assert gen[0, 0] == gen[1, 0] != 0

    x2 = sphere_complex(2)
    h2 = homology_data(x2, 2)
    gen2 = h2.hbasis
    assert gen2[0, 0] == -gen2[1, 0] != 0


@pytest.mark.parametrize("coords", [[1, 2], [], [0, 0, 1]])
def test_representative_rejects_wrong_length(coords):
    h = homology_data(sphere_complex(2), 0)
    assert h.betti == 1
    with pytest.raises(ValueError, match=f"class has {len(coords)} coordinates, "
                                         "homology has dimension 1"):
        h.representative(QMat.from_rows([[c] for c in coords], (len(coords), 1)))
    assert h.representative(QMat.from_rows([[3]], (1, 1))) == 3 * h.hbasis


@pytest.mark.parametrize("q", [1, 2, 3])
def test_wedge_homology(q):
    y = sphere_wedge_complex(q)
    assert betti(y, 0) == 1
    assert betti(y, q) == 1
    for j in range(1, q):
        assert betti(y, j) == 0
    assert verify_gap(y, 0, q) == (True, None)
    # top homology generated by the constant-attached cell
    h = homology_data(y, q)
    gen = h.hbasis
    assert gen[0, 0] == 0 and gen[1, 0] != 0


def test_wedge_q1_cell_counts_match_sphere():
    assert [len(c) for c in sphere_wedge_complex(1).cells] == [
        len(c) for c in sphere_complex(1).cells
    ]


def test_rank_nullity_and_euler():
    rng = random.Random(2)
    for x in [sphere_complex(2), sphere_wedge_complex(3), torsion_complex(), path_complex()]:
        chi_cells = sum((-1) ** j * x.n_cells(j) for j in range(x.dim + 1))
        chi_betti = sum((-1) ** j * betti(x, j) for j in range(x.dim + 1))
        assert chi_cells == chi_betti


# --- gaps -----------------------------------------------------------------


def test_verify_gap_examples():
    assert verify_gap(sphere_complex(3), 0, 3) == (True, None)
    assert verify_gap(rose_complex(2), 0, 1) == (True, None)
    # q = p+1 is automatic for any complex
    for x in [sphere_complex(2), torsion_complex(), path_complex()]:
        for p in range(x.dim):
            assert verify_gap(x, p, p + 1)[0]
    # a genuine violation: wedge of circles inside [0, 2] fails at j=1
    cells = [("v",), ("a", "b"), ("f",)]
    x = CwComplex("tube", tuple(cells), (QMat.zeros(1, 2), QMat.from_rows([[1], [-1]], (2, 1))))
    ok, witness = verify_gap(x, 0, 2)
    assert not ok and witness == 1


def test_verify_gap_reads_no_degree_past_the_dimension(monkeypatch):
    # beta_j is 0 above dim, so a q far past it reads no more Betti numbers
    # than q = dim + 1 does, and the gap is refused at once
    x = path_complex()
    calls = []
    real = complex_core.betti

    def counted(x, j):
        calls.append(j)
        if len(calls) > x.dim + 1:
            raise AssertionError(f"beta_{j} read past dim {x.dim}")
        return real(x, j)

    monkeypatch.setattr(complex_core, "betti", counted)
    assert verify_gap(x, 0, 2 ** 70) == (True, None)
    del calls[:]
    with pytest.raises(GapViolated, match="exceeds dim"):
        gap_complex(x, 0, 2 ** 70)


def test_gap_complex_sphere2():
    gap = gap_complex(sphere_complex(2), 0, 2)
    assert [gap.dim_at(j) for j in range(3)] == [2, 2, 2]
    assert gap.homology[0].betti == 1
    assert gap.homology[1].betti == 0
    assert gap.homology[2].betti == 1


def test_gap_complex_shifted():
    gap = gap_complex(collapsed_sphere_complex(3), 1, 3)
    assert gap.dim_at(0) == 2  # degree 0 holds the 1-cells
    assert gap.homology[0].betti == 1
    assert gap.homology[2].betti == 1


def test_gap_complex_torsion():
    gap = gap_complex(torsion_complex(), 0, 2)
    # rank oracle: H_0 = Q, H_1 = 0, H_2 = Q (kernel of [[2,3]])
    assert gap.homology[0].betti == 1
    assert gap.homology[1].betti == 0
    assert gap.homology[2].betti == 1


def test_gap_complex_eliminates_class_maps_only_where_read(monkeypatch):
    # degrees strictly inside the gap have zero homology and nothing in the
    # gap reads their class maps: degree 0, the top and the parent's
    # degrees p and q take one elimination each
    calls = []
    original = ratlin.pivot_left_inverse
    monkeypatch.setattr(ratlin, "pivot_left_inverse", lambda a: calls.append(a) or original(a))
    gap = gap_complex(sphere_complex(3), 0, 3)
    assert len(calls) == 4
    # betti from the basis sizes agrees with the eliminated bases
    assert [h.betti for h in gap.homology] == [h.hbasis.shape[1] for h in gap.homology]
    assert [h.betti for h in gap.homology] == [1, 0, 0, 1]
    assert len(calls) == 6


def test_gap_complex_rejects_violation():
    cells = [("v",), ("a", "b"), ("f",)]
    x = CwComplex("tube", tuple(cells), (QMat.zeros(1, 2), QMat.from_rows([[1], [-1]], (2, 1))))
    with pytest.raises(GapViolated):
        gap_complex(x, 0, 2)


def test_a_failed_gap_build_is_not_kept(monkeypatch):
    # a build that raises is not shared: every call checks the gap again
    # and raises the same error, and nothing is kept
    checked = []
    original = complex_core.verify_gap
    monkeypatch.setattr(complex_core, "verify_gap",
                        lambda x, p, q: checked.append((x.name, p, q)) or original(x, p, q))
    tube = CwComplex("tube", (("v",), ("a", "b"), ("f",)),
                     (QMat.zeros(1, 2), QMat.from_rows([[1], [-1]], (2, 1))))
    cases = [(tube, 0, 2, GapViolated, "beta_1(tube) != 0 inside [0,2]"),
             (sphere_complex(2), 2, 3, GapViolated, "q=3 exceeds dim sphere2 = 2"),
             (sphere_complex(2), 2, 1, ValueError, "need 0 <= p <= q")]
    for x, p, q, error, text in cases:
        for _ in range(2):
            with pytest.raises(error) as info:
                gap_complex(x, p, q)
            assert str(info.value) == text
        assert checked[-2:] == [(x.name, p, q)] * 2
    assert not complex_core._GAPS
    # the complex's good gaps still build, and are then shared
    assert gap_complex(tube, 0, 1) is gap_complex(tube, 0, 1)
    assert len(complex_core._GAPS) == 1


def test_hq_project_sphere_generator():
    for q in (1, 2, 3):
        gap = gap_complex(sphere_complex(q), 0, q)
        cyc = QMat.from_rows([[1], [-((-1) ** q)]], (2, 1))  # e^q_+ - (-1)^q e^q_-
        cls = gap.parent_hq.class_of(cyc)
        assert cls.shape == (1, 1) and cls[0, 0] != 0


def test_hp_embed_injective():
    gap = gap_complex(sphere_complex(2), 0, 2)
    assert ratlin.rank(gap.hp_embed) == 1


# --- torsion orders -------------------------------------------------------


def test_tor_tree_torsion_matrix():
    # boundary of the degree-2 disc: H_1(T;Z) = Z/2
    from hypercurrent.ratlin import torsion_order

    assert torsion_order(QMat.from_rows([[2]], (1, 1))) == 2
    assert torsion_order(QMat.from_rows([[1, 0], [0, 3]], (2, 2))) == 3


# --- contraction and eth --------------------------------------------------


def tree_gap_fixture():
    """Shifted complex of a contractible complex: the one-tree subcomplex
    of the 1-sphere (both vertices plus one edge)."""
    dims = [2, 1]
    boundaries = [None, QMat.from_rows([[1], [-1]], (2, 1))]
    return dims, boundaries


def test_contraction_identity():
    dims, boundaries = tree_gap_fixture()
    c = contraction(dims, boundaries)
    d1 = boundaries[1]
    # degree 0: d h + h d = id - pi0
    assert d1 @ c.h[0] == QMat.identity(2) - c.pi0
    # degree 1: h d + d h = id (no degree-2 part)
    assert c.h[0] @ d1 == QMat.identity(1)


def test_contraction_degree_zero_only():
    c = contraction([3], [None])
    assert c.h[0] == QMat.zeros(0, 3)
    assert c.pi0 == QMat.identity(3)


def test_contraction_rejects_positive_homology():
    # one degree-1 cycle that never bounds
    dims = [1, 1]
    boundaries = [None, QMat.zeros(1, 1)]
    with pytest.raises(NotPositivelyAcyclic):
        contraction(dims, boundaries)


def test_eth_of_chain_map_is_zero():
    gap = gap_complex(sphere_complex(2), 0, 2)
    ident = GradedOperator(degree=0, blocks={j: QMat.identity(2) for j in range(3)})
    out = eth(ident, gap)
    assert all(out.blocks[j].is_zero() for j in out.blocks)


def test_eth_squared_zero():
    rng = random.Random(4)
    gap = gap_complex(sphere_complex(3), 0, 3)
    blocks = {
        j: QMat.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)], (2, 2))
        for j in range(2)
    }
    g = GradedOperator(degree=2, blocks=blocks)
    assert any(not b.is_zero() for b in eth(g, gap).blocks.values())
    out = eth(eth(g, gap), gap)
    assert all(b.is_zero() for b in out.blocks.values())


def test_eth_of_contraction_on_tree_complex():
    # on the contractible tree complex, eth(h) = id - pi0 in degree 0
    dims, boundaries = tree_gap_fixture()
    c = contraction(dims, boundaries)
    d1 = boundaries[1]
    val = d1 @ c.h[0] + QMat.zeros(2, 2)
    assert val == QMat.identity(2) - c.pi0


def test_hq_project_composed_path():
    # the class of the canonical top cycle, pushed through hq_project,
    # hits a generator of the parent's degree-q homology
    for q in (1, 2, 3):
        gap = gap_complex(sphere_complex(q), 0, q)
        cyc = QMat.from_rows([[1], [-((-1) ** q)]], (2, 1))
        top_cls = gap.homology[gap.top].class_of(cyc)
        out = gap.hq_project @ top_cls
        assert out.shape == (1, 1) and out[0, 0] != 0


# --- class maps -------------------------------------------------------------


def triangle_complex():
    return loads_complex(json.dumps({
        "name": "triangle",
        "cells": [["a", "b", "c"], ["ab", "bc", "ca"]],
        "boundary": [[[-1, 0, 1], [1, -1, 0], [0, 1, -1]]],
    }))


def loops_complex():
    """One vertex, loops a, b, c and 2-cells f0, f1, f2 with
    d f0 = d f1 = a - b and d f2 = 0: rank-2 homology in degrees 1 and 2."""
    return loads_complex(json.dumps({
        "name": "loops",
        "cells": [["v"], ["a", "b", "c"], ["f0", "f1", "f2"]],
        "boundary": [[[0, 0, 0]], [[1, 1, 0], [-1, -1, 0], [0, 0, 0]]],
    }))


CLASS_MAP_GAPS = [
    pytest.param(lambda: sphere_complex(1), 0, 1, id="sphere1"),
    pytest.param(lambda: sphere_complex(2), 0, 2, id="sphere2"),
    pytest.param(lambda: sphere_complex(3), 0, 3, id="sphere3"),
    pytest.param(lambda: sphere_wedge_complex(2), 0, 2, id="wedge2"),
    pytest.param(lambda: collapsed_sphere_complex(3), 1, 3, id="collapsed3"),
    pytest.param(torsion_complex, 0, 2, id="torsion"),
    pytest.param(triangle_complex, 0, 1, id="triangle"),
    pytest.param(loops_complex, 1, 2, id="loops"),
]


def _all_homology(gap):
    return list(gap.homology) + [gap.parent_hp, gap.parent_hq]


def test_loops_complex_homology():
    x = loops_complex()
    assert [betti(x, j) for j in range(3)] == [1, 2, 2]
    gap = gap_complex(x, 1, 2)
    assert gap.parent_hp.betti == gap.parent_hq.betti == 2


@pytest.mark.parametrize("make, p, q", CLASS_MAP_GAPS)
def test_class_map_is_left_inverse(make, p, q):
    for h in _all_homology(gap_complex(make(), p, q)):
        basis = ratlin.hstack(h.bounds, h.hbasis)
        assert h.class_map @ basis == QMat.identity(basis.shape[1])


@pytest.mark.parametrize("make, p, q", CLASS_MAP_GAPS)
def test_class_of_matrix_equals_columns(make, p, q):
    for h in _all_homology(gap_complex(make(), p, q)):
        for chains in (h.cycles, h.hbasis, h.cycles @ QMat.from_rows(
                [[Fraction(i - 2 * k, 3) for k in range(2)] for i in range(h.cycles.shape[1])],
                (h.cycles.shape[1], 2))):
            k = chains.shape[1]
            cols = [h.class_of(chains[:, c:c + 1]).T.to_rows()[0] for c in range(k)]
            assert h.class_of(chains) == QMat.from_rows(cols, (k, h.betti)).T


@pytest.mark.parametrize("make, p, q", CLASS_MAP_GAPS)
def test_class_of_rejects_non_cycles(make, p, q):
    checked = 0
    for h in _all_homology(gap_complex(make(), p, q)):
        z = ratlin.rank(h.cycles)
        for k in range(h.dim):
            unit = QMat.identity(h.dim)[:, [k]]
            if ratlin.rank(ratlin.hstack(h.cycles, unit)) == z:
                continue
            with pytest.raises(ValueError):
                h.class_of(unit)
            checked += 1
    assert checked


# --- the harmonic projector ------------------------------------------------------


def _assert_harmonic_projector(dims, boundaries):
    pi0 = contraction(dims, boundaries).pi0
    assert pi0 @ pi0 == pi0
    assert pi0 == pi0.T
    assert (pi0 @ boundaries[1]).is_zero()


@pytest.mark.parametrize("make, p, q", CLASS_MAP_GAPS)
def test_contraction_pi0_is_the_harmonic_projector(make, p, q):
    # the subcomplex of each tree: every cell below its level and its own
    # cells at it, acyclic in positive degrees by the gap condition
    gap = gap_complex(make(), p, q)
    checked = 0
    for level in range(p + 1, q + 1):
        for tree in enumerate_dtrees(gap, level):
            top = level - p
            idx = [gap.parent.cell_index(level, nm) for nm in tree.cells]
            dims = [gap.dim_at(j) for j in range(top)] + [len(idx)]
            boundaries = [None] + [gap.d(j) for j in range(1, top)] + [gap.d(top)[:, idx]]
            _assert_harmonic_projector(dims, boundaries)
            checked += 1
    assert checked


def test_contraction_pi0_is_the_harmonic_projector_on_random_complexes():
    rng = random.Random(5)

    def injective(m, n):
        while True:
            a = QMat.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)], (m, n))
            if ratlin.rank(a) == n:
                return a

    for _ in range(10):
        n = rng.randint(1, 4)
        _assert_harmonic_projector([4, n], [None, injective(4, n)])
        # three terms, exact in degree 1: d1 kills exactly the image of d2
        k, l = rng.randint(2, 5), rng.randint(1, 2)
        d2 = injective(k, l)
        d1 = injective(rng.randint(k - l, 5), k - l) @ ratlin.nullspace(d2.T).T
        _assert_harmonic_projector([d1.shape[0], k, l], [None, d1, d2])
