"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from hypercurrent.complex_core import (
    gap_complex,
    loads_complex,
    sphere_complex,
    sphere_wedge_complex,
    torsion_complex,
)
from hypercurrent.forests import enumerate_dtrees, greedy_dtree, is_dtree, matroid_is_dtree
from hypercurrent.protocol import cube_protocol, cube_sphere_protocol, square_protocol
from hypercurrent.topo_hyper import cochain_chain_map_defect
from hypercurrent.ana_hyper import (
    axioms_check,
    interior_samples,
    jan_cochain,
    kirchhoff_pseudoinverse,
    quantization_sweep,
)
from hypercurrent.weight_space import classify_top_cells, good_summand_count
from hypercurrent.graph_dynamics import evolve
from hypercurrent.protocol import simplicial_protocol
from normal_equations import weighted_pseudoinverse_boundary, weighted_pseudoinverse_inclusion
from protocol_ops import levels_of, pair_one
from stationary import boltzmann, current_form


@contextmanager
def criterion(number, description, limit):
    start = time.time()
    try:
        yield
    except Exception:
        elapsed = time.time() - start
        print(f"FAIL  criterion {number}: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed < limit else "FAIL"
    print(f"{status}  criterion {number}: {description} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


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


def test_criterion_1_square_protocol_exact_value():
    with criterion(1, "degree-1 sphere: square protocol pairs to +-(e1+ + e1-)", 1.0):
        proto = square_protocol()
        coords, chain = pair_one(proto, proto.fundamental_cycle)
        assert chain in (
            [Fraction(1), Fraction(1)],
            [Fraction(-1), Fraction(-1)],
        )
        assert coords in ([Fraction(1)], [Fraction(-1)])


def test_criterion_2_sphere_pairings_exact():
    with criterion(2, "degree-2 and degree-3 spheres pair onto a generator", 5.0):
        proto2 = cube_sphere_protocol(2)
        coords2, chain2 = pair_one(proto2, proto2.fundamental_cycle)
        assert chain2 in (
            [Fraction(-1), Fraction(1)],   # e2- - e2+
            [Fraction(1), Fraction(-1)],
        )
        assert abs(coords2[0]) == 1
        proto3 = cube_sphere_protocol(3)
        coords3, _ = pair_one(proto3, proto3.fundamental_cycle)
        assert len(coords3) == 1 and abs(coords3[0]) == 1


def test_criterion_3_wedge_trivial():
    with criterion(3, "wedge fixtures q=1,2,3 pair to exactly zero", 5.0):
        for q in (1, 2, 3):
            gap = gap_complex(sphere_wedge_complex(q), 0, q)
            proto = cube_protocol(gap)
            coords, chain = pair_one(proto, proto.fundamental_cycle)
            assert all(c == 0 for c in coords)
            assert all(c == 0 for c in chain)


def test_criterion_4_kirchhoff_equality():
    with criterion(4, "tree-sum pseudoinverse == weighted least squares (1e-10)", 10.0):
        rng = np.random.default_rng(2024)
        for gap in (gap_complex(sphere_complex(2), 0, 2), gap_complex(torsion_complex(), 0, 2)):
            for _ in range(100):
                for j in range(gap.top + 1):
                    w = rng.normal(size=gap.dim_at(j))
                    for beta in (0.5, 1.0, 5.0, 20.0):
                        tree_sum = kirchhoff_pseudoinverse(gap, w, beta, j)
                        if j == 0:
                            idag, _ = weighted_pseudoinverse_inclusion(gap, w, beta)
                            direct = -idag
                        else:
                            direct = weighted_pseudoinverse_boundary(gap, w, beta, j)
                        if direct.size == 0:
                            continue
                        rel = np.abs(tree_sum - direct) / np.maximum(np.abs(direct), 1.0)
                        assert float(rel.max()) <= 1e-10


def test_criterion_5_axioms():
    with criterion(5, "A1/A2/A3 residuals <= 1e-5, zeta independence <= 1e-10", 30.0):
        proto = cube_sphere_protocol(2)
        rng = np.random.default_rng(7)
        samples = interior_samples(proto, 50, rng, margin=1e-3)
        report = axioms_check(proto, 5.0, samples, fd_step=1e-5, tol=1e-5)
        assert report.samples == 50
        assert report.continuity <= 1e-5
        assert report.orthogonality <= 1e-5
        assert report.initial_value <= 1e-5
        assert report.zeta_independence <= 1e-10
        assert not report.violations


def test_criterion_6_quantization():
    with criterion(6, "beta=30 within 1e-3 of the exact class; decay slope -1 (10%)", 120.0):
        proto = cube_sphere_protocol(2)
        sweep = quantization_sweep(
            proto, [5.0, 10.0, 15.0, 20.0, 30.0], proto.fundamental_cycle, [1],
            fit_range=(5.0, 20.0),
        )
        by_beta = {row.beta: row for row in sweep.rows}
        assert by_beta[30.0].distance <= 1e-3
        # the per-facet tree gap is 1, so the expected decay rate is -1
        assert abs(sweep.slope - (-1.0)) <= 0.1


def test_criterion_7_chain_map_residuals():
    with criterion(7, "analytical cochain boundary identity <= 1e-6 on all fixtures", 60.0):
        fixtures = [
            (square_protocol(), 8.0),
            (cube_sphere_protocol(2), 10.0),
            (cube_protocol(gap_complex(sphere_wedge_complex(1), 0, 1)), 8.0),
            (cube_protocol(gap_complex(sphere_wedge_complex(2), 0, 2)), 10.0),
        ]
        for proto, beta in fixtures:
            coch = jan_cochain(proto, beta)
            assert cochain_chain_map_defect(coch) <= 1e-6


def test_criterion_8_weight_space():
    with criterion(8, "wedge counts and essential/inessential classification", 30.0):
        for q in (1, 2):
            assert good_summand_count(sphere_complex(q), 0, q) == (1, False)
            for x, counts in ((sphere_complex(q), (1, 0, 1)), (sphere_wedge_complex(q), (1, 1, 0))):
                r = classify_top_cells(x, 0, q)
                assert (r.summands, r.inessential, r.robust_summands) == counts
        assert good_summand_count(path_complex(), 0, 1) == (5, False)


def test_criterion_9_bruteforce_oracles():
    with criterion(9, "tree enumeration matches the definitional test; greedy == argmin", 30.0):
        rng = np.random.default_rng(99)
        fixtures = [
            gap_complex(sphere_complex(1), 0, 1),
            gap_complex(sphere_complex(2), 0, 2),
            gap_complex(sphere_wedge_complex(2), 0, 2),
            gap_complex(torsion_complex(), 0, 2),
            gap_complex(path_complex(), 0, 1),
        ]
        for gap in fixtures:
            for d in range(gap.p, gap.q + 1):
                names = gap.parent.cells[d]
                assert len(names) <= 6
                enumerated = {t.cells for t in enumerate_dtrees(gap, d)}
                for r in range(len(names) + 1):
                    for subset in itertools.combinations(names, r):
                        expected = is_dtree(gap, d, subset)
                        assert matroid_is_dtree(gap, d, subset) == expected
                        assert (tuple(subset) in enumerated) == expected
                trees = enumerate_dtrees(gap, d)
                for _ in range(5):
                    vals = rng.permutation(len(names) * 10)[: len(names)]
                    weights = {nm: float(v) for nm, v in zip(names, vals)}
                    best = min(trees, key=lambda t: sum(weights[nm] for nm in t.cells))
                    assert greedy_dtree(gap, d, weights).cells == best.cells


def test_criterion_10_dynamics():
    with criterion(10, "mass conservation, Boltzmann state, current cross-check", 10.0):
        seg = loads_complex(
            json.dumps(
                {
                    "name": "segment",
                    "cells": [["0", "1"], ["a"]],
                    "boundary": [[[-1], [1]]],
                }
            )
        )
        gap = gap_complex(seg, 0, 1)
        wp = ((0.0, math.log(2)), (0.1,))
        proto = simplicial_protocol(
            gap=gap,
            vertex_ids=("t0", "t1"),
            level_weights=levels_of((wp, wp)),
            simplices=((0,), (1,), (0, 1)),
        )
        _, traj = evolve(proto, [1.0, 0.0], 0.0, 10.0, 10_000)
        assert float(np.max(np.abs(traj.sum(axis=1) - 1.0))) <= 1e-9
        assert traj.min() >= -1e-9

        rho = boltzmann(seg, [0.0, math.log(2)], [0.0])
        assert float(np.max(np.abs(rho - np.array([2 / 3, 1 / 3])))) <= 1e-12

        from hypercurrent.ana_hyper import jan_form

        square = square_protocol()
        for edge in square.simplices_of_dim(1):
            point = (edge, [0.3])
            graph_current = current_form(square, point, np.array([1.0]), beta=1.0)
            ev = jan_form(square, 1.0, edge, [0.3], [np.array([1.0])], 1)
            delta = np.array([1.0, 0.0])
            assert float(np.max(np.abs(graph_current - ev @ delta))) <= 1e-8
