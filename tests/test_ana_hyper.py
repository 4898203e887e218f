import dataclasses
import gc
import itertools
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurrent import ana_hyper, forests, ratlin
from hypercurrent.complex_core import gap_complex, loads_complex, sphere_complex, \
    sphere_wedge_complex, torsion_complex
from hypercurrent.errors import BadFrame, NonfiniteBeta, NonpositiveBeta, \
    QuadratureNoConvergence
from hypercurrent.ana_hyper import (
    AxiomReport,
    _context,
    _drho,
    _node_batches,
    _rho_at_nodes,
    _tree_weights,
    _vertex_geometry,
    axioms_check,
    edgewise_pieces,
    interior_samples,
    jan_cochain,
    jan_form,
    jan_integrate,
    kirchhoff_pseudoinverse,
    quantization_sweep,
    simplex_rule,
)
from hypercurrent.protocol import (
    CellIndex,
    builtin_protocol,
    cube_boundary_protocol,
    cube_corners,
    cube_protocol,
    cube_sphere_protocol,
    simplicial_protocol,
    square_protocol,
)
from hypercurrent.forests import enumerate_dtrees
from hypercurrent.topo_hyper import HyperCochain, cochain_chain_map_defect, \
    hypercurrent_homology, tree_functor
from hypercurrent.weight_space import enumerate_top_discriminant_cells, transversal_sphere
from exact_cochain import chain_map_defect_oracle, hypercurrent_cochain
from normal_equations import reduced_boundary, weighted_pseudoinverse_boundary, \
    weighted_pseudoinverse_inclusion
from protocol_ops import least_levels, levels_of, no_keys, vertices_of
from stationary import current_form

SPHERE1 = gap_complex(sphere_complex(1), 0, 1)
SPHERE2 = gap_complex(sphere_complex(2), 0, 2)
TOR = gap_complex(torsion_complex(), 0, 2)


def simplex_vertex_weights(proto, key, level):
    """Per-vertex weight vectors of one level over a simplex, as rows, read
    vertex by vertex: the oracle for the library's gather."""
    return np.array([proto.level_weights[level - proto.gap.p][v] for (v,) in vertices_of(proto, key)],
                    dtype=float)


def constant_protocol(gap, wp):
    return simplicial_protocol(
        gap=gap,
        vertex_ids=("A", "B"),
        level_weights=levels_of((wp, wp)),
        simplices=((0,), (1,), (0, 1)),
    )


# --- weighted pseudoinverses ---------------------------------------------------


def test_sphere1_boundary_closed_form():
    # constrained least squares by hand: minimize the weighted norm over
    # solutions of dx = e0+ - e0-
    for beta in (0.5, 2.0):
        for wp, wm in [(0.0, 0.0), (0.7, -0.3), (-1.0, 2.0)]:
            mat = kirchhoff_pseudoinverse(SPHERE1, [wp, wm], beta, 1)
            ep, em = math.exp(-beta * wp), math.exp(-beta * wm)
            expected = np.array([ep, -em]) / (ep + em)
            assert np.allclose(mat[:, 0], expected, atol=1e-14)


def test_tor_boundary_closed_form():
    beta, wu, ww = 1.3, 0.4, -0.6
    mat = kirchhoff_pseudoinverse(TOR, [wu, ww], beta, 2)
    eu, ew = math.exp(-beta * wu), math.exp(-beta * ww)
    expected = np.array([2 * eu, 3 * ew]) / (4 * eu + 9 * ew)
    assert np.allclose(mat[:, 0], expected, atol=1e-14)


def test_symmetric_weights_symmetric_output():
    mat = kirchhoff_pseudoinverse(SPHERE1, [0.3, 0.3], 1.0, 1)
    assert mat[0, 0] == pytest.approx(-mat[1, 0])


def test_alpha0_explicit_and_projection():
    assert np.allclose(ana_hyper._alpha0(SPHERE1, [0.0, 0.0], 1.0), 0.5 * np.ones((2, 2)))
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.normal(size=2)
        beta = float(rng.uniform(0.2, 8.0))
        a0 = ana_hyper._alpha0(SPHERE1, w, beta)
        assert np.allclose(a0 @ a0, a0, atol=1e-12)
        # induces the identity on degree-0 homology
        h0 = SPHERE1.homology[0]
        rep = h0.hbasis.to_float()[:, 0]
        out = a0 @ rep
        cls_in = h0.class_of(ratlin.QMat.from_rows(
            [[ratlin.Fraction(v).limit_denominator(10**12)] for v in rep], (len(rep), 1)))
        solve = ratlin.pinv(ratlin.hstack(h0.bounds, h0.hbasis)).to_float()
        coeffs = solve @ out
        assert coeffs[-1] == pytest.approx(float(cls_in[0, 0]), abs=1e-12)


def test_pseudoinverse_defining_identities():
    rng = np.random.default_rng(7)
    for gap in (SPHERE2, TOR):
        ctx = _context(gap)
        for j in range(1, gap.top + 1):
            w = rng.normal(size=gap.dim_at(j))
            beta = 3.0
            dag = kirchhoff_pseudoinverse(gap, w, beta, j)
            if ctx.nb[j - 1] == 0:
                continue
            db = reduced_boundary(gap, j)
            # d o dagger = identity on the bounds
            prod = db @ dag
            assert np.allclose(prod, np.eye(ctx.nb[j - 1]), atol=1e-12)
            # dagger o d is the weighted projection onto the complement
            # of the cycles: apply twice, stays the same
            pd = dag @ db
            assert np.allclose(pd @ pd, pd, atol=1e-11)
            # kills nothing outside cycles; annihilates cycles
            z = ctx.cycles[j]
            if z.shape[1]:
                assert np.allclose(pd @ z, 0.0, atol=1e-12)


# --- Kirchhoff equality -----------------------------------------------------------


@pytest.mark.parametrize("gap", [SPHERE2, TOR], ids=["sphere2", "TOR"])
def test_kirchhoff_equality(gap):
    rng = np.random.default_rng(11)
    for _ in range(25):
        for beta in (0.5, 1.0, 5.0, 20.0):
            for j in range(gap.top + 1):
                w = rng.normal(size=gap.dim_at(j))
                tree_sum = kirchhoff_pseudoinverse(gap, w, beta, j)
                if j == 0:
                    idag, _ = weighted_pseudoinverse_inclusion(gap, w, beta)
                    direct = -idag
                else:
                    direct = weighted_pseudoinverse_boundary(gap, w, beta, j)
                if direct.size == 0:
                    continue
                denom = np.maximum(np.abs(direct), 1.0)
                assert float(np.max(np.abs(tree_sum - direct) / denom)) <= 1e-10


def test_kirchhoff_torsion_factors_matter():
    # dropping the tau^2 factors on TOR changes the answer by up to 9/4
    ctx = _context(TOR)
    w = np.array([0.0, 0.0])
    beta = 1.0
    table = ctx.trees[2]
    plain = sum(table.rinv) / len(table.trees)
    direct = weighted_pseudoinverse_boundary(TOR, w, beta, 2)
    assert float(np.max(np.abs(plain - direct))) > 1e-2


def test_equal_weight_rho_uniform():
    gap = SPHERE2
    for level in (0, 1, 2):
        table = _context(gap).trees[level]
        rho = ana_hyper._tree_distribution(table, _tree_weights(table, np.zeros(2)), 4.0)
        assert np.allclose(rho, 0.5)


# --- rho and its differential ---------------------------------------------------


def test_rho_partition_of_unity_and_gradient_sum():
    proto = cube_sphere_protocol(2)
    ctx = _context(proto.gap)
    tri = proto.simplices_of_dim(2)[0]
    nodes = np.array([[0.2, 0.3], [0.1, 0.05], [0.4, 0.4]])
    for level in (0, 1, 2):
        geo, = _vertex_geometry(ctx, proto, [tri], [level])
        rho = _rho_at_nodes(ctx.trees[level], geo, 3.0, nodes)
        drho = _drho(rho, geo[1], 3.0)[0]
        rho = rho[:, 0]    # tree-major: (ntrees, nodes)
        assert rho.shape == (len(ctx.trees[level].trees), len(nodes))
        assert np.allclose(rho.sum(axis=0), 1.0)
        assert np.allclose(drho.sum(axis=1), 0.0, atol=1e-14)
        assert np.all(rho > 0) and np.all(rho < 1)


def rho_and_drho(proto, beta, tree, point):
    """Value and differential (in the simplex's affine coordinates) of
    one tree's Boltzmann weight at a point, through the library's
    tree-major kernel."""
    key, coords = tuple(point[0]), np.atleast_2d(np.asarray(point[1], dtype=float))
    ctx = _context(proto.gap)
    table = ctx.trees[tree.level]
    pos = next(i for i, t in enumerate(table.trees) if t.cells == tree.cells)
    geo, = _vertex_geometry(ctx, proto, [key], [tree.level])
    rho = _rho_at_nodes(table, geo, beta, coords)
    return float(rho[pos, 0, 0]), _drho(rho, geo[1], beta)[0, 0, pos, :].copy()


def test_rho_frozen_value_at_facet_barycenter():
    # lighter co-tree weight at a unit gap: 1/(1+e^-1) at beta=1
    proto = cube_sphere_protocol(2)
    from hypercurrent.protocol import smallness

    least = least_levels(proto, smallness(proto))
    tri = next(s for s in proto.simplices_of_dim(2) if least[s] == 0)
    corner = proto.vertex_ids[tri[0]]
    ctx = _context(proto.gap)
    lighter = ("e0-",) if corner[1] == "p" else ("e0+",)
    tree = next(t for t in ctx.trees[0].trees if t.cells == lighter)
    val, _ = rho_and_drho(proto, 1.0, tree, (tri, [1 / 3, 1 / 3]))
    assert val == pytest.approx(0.7310585786300049, abs=1e-12)


def test_rho_fd_oracle_and_eta_bound():
    proto = cube_sphere_protocol(2)
    ctx = _context(proto.gap)
    tri = proto.simplices_of_dim(2)[0]
    beta = 2.5
    tree = ctx.trees[0].trees[0]
    pt = np.array([0.21, 0.37])
    val, grad = rho_and_drho(proto, beta, tree, (tri, pt))
    h = 1e-6
    for axis in range(2):
        up = pt.copy()
        dn = pt.copy()
        up[axis] += h
        dn[axis] -= h
        vu, _ = rho_and_drho(proto, beta, tree, (tri, up))
        vd, _ = rho_and_drho(proto, beta, tree, (tri, dn))
        assert grad[axis] == pytest.approx((vu - vd) / (2 * h), abs=1e-6)
    # eta factors stay within [-1, 1]
    rho = _rho_at_nodes(ctx.trees[0], _vertex_geometry(ctx, proto, [tri], [0])[0], beta,
                        pt[None, :])
    r = rho[:, 0, 0]
    assert len(r) == len(ctx.trees[0].trees) > 1
    for a in range(len(r)):
        for b in range(len(r)):
            eta = r[a] * r[b] if a != b else -r[a] * (1 - r[a])
            assert abs(eta) <= 1.0


def test_constant_protocol_drho_zero():
    gap = SPHERE1
    wp = ((0.0, 1.0), (0.0, 1.0))
    proto = constant_protocol(gap, wp)
    ctx = _context(gap)
    tree = ctx.trees[0].trees[0]
    _, grad = rho_and_drho(proto, 3.0, tree, ((0, 1), [0.4]))
    assert np.allclose(grad, 0.0)


# --- form evaluation -----------------------------------------------------------


def test_jan_form_constant_protocol_zero():
    gap = SPHERE1
    wp = ((0.0, 1.0), (0.0, 1.0))
    proto = constant_protocol(gap, wp)
    ev = jan_form(proto, 2.0, (0, 1), [0.3], [np.array([1.0])], 1)
    assert np.allclose(ev, 0.0)


def test_jan_form_repeated_frame_vector_zero():
    proto = cube_sphere_protocol(2)
    tri = proto.simplices_of_dim(2)[0]
    v = np.array([0.6, 0.1])
    ev = jan_form(proto, 3.0, tri, [0.25, 0.25], [v, v], 2)
    assert np.allclose(ev, 0.0, atol=1e-14)


def test_jan_form_antisymmetry_and_multilinearity():
    proto = cube_sphere_protocol(2)
    tri = proto.simplices_of_dim(2)[0]
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    e1 = jan_form(proto, 3.0, tri, [0.25, 0.25], [a, b], 2)
    e2 = jan_form(proto, 3.0, tri, [0.25, 0.25], [b, a], 2)
    assert np.allclose(e1, -e2, atol=1e-14)
    e3 = jan_form(proto, 3.0, tri, [0.25, 0.25], [2.5 * a, b], 2)
    assert np.allclose(e3, 2.5 * e1, atol=1e-13)


def test_jan_form_bad_frame():
    proto = cube_sphere_protocol(2)
    tri = proto.simplices_of_dim(2)[0]
    with pytest.raises(BadFrame):
        jan_form(proto, 3.0, tri, [0.25, 0.25], [np.array([1.0, 0.0])], 2)
    with pytest.raises(BadFrame):
        jan_form(proto, 3.0, tri, [0.25, 0.25], [np.array([1.0])], 1)


def test_jan_form_level1_fd_oracle():
    # degree-1 value equals the weighted solve applied to a finite
    # difference of the degree-0 projection
    proto = square_protocol()
    gap = proto.gap
    edge = proto.simplices_of_dim(1)[0]
    beta = 2.0
    t = np.array([0.4])
    val = jan_form(proto, beta, edge, t, [np.array([1.0])], 1)
    h = 1e-6

    def alpha(tv):
        return jan_form(proto, beta, edge, [tv], [], 0)

    dalpha = (alpha(0.4 + h) - alpha(0.4 - h)) / (2 * h)
    ctx = _context(gap)
    bcoords = ctx.zeta_std[0] @ dalpha
    from hypercurrent.protocol import weights_at

    wp = weights_at(proto, edge, [0.6, 0.4])
    dag = weighted_pseudoinverse_boundary(gap, wp[1], beta, 1)
    oracle = dag @ bcoords
    denom = max(np.max(np.abs(oracle)), 1e-12)
    assert float(np.max(np.abs(val - oracle))) / denom <= 1e-6


@settings(max_examples=25, deadline=None)
@given(
    w=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    beta=st.floats(0.2, 15.0),
)
def test_partition_of_unity_hypothesis(w, beta):
    table = _context(SPHERE2).trees[2]
    rho = ana_hyper._tree_distribution(table, _tree_weights(table, np.array(w)), beta)
    assert rho.sum() == pytest.approx(1.0)
    assert np.all(rho > 0.0)


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)], ids=["scalar", "nodes", "items_nodes"])
def test_tree_axis_sum_matches_last_axis_sum(shape):
    # 1-300 trees cover the one-by-one (< 8), 8-lane (8-128) and halving
    # (> 128) branches; terms span 16 decades, so any other order of the
    # additions shows in the last bits
    rng = np.random.default_rng(41)
    running_differs = 0
    for ntrees in range(1, 301):
        tree_last = rng.normal(size=shape + (ntrees,)) * 10.0 ** rng.uniform(
            -8, 8, size=shape + (ntrees,))
        tree_major = np.ascontiguousarray(np.moveaxis(tree_last, -1, 0))
        assert np.array_equal(ana_hyper._tree_axis_sum(tree_major),
                              tree_last.sum(axis=-1)), ntrees
        running_differs += not np.array_equal(np.add.reduce(tree_major), tree_last.sum(axis=-1))
    # the data tell the orders apart: a plain running sum over the leading
    # axis fails where there is one (a 1-d reduce is itself numpy's sum)
    assert running_differs if shape else not running_differs


# --- the per-tree route, kept as the oracle -----------------------------------------
# The float context used to hold one dict per tree and to sum tree weights
# in Python loops.  That code is kept here verbatim; the tree tables, the
# gather-sum and the one softmax must reproduce it bit for bit.


class TreeDicts:
    # the tree dicts of the float context, built by its old loop
    def __init__(self, gap):
        self.nb = _context(gap).nb
        # trees per parent level, with float right inverses, also stacked
        self.trees = {}
        self.rinv = {}
        for d_level in range(gap.p, gap.q + 1):
            entries = []
            for t in enumerate_dtrees(gap, d_level):
                idx = [gap.parent.cell_index(d_level, nm) for nm in t.cells]
                entries.append({"tree": t, "idx": idx, "log_tau2": 2.0 * math.log(t.torsion),
                                "rinv": t.right_inverse.to_float()})
            self.trees[d_level] = entries
            self.rinv[d_level] = np.stack([e["rinv"] for e in entries])


def tree_dicts(gap):
    return gap.derived("test_tree_dicts", lambda: TreeDicts(gap))


def _tree_log_weights(ctx, level, wv, beta):
    return np.array(
        [e["log_tau2"] - beta * sum(wv[i] for i in e["idx"]) for e in ctx.trees[level]]
    )


def _tree_distribution(ctx, level, wv, beta):
    logs = _tree_log_weights(ctx, level, wv, beta)
    logs = logs - logs.max()
    expd = np.exp(logs)
    return expd / expd.sum()


def _rho_drho_at_nodes(ctx, proto, key, beta, level, nodes):
    """Tree distribution and its differential at each node.

    Returns (rho: (N, ntrees), drho: (N, ntrees, jdim)); the differential
    is exact: beta * sum_a eta(T, a) dW_a with the product form of eta.
    """
    vw = simplex_vertex_weights(proto, key, level)
    entries = ctx.trees[level]
    wt_vertex = np.array([[sum(row[i] for i in e["idx"]) for e in entries] for row in vw])
    base = wt_vertex[0]
    grads = wt_vertex[1:] - base[None, :]         # (jdim, ntrees)
    wt = base[None, :] + nodes @ grads            # (N, ntrees)
    log_tau2 = np.array([e["log_tau2"] for e in entries])
    logs = log_tau2[None, :] - beta * wt
    logs = logs - logs.max(axis=1, keepdims=True)
    expd = np.exp(logs)
    rho = expd / expd.sum(axis=1, keepdims=True)
    # d rho_T = beta * [ sum_a rho_T rho_a dW_a - rho_T dW_T ]
    dw = grads.T                                  # (ntrees, jdim)
    mean_dw = rho @ dw                            # (N, jdim)
    drho = beta * rho[:, :, None] * (mean_dw[:, None, :] - dw[None, :, :])
    return rho, drho


def dict_kirchhoff(gap, w, beta, j):
    ctx = tree_dicts(gap)
    level = j + gap.p
    wv = np.asarray(w, dtype=float)
    rho = _tree_distribution(ctx, level, wv, beta)
    return np.tensordot(rho, ctx.rinv[level], axes=1)


def dict_rho_and_drho(proto, beta, tree, point):
    key, coords = tuple(point[0]), np.atleast_2d(np.asarray(point[1], dtype=float))
    ctx = tree_dicts(proto.gap)
    level = tree.level
    entries = ctx.trees[level]
    pos = next(i for i, e in enumerate(entries) if e["tree"].cells == tree.cells)
    rho, drho = _rho_drho_at_nodes(ctx, proto, key, beta, level, coords)
    return float(rho[0, pos]), drho[0, pos, :].copy()


def dict_jan_form(proto, beta, key, coords, frame, ell, zeta):
    gap = proto.gap
    ctx = tree_dicts(gap)
    nodes = np.asarray(coords, dtype=float)[None, :]
    rho_top, _ = _rho_drho_at_nodes(ctx, proto, key, beta, gap.p + ell, nodes)
    along = np.array(frame).T                     # (jdim, ell)
    drhos = [_rho_drho_at_nodes(ctx, proto, key, beta, gap.p + j, nodes)[1] @ along
             for j in range(ell)]
    return single_orchard_sum(_context(gap), gap.p, zeta, rho_top, drhos, np.ones(1))


def dict_jan_integrate(proto, beta, key, tol, max_depth):
    gap = proto.gap
    ctx = tree_dicts(gap)
    jdim = proto.dim_of(key)
    prev = None
    for depth in range(max_depth + 1):
        nodes, wts = _node_batches(jdim, depth)
        rho_top, _ = _rho_drho_at_nodes(ctx, proto, key, beta, gap.p + jdim, nodes)
        drhos = [_rho_drho_at_nodes(ctx, proto, key, beta, gap.p + j, nodes)[1]
                 for j in range(jdim)]
        est = single_orchard_sum(_context(gap), gap.p, "standard", rho_top, drhos, wts)
        if prev is not None and np.max(np.abs(est - prev)) < tol:
            return est
        prev = est
    raise QuadratureNoConvergence(f"simplex {key}")


# --- the per-simplex route, kept as the oracle --------------------------------------
# jan_integrate used to run its own depth loop for each simplex, with one
# form evaluation per depth on that simplex's nodes alone.  That code is
# kept here verbatim (renamed, with the library helpers it shares
# qualified); the stacked evaluator must reproduce it bit for bit.  The
# tree-last tree distribution it calls is copied too, so the oracle does
# not move with the library's tree-major kernel.


def single_rho_at_nodes(ctx, proto, key, beta, level, nodes):
    """Tree distribution at each node, (N, ntrees), and the tree weights'
    gradients in the simplex's affine coordinates, (jdim, ntrees)."""
    table = ctx.trees[level]
    wt_vertex = ana_hyper._tree_weights(table, simplex_vertex_weights(proto, key, level))
    base = wt_vertex[0]
    grads = wt_vertex[1:] - base[None, :]
    return single_tree_distribution(table, base[None, :] + nodes @ grads, beta), grads


def single_tree_distribution(table, wt, beta):
    """Tree weights tau^2 e^(-beta W_T), normalized along the last axis
    after a shift by the largest log so large beta stays finite."""
    logs = table.log_tau2 - beta * wt
    logs = logs - logs.max(axis=-1, keepdims=True)
    expd = np.exp(logs)
    return expd / expd.sum(axis=-1, keepdims=True)


def single_drho(rho, grads, beta):
    """Exact differential of the tree distribution, (N, ntrees, jdim):
    d rho_T = beta * [ sum_a rho_T rho_a dW_a - rho_T dW_T ]."""
    dw = grads.T
    mean_dw = rho @ dw
    return beta * rho[:, :, None] * (mean_dw[:, None, :] - dw[None, :, :])


def single_form(ctx, proto, key, beta, nodes, wts, ell, zeta, along=None):
    """Weighted node sum of the degree-ell form on a simplex: rho at the
    top level, its differential along the frame columns `along` (the
    coordinate axes when None) below it, then the orchard sum."""
    p = proto.gap.p
    rho_top, _ = single_rho_at_nodes(ctx, proto, key, beta, p + ell, nodes)
    drhos = []
    for j in range(ell):
        drho = single_drho(*single_rho_at_nodes(ctx, proto, key, beta, p + j, nodes), beta)
        drhos.append(drho if along is None else drho @ along)
    return single_orchard_sum(ctx, p, zeta, rho_top, drhos, wts)


def single_orchard_sum(ctx, p, zeta, rho_top, drhos, wts):
    """Weighted node sum of the degree-ell orchard form, factored per level.

    rho_top: (N, ntrees) at level p + ell; drhos[j]: (N, ntrees, ell), the
    tree-weight differentials at level p + j along the ell frame vectors;
    wts: (N,).  The orchard summand rho_T det(drho . v) R_ell Z ... R_0 is
    multilinear in the tree chosen per level, so the sum over orchards is
    sum_sigma sgn(sigma) K Z D_{ell-1}(v_sigma(0)) ... Z D_1 D_0(v_sigma(ell-1))
    with K = sum_T rho_T R_T and D_j(v) = sum_T (drho_T . v) R_T per node.
    """
    ell = len(drhos)
    zetas = ctx.zeta_std if zeta == "standard" else ctx.zeta_alt
    # R_0 (minus the co-tree projection) at the bottom, Z_j R_T in between
    rinv = [ctx.trees[p + j].rinv for j in range(ell + 1)]
    factors = [rinv[0]] + [zetas[j] @ rinv[j] for j in range(1, ell)]
    kirch = np.tensordot(wts[:, None] * rho_top, rinv[ell], axes=1)
    derivs = [np.tensordot(dr, f, axes=([1], [0])) for dr, f in zip(drhos, factors)]
    value = np.zeros((kirch.shape[1], factors[0].shape[2]))
    for perm in itertools.permutations(range(ell)):
        chain = derivs[0][:, perm[-1]]
        for j in range(1, ell):
            chain = derivs[j][:, perm[ell - 1 - j]] @ chain
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        value += sign * np.tensordot(kirch, chain, axes=([0, 2], [0, 1]))
    return value


def single_tie_depth(proto, key, beta, tol):
    """One simplex's tie floor, pair by pair: the least depth d with
    beta 2^-d s <= (tol / 1e-8)^(1/6), s the largest range over the
    vertices of a tree-weight difference that changes sign there, over the
    form's levels; 0 where a level below the top has no such pair."""
    gap = proto.gap
    ctx = _context(gap)
    steep = []
    for level in range(gap.p, gap.p + proto.dim_of(key) + 1):
        table = ctx.trees[level]
        at = [[sum((w[c] for c in cells), 0.0) for cells in table.idx]
              for w in simplex_vertex_weights(proto, key, level)]
        diffs = [[wt[a] - wt[b] for wt in at] for a, b in itertools.combinations(range(len(table.idx)), 2)]
        steep.append(max((max(d) - min(d) for d in diffs if min(d) < 0 < max(d)), default=0))
    if not all(steep[:-1]):
        return 0
    depth = 0
    while beta * 2.0 ** -depth * max(steep) > (tol / 1e-8) ** (1 / 6):
        depth += 1
    return depth


def single_jan_integrate(proto, beta, key, tol=1e-8, max_depth=8):
    """Stokes-map value on one simplex: the integral of the pulled-back
    degree-(dim) form, refined dyadically until stable within tol at a
    depth no less than its tie floor; a floor deeper than max_depth
    raises before any form is evaluated."""
    if beta <= 0:
        raise NonpositiveBeta(f"beta = {beta}")
    gap = proto.gap
    ctx = _context(gap)
    key = tuple(key)
    jdim = proto.dim_of(key)
    if jdim > gap.top:
        raise ValueError("simplex dimension exceeds the gap width")
    if jdim == 0:
        vw = simplex_vertex_weights(proto, key, gap.p)
        return ana_hyper._alpha0(gap, vw[0], beta)
    floor = single_tie_depth(proto, key, beta, tol)
    if floor > max_depth:
        raise QuadratureNoConvergence(
            f"simplex {key} at beta {beta}: tie layer needs depth {floor}, budget allows {max_depth}")
    prev = None
    for depth in range(max_depth + 1):
        nodes, wts = _node_batches(jdim, depth)
        est = single_form(ctx, proto, key, beta, nodes, wts, jdim, "standard")
        if prev is not None and depth >= floor and np.max(np.abs(est - prev)) < tol:
            return est
        prev = est
    raise QuadratureNoConvergence(
        f"simplex {key}: no convergence within depth {max_depth} at tol {tol}"
    )


def loop_edgewise_pieces(n, depth):
    """The edgewise subdivision by its loop over every candidate chain."""
    r = 2 ** depth
    if n == 0:
        return [np.zeros((1, 0))]
    if r == 1:
        verts = [np.zeros(n)] + [np.eye(n)[i] for i in range(n)]
        return [np.array(verts)]
    pieces = []
    # the sorted cube picture: y_1 >= y_2 >= ... >= y_n, mapped to the
    # standard simplex by t_m = y_m - y_{m+1}
    for base in itertools.product(range(r), repeat=n):
        for perm in itertools.permutations(range(n)):
            chain = [np.array(base, dtype=float)]
            for a in perm:
                nxt = chain[-1].copy()
                nxt[a] += 1.0
                chain.append(nxt)
            bary = sum(chain) / len(chain)
            if all(bary[m] >= bary[m + 1] for m in range(n - 1)):
                ys = np.array(chain) / r
                ts = ys.copy()
                ts[:, :-1] -= ys[:, 1:]
                pieces.append(ts)
    return pieces


def two_pass_sweep_rows(proto, betas, tol, max_depth):
    """The two-pass residual route: the cycle's simplices integrated for
    the class, then the whole cochain integrated again for the residual."""
    gap = proto.gap
    ctx = _context(gap)
    [(topo_coords, _)] = hypercurrent_homology(proto, [proto.fundamental_cycle],
                                               ratlin.QMat.identity(1))
    topo = np.array([float(c) for (c,) in topo_coords.to_rows()])
    hp = gap.parent_hp
    rep = hp.hbasis.to_float() @ np.array([1.0])
    rows = []
    for beta in betas:
        chain = np.zeros(gap.dim_at(gap.top))
        for key, coeff in proto.fundamental_cycle.items():
            mat = single_jan_integrate(proto, beta, key, tol=tol, max_depth=max_depth)
            chain = chain + float(coeff) * (mat @ rep)
        cls = (ctx.top_class @ chain)[ctx.top_nb:]
        if ctx.hq_project is not None:
            cls = ctx.hq_project @ cls
        resid = chain_map_defect_oracle(jan_cochain(proto, beta, tol=tol, max_depth=max_depth))
        rows.append((beta, tuple(float(c) for c in cls), float(np.linalg.norm(cls - topo)), resid))
    return rows


def k4_protocol():
    """Seeded weights of mixed magnitude over a triangle of edges, for
    the complete graph K4: 16 spanning trees of three edges each, so the
    order in which a tree's weights are summed shows in the last bit."""
    x = loads_complex(json.dumps({
        "name": "k4",
        "cells": [["a", "b", "c", "d"], ["ab", "ac", "ad", "bc", "bd", "cd"]],
        "boundary": [[[-1, -1, -1, 0, 0, 0], [1, 0, 0, -1, -1, 0],
                      [0, 1, 0, 1, 0, -1], [0, 0, 1, 0, 1, 1]]],
    }))
    rng = np.random.default_rng(3)

    def level(n):
        return tuple(float(v) for v in rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1, size=n))

    return simplicial_protocol(
        gap=gap_complex(x, 0, 1),
        vertex_ids=("A", "B", "C"),
        level_weights=levels_of([(level(4), level(6))] * 3),
        simplices=((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)),
    )


EQUALITY_PROTOCOLS = {
    "k4": k4_protocol,
    "square": square_protocol,
    "sphere2": lambda: cube_sphere_protocol(2),
    "sphere3": lambda: cube_sphere_protocol(3),
    "wedge2": lambda: cube_protocol(gap_complex(sphere_wedge_complex(2), 0, 2)),
    "wedge3": lambda: cube_protocol(gap_complex(sphere_wedge_complex(3), 0, 3)),
}


@pytest.mark.parametrize("name", sorted(EQUALITY_PROTOCOLS))
def test_tree_table_matches_tree_dicts(name):
    gap = EQUALITY_PROTOCOLS[name]().gap
    ctx, old = _context(gap), tree_dicts(gap)
    for level, entries in old.trees.items():
        table = ctx.trees[level]
        assert table.trees == tuple(e["tree"] for e in entries)
        assert table.idx.tolist() == [e["idx"] for e in entries]
        assert table.log_tau2.tolist() == [e["log_tau2"] for e in entries]
        assert np.array_equal(table.rinv, old.rinv[level])


@pytest.mark.parametrize("name", sorted(EQUALITY_PROTOCOLS))
def test_kirchhoff_and_rho_equal_dict_route(name):
    proto = EQUALITY_PROTOCOLS[name]()
    gap = proto.gap
    rng = np.random.default_rng(31)
    for beta in (0.5, 3.0, 40.0):
        for j in range(gap.top + 1):
            w = rng.normal(size=gap.dim_at(j))
            assert np.array_equal(kirchhoff_pseudoinverse(gap, w, beta, j),
                                  dict_kirchhoff(gap, w, beta, j))
        for key in proto.cell_index.keys:
            coords = rng.random(proto.dim_of(key)) / (len(key) + 1)
            for table in _context(gap).trees.values():
                for tree in table.trees:
                    new = rho_and_drho(proto, beta, tree, (key, coords))
                    old = dict_rho_and_drho(proto, beta, tree, (key, coords))
                    assert new[0] == old[0] and np.array_equal(new[1], old[1])


@pytest.mark.parametrize("name", sorted(EQUALITY_PROTOCOLS))
def test_jan_form_equals_dict_route(name):
    proto = EQUALITY_PROTOCOLS[name]()
    rng = np.random.default_rng(37)
    for ell in range(1, proto.gap.top + 1):
        for jdim in range(ell, proto.gap.top + 1):
            for key in proto.simplices_of_dim(jdim):
                coords = rng.random(jdim) / (jdim + 1)
                frame = [rng.normal(size=jdim) for _ in range(ell)]
                for zeta in ("standard", "alternative"):
                    value = jan_form(proto, 4.0, key, coords, frame, ell, zeta=zeta)
                    oracle = dict_jan_form(proto, 4.0, key, coords, frame, ell, zeta)
                    assert np.array_equal(value, oracle), (key, ell, zeta)


@pytest.mark.parametrize("name", sorted(EQUALITY_PROTOCOLS))
def test_jan_integrate_equals_dict_route(name):
    proto = EQUALITY_PROTOCOLS[name]()
    tol = 1e-4 if proto.gap.top == 3 else 1e-8
    for jdim in range(1, proto.gap.top + 1):
        keys = proto.simplices_of_dim(jdim)
        values = jan_integrate(proto, 5.0, keys, tol=tol)
        for key, value in zip(keys, values):
            oracle = dict_jan_integrate(proto, 5.0, key, tol, 8)
            assert np.array_equal(value, oracle), key


def brute_force_orchard_sum(proto, beta, key, nodes, wts, along, zeta):
    """Reference for the factored kernel: the weighted node sum over every
    orchard (one tree per level) of rho_top det(drho . frame) times the
    orchard's composite operator, with one determinant per orchard."""
    gap = proto.gap
    ctx = tree_dicts(gap)
    ell = along.shape[1]
    zetas = _context(gap).zeta_std if zeta == "standard" else _context(gap).zeta_alt
    levels = [gap.p + j for j in range(ell + 1)]
    rho_top, _ = _rho_drho_at_nodes(ctx, proto, key, beta, levels[-1], nodes)
    drhos = [_rho_drho_at_nodes(ctx, proto, key, beta, lv, nodes)[1] @ along
             for lv in levels[:-1]]
    value = np.zeros((gap.dim_at(ell), gap.dim_at(0)))
    for combo in itertools.product(*(range(len(ctx.trees[lv])) for lv in levels)):
        op = ctx.trees[levels[0]][combo[0]]["rinv"]
        for j in range(1, ell + 1):
            op = ctx.trees[levels[j]][combo[j]]["rinv"] @ op
            if j < ell:
                op = zetas[j] @ op
        mats = np.stack([drhos[j][:, combo[j], :] for j in reversed(range(ell))], axis=1)
        value = value + float((wts * rho_top[:, combo[ell]] * np.linalg.det(mats)).sum()) * op
    return value


ORACLE_PROTOCOLS = {
    "sphere2": lambda: cube_sphere_protocol(2),
    "sphere3": lambda: cube_sphere_protocol(3),
    "wedge2": lambda: cube_protocol(gap_complex(sphere_wedge_complex(2), 0, 2)),
}


def _close(value, oracle):
    return float(np.max(np.abs(value - oracle))) <= 1e-12 * max(1.0, float(np.max(np.abs(oracle))))


@pytest.mark.parametrize("name", sorted(ORACLE_PROTOCOLS))
def test_jan_form_matches_brute_force_orchards(name):
    proto = ORACLE_PROTOCOLS[name]()
    rng = np.random.default_rng(23)
    for ell in range(1, proto.gap.top + 1):
        largest = 0.0
        for jdim in range(ell, proto.gap.top + 1):
            for key in proto.simplices_of_dim(jdim):
                coords = rng.random(jdim) / (jdim + 1)
                frame = [rng.normal(size=jdim) for _ in range(ell)]
                for zeta in ("standard", "alternative"):
                    value = jan_form(proto, 4.0, key, coords, frame, ell, zeta=zeta)
                    oracle = brute_force_orchard_sum(proto, 4.0, key, coords[None, :], np.ones(1),
                                                     np.array(frame).T, zeta)
                    assert _close(value, oracle), (key, ell, zeta)
                    largest = max(largest, float(np.max(np.abs(oracle))))
        assert largest > 1e-3    # the comparison is not between zeros


@pytest.mark.parametrize("name", sorted(ORACLE_PROTOCOLS))
def test_jan_integrate_matches_brute_force_orchards(name):
    proto = ORACLE_PROTOCOLS[name]()
    for jdim in range(1, proto.gap.top + 1):
        nodes, wts = _node_batches(jdim, 1)
        largest = 0.0
        keys = proto.simplices_of_dim(jdim)
        # a tolerance no two finite depths miss stops at depth 1
        values = jan_integrate(proto, 6.0, keys, tol=1e300, max_depth=1)
        for key, value in zip(keys, values):
            oracle = brute_force_orchard_sum(proto, 6.0, key, nodes, wts, np.eye(jdim), "standard")
            assert _close(value, oracle), key
            largest = max(largest, float(np.max(np.abs(oracle))))
        assert largest > 1e-3


# --- stacked integration against the per-simplex route --------------------------------

STACKED_CASES = {
    # builtin, betas, tol: the q=3 cells at the benchmark's coarse tolerance
    "square": (square_protocol, (2.0, 12.5, 30.0, 300.0), 1e-8),
    "sphere1": (lambda: cube_sphere_protocol(1), (2.0, 12.5, 300.0), 1e-8),
    "sphere2": (lambda: cube_sphere_protocol(2), (2.0, 12.5, 300.0), 1e-8),
    "sphere3": (lambda: cube_sphere_protocol(3), (2.0,), 1e-4),
    "wedge2": (lambda: cube_protocol(gap_complex(sphere_wedge_complex(2), 0, 2)),
               (2.0, 12.5, 300.0), 1e-8),
}


def integrable_cells(proto):
    return [key for key in proto.cell_index.keys if proto.dim_of(key) <= proto.gap.top]


@pytest.mark.parametrize("name", sorted(STACKED_CASES))
def test_stacked_integrate_equals_per_simplex_route(name):
    make, betas, tol = STACKED_CASES[name]
    proto = make()
    # every cell in one call, highest dimension first, so the blocks come
    # back in input order across the dimension groups
    keys = integrable_cells(proto)[::-1]
    for beta in betas:
        if beta == 300.0:
            # past the tie floor both routes raise, naming the same first cell
            fails = []
            for key in keys:
                try:
                    single_jan_integrate(proto, beta, key, tol=tol)
                except QuadratureNoConvergence as exc:
                    fails.append(str(exc))
            assert fails
            with pytest.raises(QuadratureNoConvergence, match=re.escape(fails[0])):
                jan_integrate(proto, beta, keys, tol=tol)
            continue
        values = jan_integrate(proto, beta, keys, tol=tol)
        assert len(values) == len(keys)
        for key, value in zip(keys, values):
            oracle = single_jan_integrate(proto, beta, key, tol=tol)
            assert np.array_equal(value, oracle), (key, beta)


def _item_counts(monkeypatch):
    """Records (simplices, nodes) of every stacked form evaluation."""
    calls = []
    original = ana_hyper._form

    def counted(ctx, p, beta, geos, nodes, *args, **kwargs):
        calls.append((len(geos[0][0]), len(nodes)))
        return original(ctx, p, beta, geos, nodes, *args, **kwargs)

    monkeypatch.setattr(ana_hyper, "_form", counted)
    return calls


def test_stacked_integrate_mixed_depths(monkeypatch):
    # on the cube sphere's cycle at beta 12.5 some simplices converge at
    # depth 1 and the rest refine on: they leave the stack one by one
    proto = cube_sphere_protocol(2)
    keys = list(proto.fundamental_cycle)
    calls = _item_counts(monkeypatch)
    values = jan_integrate(proto, 12.5, keys)
    for key, value in zip(keys, values):
        assert np.array_equal(value, single_jan_integrate(proto, 12.5, key))
    items = [sum(i for i, n in calls if n == nodes)
             for nodes in sorted({n for _, n in calls})]
    assert items[0] == items[1] == len(keys) > items[2]
    assert len(items) > 4 and items[-1] > 0
    assert items == sorted(items, reverse=True)


def test_stacked_integrate_raises_for_first_failure_in_input_order():
    # depth-starved: some cells converge by depth 3, others do not; at
    # depth -1 only the vertices, which need no quadrature, have a value
    proto = cube_sphere_protocol(2)
    cells = integrable_cells(proto)
    for max_depth in (3, -1):
        for keys in (cells, cells[::-1]):
            fails = []
            for key in keys:
                try:
                    single_jan_integrate(proto, 12.5, key, max_depth=max_depth)
                except QuadratureNoConvergence as exc:
                    fails.append(str(exc))
            assert 0 < len(fails) < len(keys)
            with pytest.raises(QuadratureNoConvergence) as err:
                jan_integrate(proto, 12.5, keys, max_depth=max_depth)
            assert str(err.value) == fails[0]


def test_cochain_reads_cell_rows_only(monkeypatch):
    # jan_cochain integrates the cell_index rows and builds no cell key:
    # with none to read it gives the same stacks, and a cell that does not
    # converge is named as jan_integrate names the first of them in
    # cell_index order
    proto = cube_sphere_protocol(2)
    cells = integrable_cells(proto)
    want = jan_cochain(proto, 12.5)
    with pytest.raises(QuadratureNoConvergence) as first:
        jan_integrate(proto, 12.5, cells, max_depth=3)
    monkeypatch.setattr(CellIndex, "keys", property(no_keys))
    got = jan_cochain(proto, 12.5)
    assert [a.tobytes() for a in got.stacks] == [a.tobytes() for a in want.stacks]
    with pytest.raises(QuadratureNoConvergence) as failed:
        jan_cochain(proto, 12.5, max_depth=3)
    assert str(failed.value) == str(first.value)


def test_stacked_integrate_empty_and_bad_dimension():
    proto = square_protocol()
    assert jan_integrate(proto, 3.0, []) == []
    with pytest.raises(ValueError):
        jan_integrate(proto, 3.0, list(cube_sphere_protocol(2).simplices_of_dim(2)))


def test_node_batches_cached_read_only(monkeypatch):
    nodes, wts = _node_batches(2, 1)
    again = _node_batches(2, 1)
    assert again[0] is nodes and again[1] is wts
    assert not nodes.flags.writeable and not wts.flags.writeable
    assert nodes.shape == (len(wts), 2) and wts.sum() == pytest.approx(0.5)
    # the kept batches are bounded by bytes, least recently used out first
    kept = ana_hyper._node_cache
    assert sum(n.nbytes + w.nbytes for n, w in kept.values()) <= ana_hyper._NODE_CACHE_BYTES
    monkeypatch.setattr(ana_hyper, "_node_cache", type(kept)())
    size = {d: sum(a.nbytes for a in _node_batches(2, d)) for d in (0, 1, 2)}
    monkeypatch.setattr(ana_hyper, "_node_cache", type(kept)())
    monkeypatch.setattr(ana_hyper, "_NODE_CACHE_BYTES", size[1] + size[2])
    first = _node_batches(2, 1)
    _node_batches(2, 2)
    assert list(ana_hyper._node_cache) == [(2, 1), (2, 2)]
    _node_batches(2, 0)     # over the bound: (2, 1) is the least recently used
    assert list(ana_hyper._node_cache) == [(2, 2), (2, 0)]
    rebuilt = _node_batches(2, 1)
    assert rebuilt[0] is not first[0] and np.array_equal(rebuilt[0], first[0])
    assert np.array_equal(rebuilt[1], first[1]) and not rebuilt[0].flags.writeable
    assert list(ana_hyper._node_cache) == [(2, 0), (2, 1)]
    # a batch larger than the bound is returned but not kept
    big = _node_batches(2, 3)
    assert big[0].shape == (len(big[1]), 2) and (2, 3) not in ana_hyper._node_cache


def test_context_dropped_with_its_gap():
    # the process keeps the 16 most recently used gaps; an evicted gap goes
    # with its memo, whose tree contractions point back at the gap: the
    # cycle must not keep either alive
    x = sphere_complex(1)
    gap = gap_complex(x, 0, 1)
    assert _context(gap) is _context(gap)
    cochain = hypercurrent_cochain(cube_protocol(gap))
    refs = weakref.ref(gap), weakref.ref(_context(gap))
    del gap, cochain

    def newer(i):
        return weakref.ref(gap_complex(dataclasses.replace(x, name=f"copy{i}"), 0, 1))

    first = [newer(i) for i in range(15)]
    gc.collect()
    assert all(r() is not None for r in refs + tuple(first))
    # a use makes x's gap the most recent, so the next 15 evict the first 15
    assert gap_complex(x, 0, 1) is refs[0]()
    later = [newer(i) for i in range(15, 30)]
    gc.collect()
    assert all(r() is None for r in first) and all(r() is not None for r in refs + tuple(later))
    newer(30)
    gc.collect()
    assert all(r() is None for r in refs)


@pytest.mark.parametrize("gap", [SPHERE1, SPHERE2, TOR,
                                 gap_complex(sphere_wedge_complex(2), 0, 2)],
                         ids=["sphere1", "sphere2", "torsion", "wedge2"])
def test_context_classes_are_the_exact_class_maps(gap):
    # the analytical route reads classes through the exact class maps
    # alone, rounded once; no second solve of its own
    ctx = _context(gap)
    top, h0 = gap.homology[gap.top], gap.homology[0]
    for got, want in ((ctx.top_class, top.class_map), (ctx.h0_class, h0.class_map),
                      (ctx.h0_basis, h0.hbasis)):
        assert got.shape == want.shape and np.array_equal(got, want.to_float())
    assert ctx.top_nb == top.bounds.shape[1]


# --- integration ------------------------------------------------------------------


def test_simplex_rule_degree_five_exact():
    for n in (1, 2, 3):
        pts, w = simplex_rule(n)
        voln = 1.0 / math.factorial(n)
        for powers in [(5,), (4, 1), (2, 2, 1)]:
            powers = (powers + (0,) * n)[:n]
            num = 1.0
            for a in powers:
                num *= math.factorial(a)
            exact = num / math.factorial(n + sum(powers))
            vals = np.prod(pts[:, 1:] ** np.array(powers)[None, :], axis=1)
            approx = float((w * vals).sum()) * voln
            assert approx == pytest.approx(exact, abs=1e-14)


def test_edgewise_pieces_equal_loop_route():
    for n in range(4):
        for depth in range(5):
            pieces, oracle = edgewise_pieces(n, depth), loop_edgewise_pieces(n, depth)
            assert len(pieces) == len(oracle)
            assert all(p.dtype == o.dtype and np.array_equal(p, o) for p, o in zip(pieces, oracle))
    pieces, oracle = edgewise_pieces(3, 5), loop_edgewise_pieces(3, 5)
    assert np.array_equal(np.stack(pieces), np.stack(oracle))


def test_edgewise_pieces_tile():
    for n in (1, 2, 3):
        for depth in (0, 1, 2):
            pieces = edgewise_pieces(n, depth)
            assert len(pieces) == 2 ** (n * depth)
            # one array, so quadrature nodes come without a stacked copy
            assert isinstance(pieces, np.ndarray) and pieces.shape == (len(pieces), n + 1, n)
            # volumes are equal and sum to the simplex volume
            vols = []
            for verts in pieces:
                mat = (verts[1:] - verts[0]).T
                vols.append(abs(np.linalg.det(mat)) / math.factorial(n))
            assert np.allclose(vols, vols[0])
            assert sum(vols) == pytest.approx(1.0 / math.factorial(n))


def test_integrate_dim0_is_alpha0():
    proto = square_protocol()
    v = proto.simplices_of_dim(0)[0]
    out, = jan_integrate(proto, 4.0, [v])
    _, alpha0 = weighted_pseudoinverse_inclusion(proto.gap, proto.level_weights[0][v[0]], 4.0)
    assert np.allclose(out, alpha0)


def test_integrate_constant_protocol_zero():
    gap = SPHERE1
    wp = ((0.0, 1.0), (0.0, 1.0))
    proto = constant_protocol(gap, wp)
    out, = jan_integrate(proto, 4.0, [(0, 1)])
    assert np.allclose(out, 0.0)


def test_square_cycle_integral_matches_topology():
    proto = square_protocol()
    [(_, chain)] = hypercurrent_homology(proto, [proto.fundamental_cycle], ratlin.QMat.identity(1))
    target = np.array([float(c) for (c,) in chain.to_rows()])
    total = np.zeros((2, 2))
    keys = list(proto.fundamental_cycle)
    for key, mat in zip(keys, jan_integrate(proto, 30.0, keys)):
        total = total + proto.fundamental_cycle[key] * mat
    gen = np.array([1.0, 0.0])
    assert np.max(np.abs(total @ gen - target)) <= 1e-3


def test_quadrature_no_convergence():
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    with pytest.raises(QuadratureNoConvergence):
        jan_integrate(proto, 30.0, [edge], tol=1e-16, max_depth=0)


def test_nonfinite_beta_rejected():
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonfiniteBeta):
            jan_integrate(proto, beta, [edge])
        with pytest.raises(NonfiniteBeta):
            jan_form(proto, beta, edge, [0.5], [np.array([1.0])], 1)
        with pytest.raises(NonfiniteBeta):
            jan_cochain(proto, beta)
    with pytest.raises(NonpositiveBeta):
        jan_cochain(proto, -1.0)


def test_nonpositive_beta_rejected():
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    with pytest.raises(NonpositiveBeta):
        jan_integrate(proto, 0.0, [edge])
    with pytest.raises(NonpositiveBeta):
        kirchhoff_pseudoinverse(SPHERE1, [0.0, 0.0], -1.0, 1)


def test_kirchhoff_degree_out_of_range():
    for j in (-1, SPHERE2.top + 1, 7):
        with pytest.raises(ValueError, match="degree out of range"):
            kirchhoff_pseudoinverse(SPHERE2, np.zeros(2), 3.0, j)


def test_quantization_sweep_empty_betas():
    proto = square_protocol()
    with pytest.raises(ValueError, match="beta list is empty"):
        quantization_sweep(proto, [], proto.fundamental_cycle, [1])


LARGE_BETA_PROBES = [("square", 2), ("cube_sphere", 1), ("cube_sphere", 2), ("cube_wedge", 2)]


@pytest.mark.parametrize("kind, q", LARGE_BETA_PROBES)
def test_large_beta_sweeps_raise_rather_than_answer(kind, q):
    # past the depth their tie layers need, sweeps raise instead of
    # returning an unresolved class (distance 1 on the spheres, 0 on the
    # wedge at beta 300): from beta 150 before any form is evaluated,
    # naming the floor; at 80 and 100 once depth 8 still disagrees
    proto = builtin_protocol(kind, q)
    for beta in (80.0, 100.0, 150.0, 300.0, 1000.0, 3000.0):
        for residuals in (False, True):
            with pytest.raises(QuadratureNoConvergence) as err:
                quantization_sweep(proto, [beta], proto.cycle_by_place, [1], residuals=residuals)
            floor = "" if beta < 150 else r"tie layer needs depth (9|1\d), budget allows 8"
            assert re.search(floor or "no convergence within depth 8", str(err.value))
    # beta 50 and 60 still converge to the exact class
    rows = quantization_sweep(proto, [50.0, 60.0], proto.cycle_by_place, [1]).rows
    assert all(row.distance < 1e-14 for row in rows)


def near_tie_protocol(delta):
    """The cube protocol over the circle with the level-0 weight of corner
    (+1, +1) moved from 1 to delta: along the edge from corner (+1, -1)
    that level's difference falls from 1 to delta without changing sign,
    a boundary layer of width about 1/beta at the vertex, while level 1
    ties in the edge's middle."""
    gap = gap_complex(sphere_complex(1), 0, 1)
    weights = np.zeros((2, 1, 4, 2))
    weights[:, 0, :, 0] = cube_corners(2).T
    weights[0, 0, 3, 0] = delta
    return cube_boundary_protocol(gap, weights)


@pytest.mark.xfail(strict=True, reason="the tie floor counts only pairs that cross over a simplex; "
                   "a near-tie at a vertex is a layer it does not see, and two shallow depths agree")
def test_a_near_tie_at_a_vertex_is_resolved_or_raised():
    # the floor's first limit: its edge has floor 0, and the value two
    # shallow depths agree on misses the layer (-9e-11 against -0.0474)
    proto = near_tie_protocol(0.01)
    edge, beta = (2, 3), 300.0
    assert single_tie_depth(proto, edge, beta, 1e-8) == 0
    nodes, wts = _node_batches(1, 14)
    exact = single_form(_context(proto.gap), proto, edge, beta, nodes, wts, 1, "standard")
    assert np.abs(exact).max() > 0.04
    try:
        [block] = jan_integrate(proto, beta, [edge])
    except QuadratureNoConvergence:
        return
    assert np.abs(block - exact).max() < 1e-6


def test_quantization_sweep_repeated_betas_has_no_slope():
    proto = square_protocol()
    rep = quantization_sweep(proto, [5.0, 5.0], proto.fundamental_cycle, [1])
    assert len(rep.rows) == 2 and rep.rows[0] == rep.rows[1]
    assert math.isnan(rep.slope)
    # one distinct beta inside the fit range, others outside it
    rep = quantization_sweep(proto, [5.0, 5.0, 10.0], proto.fundamental_cycle, [1],
                             fit_range=(4.0, 6.0))
    assert len(rep.rows) == 3 and math.isnan(rep.slope)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-8])
def test_tolerance_must_be_finite_and_positive(tol):
    proto = square_protocol()
    edge = proto.simplices_of_dim(1)[0]
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        jan_integrate(proto, 30.0, [edge], tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        jan_cochain(proto, 30.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        quantization_sweep(proto, [30.0], proto.fundamental_cycle, [1], tol=tol)


def test_alternative_zeta_is_built_for_the_axiom_check_only(monkeypatch):
    calls = []
    real = ratlin.left_inverse
    monkeypatch.setattr(ratlin, "left_inverse", lambda a: calls.append(a) or real(a))
    proto = cube_sphere_protocol(2)     # a fresh gap, with an empty memo
    jan_integrate(proto, 5.0, proto.simplices_of_dim(2)[:3], tol=1e-6)
    quantization_sweep(proto, [5.0], proto.fundamental_cycle, [1], tol=1e-6)
    assert calls == []
    samples = interior_samples(proto, 3, np.random.default_rng(0))
    rep = axioms_check(proto, 5.0, samples)
    built = len(calls)
    assert built == proto.gap.top + 1
    assert axioms_check(proto, 5.0, samples) == rep
    assert len(calls) == built


# --- cochain residuals ---------------------------------------------------------------


def test_jan_cochain_residuals():
    proto = square_protocol()
    coch = jan_cochain(proto, 8.0)
    assert cochain_chain_map_defect(coch) <= 1e-6


def test_jan_cochain_residual_cube():
    proto = cube_sphere_protocol(2)
    coch = jan_cochain(proto, 10.0)
    assert cochain_chain_map_defect(coch) <= 1e-6


def test_constant_protocol_residual_zero():
    gap = SPHERE1
    wp = ((0.0, 1.0), (0.0, 1.0))
    proto = constant_protocol(gap, wp)
    coch = jan_cochain(proto, 3.0)
    assert cochain_chain_map_defect(coch) <= 1e-14


def triangle_sphere():
    """The transversal sphere of the triangle graph's first top cell."""
    return transversal_sphere(TRIANGLE, enumerate_top_discriminant_cells(TRIANGLE.parent, 0, 1)[:1])


# protocol name -> (betas, tol); cube_sphere:3 at the benchmark's tol
DEFECT_CASES = {
    "square": ((5.0, 30.0), 1e-8),
    "cube_sphere:1": ((2.0, 8.0), 1e-8),
    "cube_sphere:2": ((2.5, 10.0), 1e-8),
    "cube_sphere:3": ((2.0, 2.5), 1e-4),
    "cube_wedge:1": ((3.0, 20.0), 1e-8),
    "cube_wedge:2": ((2.0, 4.0), 1e-8),
    "triangle_sphere": ((3.0, 9.0), 1e-8),
}


def defect_case(name):
    if name == "triangle_sphere":
        return triangle_sphere()
    kind, _, q = name.partition(":")
    return builtin_protocol(kind, int(q or 2))


def with_stacks(coch, edit):
    """The cochain with copies of its stacks, edit(dim, stack) applied to each."""
    stacks = [stack.copy() for stack in coch.stacks]
    for dim, stack in enumerate(stacks):
        edit(dim, stack)
    return HyperCochain(gap=coch.gap, domain=coch.domain, stacks=stacks)


def perturb(dim, stack):
    # one cell per dimension, by a pattern that differs between entries
    # and dimensions, so a wrong face, row or sign changes the defect
    cell = stack[len(stack) // 2]
    cell += 1e-3 * (dim + 1) * np.arange(1, cell.size + 1).reshape(cell.shape)


@pytest.mark.parametrize("name", DEFECT_CASES)
def test_stacked_defect_equals_the_cell_by_cell_oracle(name):
    proto = defect_case(name)
    betas, tol = DEFECT_CASES[name]
    for beta in betas:
        coch = jan_cochain(proto, beta, tol=tol)
        moved = with_stacks(coch, perturb)
        assert cochain_chain_map_defect(coch) == chain_map_defect_oracle(coch) < 1e-6
        assert cochain_chain_map_defect(moved) == chain_map_defect_oracle(moved) > 1e-4


@pytest.mark.parametrize("make", [square_protocol, lambda: cube_sphere_protocol(2)],
                         ids=["square", "sphere2"])
def test_defect_is_nan_when_a_block_is_not_finite(make):
    proto = make()
    coch = jan_cochain(proto, 5.0)
    assert math.isfinite(cochain_chain_map_defect(coch))
    top = proto.gap.top
    last = len(coch.stacks[top]) - 1
    for dim, row, entry in ((0, 0, np.s_[:]), (top, last, np.s_[0, 0]), (top, 0, np.s_[:])):
        for bad in (np.nan, np.inf):
            def spoil(d, stack):
                if d == dim:
                    stack[row][entry] = bad
            assert math.isnan(cochain_chain_map_defect(with_stacks(coch, spoil)))


# --- axioms ------------------------------------------------------------------------


def test_axioms_on_cube():
    proto = cube_sphere_protocol(2)
    rng = np.random.default_rng(42)
    samples = interior_samples(proto, 50, rng, margin=1e-3)
    rep = axioms_check(proto, 5.0, samples, fd_step=1e-5, tol=1e-5)
    assert rep.continuity <= 1e-5
    assert rep.orthogonality <= 1e-5
    assert rep.initial_value <= 1e-5
    assert rep.zeta_independence <= 1e-10
    assert not rep.violations


def test_axioms_constant_protocol_zero_residuals():
    gap = SPHERE1
    wp = ((0.0, 1.0), (0.0, 1.0))
    proto = constant_protocol(gap, wp)
    rep = axioms_check(proto, 3.0, [((0, 1), (0.5,))])
    assert rep.continuity <= 1e-12
    assert rep.max_residual <= 1e-12


# --- the per-point axiom check, kept as the oracle ----------------------------------------
# axioms_check used to evaluate every form at one point with its own
# one-point jan_form call.  That loop is kept here (renamed, with the
# library helpers it shares qualified); the stacked check must reproduce
# it bit for bit.


@pytest.mark.parametrize("make", [square_protocol, lambda: cube_sphere_protocol(2),
                                  lambda: cube_protocol(gap_complex(sphere_wedge_complex(3), 0, 3))])
def test_vertex_rows_gather_equals_point_by_point(make):
    # one fancy index into the protocol's weight arrays gives the same
    # floats as reading each vertex's row
    proto = make()
    gap = proto.gap
    for jdim in range(proto.dim + 1):
        keys = proto.simplices_of_dim(jdim)
        keys = keys + keys[:1]      # a repeated simplex, as in stacks of nodes
        for level in range(gap.p, gap.q + 1):
            want = np.array([simplex_vertex_weights(proto, key, level) for key in keys])
            assert np.array_equal(ana_hyper._vertex_rows(proto, keys, level), want)


def point_weights(proto, key, level, coords):
    """One level's cell weights at a point of a simplex."""
    vw = simplex_vertex_weights(proto, key, level)
    base = vw[0]
    grads = vw[1:] - base[None, :]
    return (base[None, :] + np.asarray(coords, dtype=float)[None, :] @ grads)[0]


def fd_partial(fun, coords, axis, h):
    up = np.array(coords, dtype=float)
    dn = up.copy()
    up[axis] += h
    dn[axis] -= h
    return (fun(up) - fun(dn)) / (2 * h)


def pointwise_axioms_check(proto, beta, samples, fd_step=1e-5, tol=1e-5):
    gap = proto.gap
    ctx = _context(gap)
    report = AxiomReport(samples=len(samples))
    for key, coords in samples:
        jdim = proto.dim_of(key)
        frame_basis = np.eye(jdim)
        for ell in range(1, min(jdim, gap.top) + 1):
            for axes in itertools.combinations(range(jdim), ell):
                frame = [frame_basis[a] for a in axes]
                val = jan_form(proto, beta, key, coords, frame, ell)
                lhs = ctx.d[ell] @ val
                rhs = np.zeros_like(lhs)
                for m, drop in enumerate(axes):
                    sub = [frame_basis[a] for a in axes if a != drop]

                    def f(pt, sub=sub, ell=ell):
                        return jan_form(proto, beta, key, pt, sub, ell - 1)

                    rhs = rhs + (-1) ** m * fd_partial(f, coords, drop, fd_step)
                resid = float(np.max(np.abs(lhs - rhs)))
                report.continuity = max(report.continuity, resid)
                if resid > tol:
                    report.violations.append(("A1", key, coords, ell, resid))
        w0 = point_weights(proto, key, gap.p, coords)
        g0 = np.exp(beta * (w0 - w0.max()))
        alpha0 = ana_hyper._alpha0(gap, w0, beta)
        b0 = ctx.bounds[0]
        if b0.shape[1]:
            pair = b0.T @ (g0[:, None] * alpha0)
            scale = max(np.max(np.abs(alpha0)), 1.0) * g0.max()
            resid = float(np.max(np.abs(pair))) / scale
            report.orthogonality = max(report.orthogonality, resid)
            if resid > tol:
                report.violations.append(("A2", key, coords, 0, resid))
        for ell in range(1, min(jdim, gap.top) + 1):
            zmat = ctx.cycles[ell]
            if not zmat.shape[1]:
                continue
            wl = point_weights(proto, key, gap.p + ell, coords)
            gl = np.exp(beta * (wl - wl.max()))
            frame = [frame_basis[a] for a in range(ell)]
            val = jan_form(proto, beta, key, coords, frame, ell)
            pair = zmat.T @ (gl[:, None] * val)
            scale = max(np.max(np.abs(val)), 1e-30) * gl.max()
            resid = float(np.max(np.abs(pair))) / scale
            report.orthogonality = max(report.orthogonality, resid)
            if resid > tol:
                report.violations.append(("A2", key, coords, ell, resid))
        if ctx.h0_basis.shape[1]:
            cls = ctx.h0_class @ (alpha0 @ ctx.h0_basis)
            resid = float(np.max(np.abs(cls[ctx.nb[0]:, :] - np.eye(ctx.h0_basis.shape[1]))))
            report.initial_value = max(report.initial_value, resid)
            if resid > tol:
                report.violations.append(("A3", key, coords, 0, resid))
        for ell in range(1, min(jdim, gap.top) + 1):
            frame = [frame_basis[a] for a in range(ell)]
            v1 = jan_form(proto, beta, key, coords, frame, ell, zeta="standard")
            v2 = jan_form(proto, beta, key, coords, frame, ell, zeta="alternative")
            resid = float(np.max(np.abs(v1 - v2)))
            report.zeta_independence = max(report.zeta_independence, resid)
    return report


AXIOM_PROTOCOLS = {
    "square": square_protocol,
    "sphere2": lambda: cube_sphere_protocol(2),
    "sphere3": lambda: cube_sphere_protocol(3),
}
RESIDUAL_FIELDS = ("continuity", "orthogonality", "initial_value", "zeta_independence")


@pytest.mark.parametrize("name,beta,tol", [
    (name, beta, 1e-5) for name in sorted(AXIOM_PROTOCOLS) for beta in (2.5, 9.7)
] + [("sphere3", 5.0, 1e-9), ("sphere2", 5.0, math.ulp(0.0))])
def test_axioms_check_equals_pointwise_route(name, beta, tol):
    # at the least positive tol every nonzero residual is a violation: A1
    # and A2 ones interleave sample by sample
    proto = AXIOM_PROTOCOLS[name]()
    samples = interior_samples(proto, 10, np.random.default_rng(int(beta * 10)))
    rep = axioms_check(proto, beta, samples, tol=tol)
    oracle = pointwise_axioms_check(proto, beta, samples, tol=tol)
    assert rep.samples == oracle.samples == 10
    for field in RESIDUAL_FIELDS:
        assert getattr(rep, field) == getattr(oracle, field), field
    assert rep.violations == oracle.violations
    assert bool(rep.violations) == (tol < 1e-5)


def test_axiom_report_fields_are_floats():
    proto = cube_sphere_protocol(2)
    rep = axioms_check(proto, 4.0, interior_samples(proto, 3, np.random.default_rng(2)))
    assert rep.orthogonality > 0
    for field in RESIDUAL_FIELDS:
        assert type(getattr(rep, field)) is float, field
    empty = axioms_check(proto, 4.0, [])
    assert empty.samples == 0 and not empty.violations
    assert all(getattr(empty, field) == 0.0 for field in RESIDUAL_FIELDS)


@pytest.mark.parametrize("fd_step", [0.0, math.nan, -1e-5, math.inf])
def test_axioms_check_rejects_bad_fd_step(fd_step):
    proto = cube_sphere_protocol(2)
    samples = interior_samples(proto, 2, np.random.default_rng(3))
    with pytest.raises(ValueError, match="fd_step must be finite and positive"):
        axioms_check(proto, 5.0, samples, fd_step=fd_step)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_axioms_check_rejects_bad_tol(tol):
    # an infinite tol would report no violation whatever the residuals
    proto = square_protocol()
    samples = interior_samples(proto, 5, np.random.default_rng(3))
    with pytest.raises(ValueError, match=f"tol must be finite and positive, got {tol}"):
        axioms_check(proto, 30.0, samples, tol=tol)


def test_nonfinite_residual_is_a_violation():
    # a NaN weight makes every residual NaN; max() and "resid > tol" both
    # used to drop it, reporting zero residuals and no violations
    bad = ((0.0, math.nan), (0.0, 1.0))
    proto = simplicial_protocol(gap=SPHERE1, vertex_ids=("A", "B"),
                                level_weights=levels_of((((0.0, 1.0), (0.0, 1.0)), bad)),
                                simplices=((0,), (1,), (0, 1)))
    with np.errstate(invalid="ignore"):
        rep = axioms_check(proto, 3.0, [((0, 1), (0.5,))])
    for field in RESIDUAL_FIELDS:
        assert math.isnan(getattr(rep, field)), field
    assert [v[0] for v in rep.violations] == ["A1", "A2", "A2", "A3"]
    assert all(math.isnan(v[-1]) for v in rep.violations)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["square", "sphere1", "sphere2", "sphere3", "wedge2", "k4"]),
       seed=st.integers(0, 2 ** 16), count=st.integers(1, 7), beta=st.floats(0.5, 40.0))
def test_stacked_jan_form_equals_one_point_calls(name, seed, count, beta):
    proto = {**EQUALITY_PROTOCOLS, "sphere1": lambda: cube_sphere_protocol(1)}[name]()
    rng = np.random.default_rng(seed)
    for jdim in range(proto.gap.top + 1):
        cells = proto.simplices_of_dim(jdim)
        if not cells:
            continue
        keys = [cells[i] for i in rng.integers(len(cells), size=count)]
        coords = rng.random((count, jdim)) / (jdim + 1)
        for ell in range(jdim + 1):
            frame = [rng.normal(size=jdim) for _ in range(ell)]
            # one frame per point, each a random one or a coordinate frame
            frames = rng.normal(size=(count, ell, jdim))
            frames[::2] = np.eye(jdim)[:ell]
            for zeta in ("standard", "alternative"):
                # mixed keys, and one key for every point; one frame for
                # every point, and one per point
                for stack, shared in itertools.product((keys, keys[0]), (True, False)):
                    value = jan_form(proto, beta, stack, coords, frame if shared else frames,
                                     ell, zeta=zeta)
                    assert value.shape[0] == count
                    for i, pt in enumerate(coords):
                        one = jan_form(proto, beta, keys[i] if stack is keys else stack, pt,
                                       frame if shared else list(frames[i]), ell, zeta=zeta)
                        assert np.array_equal(value[i], one), (jdim, ell, zeta, shared, i)


@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 1, 2), (2, 2, 1), (1, 2, 2), (2, 2, 2, 1)])
def test_per_point_frames_of_the_wrong_shape_raise(shape):
    # two points on triangles at degree 2 need frames (2, 2, 2) or one
    # frame (2, 2) for both
    proto = cube_sphere_protocol(2)
    tris = proto.simplices_of_dim(2)[:2]
    coords = np.full((2, 2), 0.25)
    jan_form(proto, 3.0, tris, coords, np.ones((2, 2, 2)), 2)
    with pytest.raises(BadFrame,
                       match="need 2 frame vectors of 2 coordinates, or such a frame per point"):
        jan_form(proto, 3.0, tris, coords, np.ones(shape), 2)
    with pytest.raises(BadFrame):
        jan_form(proto, 3.0, tris, coords, [np.ones(2), np.ones(1)], 2)


def test_stacked_jan_form_rejects_mismatched_stacks():
    proto = cube_sphere_protocol(2)
    edges, tris = proto.simplices_of_dim(1), proto.simplices_of_dim(2)
    with pytest.raises(ValueError, match="one point per simplex"):
        jan_form(proto, 3.0, edges[:3], np.full((2, 1), 0.3), [np.ones(1)], 1)
    with pytest.raises(ValueError, match="one dimension"):
        jan_form(proto, 3.0, [edges[0], tris[0]], np.full((2, 1), 0.3), [np.ones(1)], 1)


def test_axioms_check_forms_flat_in_samples(monkeypatch):
    # one jan_form per degree and zeta, whatever the sample count, and so
    # one form evaluation at one node per degree >= 1 and zeta: the
    # standard one stacks the degree's values on every coordinate frame
    # with the finite-difference points of the degree above
    rng = np.random.default_rng(5)
    calls = _item_counts(monkeypatch)
    points = []
    real = ana_hyper.jan_form
    monkeypatch.setattr(ana_hyper, "jan_form",
                        lambda proto, beta, key, coords, *rest, **kw:
                        points.append(len(coords)) or real(proto, beta, key, coords, *rest, **kw))
    for name, forms in (("square", 2), ("sphere2", 4), ("sphere3", 6)):
        proto = AXIOM_PROTOCOLS[name]()
        for count in (1, 6):
            calls.clear()
            points.clear()
            axioms_check(proto, 3.0, interior_samples(proto, count, rng))
            assert len(calls) == forms and len(points) == forms + 1, (name, count)
            assert all(nodes == 1 and items % count == 0 for items, nodes in calls)
            assert all(n % count == 0 for n in points)


# --- quantization ----------------------------------------------------------------------


def test_quantization_square():
    proto = square_protocol()
    rep = quantization_sweep(proto, [5.0, 10.0, 20.0, 30.0], proto.fundamental_cycle, [1],
                             fit_range=(5.0, 20.0))
    assert rep.rows[-1].distance <= 1e-3
    assert rep.slope == pytest.approx(-1.0, rel=0.25)


def test_context_and_tree_functor_share_trees():
    proto = cube_protocol(gap_complex(sphere_wedge_complex(2), 0, 2))
    chosen = {tree_functor(proto, row) for row in range(proto.cell_index.offsets[-1])}
    tables = _context(proto.gap).trees
    for tree in chosen:
        assert any(t is tree for t in tables[tree.level].trees)


@pytest.mark.parametrize("make", [sphere_complex, sphere_wedge_complex], ids=["sphere", "wedge"])
def test_quantization_sweep_checks_each_tree_once(monkeypatch, make):
    proto = cube_protocol(gap_complex(make(2), 0, 2))
    calls = []
    real = forests.is_dtree
    monkeypatch.setattr(forests, "is_dtree",
                        lambda gap, d, cells: calls.append((d, tuple(cells))) or real(gap, d, cells))
    quantization_sweep(proto, [2.0], proto.fundamental_cycle, [1], tol=1e-4, max_depth=4)
    trees = _context(proto.gap).trees
    assert sorted(calls) == sorted((d, t.cells) for d, table in trees.items() for t in table.trees)


def test_quantization_wedge_trivial():
    q = 2
    proto = cube_protocol(gap_complex(sphere_wedge_complex(q), 0, q))
    rep = quantization_sweep(proto, [5.0, 20.0], proto.fundamental_cycle, [1])
    assert rep.topological == (0.0,)
    assert all(r.distance <= 1e-6 for r in rep.rows)


@pytest.mark.parametrize("name", ["square", "sphere2", "wedge2"])
def test_residual_sweep_equals_two_pass_route(name):
    proto = EQUALITY_PROTOCOLS[name]()
    betas = [2.5, 4.0, 9.0]
    oracle = two_pass_sweep_rows(proto, betas, 1e-6, 8)
    for residuals in (True, False):
        rep = quantization_sweep(proto, betas, proto.fundamental_cycle, [1], tol=1e-6,
                                 residuals=residuals)
        got = [(r.beta, r.coords, r.distance, r.residual) for r in rep.rows]
        assert got == [row[:3] + ((row[3],) if residuals else (None,)) for row in oracle]


def test_residual_sweep_integrates_each_cell_once(monkeypatch):
    proto = cube_sphere_protocol(2)
    betas = [3.0, 5.0]
    # a small block bound, so some depths need more than one block
    monkeypatch.setattr(ana_hyper, "_BLOCK", 64)
    calls, integrals, forms, cochains = [], [], [], []
    # _integrate_by_dim(proto, beta, rows, ...), which every integration
    # goes through, _form(ctx, p, beta, geos, nodes, ...) and
    # jan_cochain(proto, beta): a form sum's nodes name its dimension
    # and depth, its vertex geometry the number of simplices in its block
    for name, log, rec in (
            ("_integrate_by_dim", calls, lambda a: a[1]),
            ("_integrate_by_dim", integrals,
             lambda a: [(a[1], tuple(k)) for rows in a[2] for k in np.asarray(rows).tolist()]),
            ("_form", forms, lambda a: ((a[2], a[4].shape[1], len(a[4])), len(a[3][0][0]))),
            ("jan_cochain", cochains, lambda a: a[1])):
        original = getattr(ana_hyper, name)

        def counted(*args, original=original, log=log, rec=rec, **kwargs):
            entry = rec(args)
            log.extend(entry) if isinstance(entry, list) else log.append(entry)
            return original(*args, **kwargs)

        monkeypatch.setattr(ana_hyper, name, counted)
    quantization_sweep(proto, betas, proto.fundamental_cycle, [1], residuals=True)
    cells = integrable_cells(proto)
    assert cochains == betas
    # one integral per (beta, cell), all of one beta in one call
    assert calls == betas
    assert sorted(integrals) == sorted((b, key) for b in betas for key in cells)
    # one form sum per (beta, dimension, depth, block): full blocks of
    # _BLOCK // nodes simplices and one last partial block
    groups = {}
    for group, items in forms:
        groups.setdefault(group, []).append(items)
    for (beta, jdim, nodes), items in groups.items():
        step = max(1, 64 // nodes)
        assert items[:-1] == [step] * (len(items) - 1) and 0 < items[-1] <= step
        depth0 = min(n for b, d, n in groups if (b, d) == (beta, jdim))
        if nodes == depth0:
            assert sum(items) == len(proto.simplices_of_dim(jdim))
    assert any(len(items) > 1 for items in groups.values())
    assert any(max(items) > 1 for items in groups.values())
    assert {(b, d) for b, d, _ in groups} == {(b, d) for b in betas for d in (1, 2)}


# --- streamed per-node passes ---------------------------------------------------------

STREAMED_CASES = {
    # builtin, (beta, tol, max_depth) runs: the q=3 cells at the benchmark's
    # coarse tolerance
    "square": (square_protocol, [(b, 1e-8, 8) for b in (2.0, 7.5, 12.5, 40.0)]),
    "sphere1": (lambda: cube_sphere_protocol(1), [(b, 1e-8, 8) for b in (2.0, 7.5, 12.5, 40.0)]),
    "sphere2": (lambda: cube_sphere_protocol(2), [(b, 1e-8, 8) for b in (2.0, 7.5, 12.5, 40.0)]),
    "sphere3": (lambda: cube_sphere_protocol(3), [(b, 1e-4, 6) for b in (2.0, 5.0)]),
    "wedge2": (lambda: builtin_protocol("cube_wedge", 2),
               [(b, 1e-8, 8) for b in (2.0, 7.5, 12.5, 40.0)]),
    "k4": (k4_protocol, [(b, 1e-8, 8) for b in (2.0, 12.5)]),
}


@pytest.mark.parametrize("name", sorted(STREAMED_CASES))
def test_cochain_bits_do_not_depend_on_the_block(name, monkeypatch):
    # the block bounds the per-node passes only; the node sums span every
    # node of a block whatever it is, so the cochain keeps its bytes
    # (beta 40 takes depth 8, 655 360 nodes per 2-simplex, too slow for a
    # test in chunks of 300 or 64 nodes; it runs chunked at 4096)
    make, runs = STREAMED_CASES[name]
    proto = make()
    stacks = {}
    for block in (16384, 4096, 300, 64):
        monkeypatch.setattr(ana_hyper, "_BLOCK", block)
        for beta, tol, depth in runs:
            if block >= 4096 or beta < 40:
                coch = jan_cochain(proto, beta, tol=tol, max_depth=depth)
                stacks[block, beta] = [s.tobytes() for s in coch.stacks]
    for (block, beta), got in stacks.items():
        assert got == stacks[16384, beta], (block, beta)
    assert len(stacks) == 4 * len(runs) - 2 * sum(beta >= 40 for beta, _, _ in runs)


def _record_passes(monkeypatch):
    """(simplices, nodes) of every per-node pass, one per _rho_at_nodes call."""
    passes = []
    original = ana_hyper._rho_at_nodes

    def recorded(table, geo, beta, nodes):
        passes.append((len(geo[0]), len(nodes)))
        return original(table, geo, beta, nodes)

    monkeypatch.setattr(ana_hyper, "_rho_at_nodes", recorded)
    return passes


def test_no_per_node_pass_exceeds_the_block(monkeypatch):
    # at beta 12.5 some cycle simplices of the cube sphere reach depth 6,
    # 40 960 nodes each: their passes run on chunks of whole rule pieces
    proto = cube_sphere_protocol(2)
    passes = _record_passes(monkeypatch)
    jan_integrate(proto, 12.5, list(proto.fundamental_cycle))
    piece = len(simplex_rule(2)[1])
    assert len(_node_batches(2, 6)[1]) == 40960 > ana_hyper._BLOCK
    assert max(items * nodes for items, nodes in passes) <= ana_hyper._BLOCK
    assert all(nodes % piece == 0 for _, nodes in passes)
    assert (1, ana_hyper._BLOCK // piece * piece) in passes
    # the one-node point form runs in one pass whatever the stack's size
    passes.clear()
    keys = proto.simplices_of_dim(2)
    jan_form(proto, 12.5, keys * 500, np.full((len(keys) * 500, 2), 0.25), np.eye(2), 2)
    assert passes == [(len(keys) * 500, 1)] * 3


def test_stacked_integrate_memory_is_bounded():
    """The traced peak of integrating the cube sphere's cycle at beta 12.5
    is bounded by the node-sum buffers plus one chunk's working set.

    The deepest simplices take depth 6, N = 40 960 nodes, and run alone.
    Their node-sum buffers hold per node the weighted K (rows x inner =
    2 x 1) and one chain product per permutation of the 2-frame (2 x inner
    x cols = 2 x 1 x 2): 6 floats, 8 N * 6 bytes = 1.97 MB.  A chunk holds
    at most _BLOCK nodes; at the peak of _drho it keeps rho, beta rho, the
    differences and drho (ntrees (2 + 2 jdim) = 12 floats per node) next to
    the lower level's drho and the top level's rho (4 + 2 more): 18
    floats, bounded here by 24, 8 * 24 * _BLOCK bytes = 0.79 MB.  A
    quarter MB covers the node batches' indices, the block's estimates and
    the interpreter.  Before the per-node passes were chunked the peak was
    6.6 MB, over this bound."""
    import tracemalloc

    proto = cube_sphere_protocol(2)
    keys = list(proto.fundamental_cycle)
    jan_integrate(proto, 12.5, keys)        # node batches and the context built
    nodes = 40960
    bound = 8 * nodes * 6 + 8 * 24 * ana_hyper._BLOCK + 2 ** 18
    tracemalloc.start()
    try:
        jan_integrate(proto, 12.5, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_node_counts_are_the_batch_sizes():
    # the node budget is checked from this count before a batch is built
    for jdim in (1, 2, 3):
        for depth in (0, 1, 2):
            count = ana_hyper._rule_size(jdim) * 2 ** (depth * jdim)
            assert count == len(_node_batches(jdim, depth)[1]) == len(_node_batches(jdim, depth)[0])
    # the 3-simplex at depth 6, as deep sweeps on the cube spheres reach
    assert ana_hyper._rule_size(3) * 2 ** 18 <= ana_hyper._NODE_BUDGET


def test_node_budget_stops_the_depth_loop(monkeypatch):
    # a budget of 700 nodes admits the 2-simplex up to depth 3 (640 nodes)
    # and not depth 4 (2560): at beta 2, whose tie floor (depth 2) fits,
    # the integration stops there, before building the depth-4 batch, and
    # names the first simplex left, the depth and the budget
    proto = cube_sphere_protocol(2)
    keys = list(proto.fundamental_cycle)
    fails = []
    for key in keys:
        try:
            single_jan_integrate(proto, 2.0, key, max_depth=3)
        except QuadratureNoConvergence as exc:
            fails.append(str(exc))
    assert fails
    monkeypatch.setattr(ana_hyper, "_NODE_BUDGET", 700)
    built = []
    original = ana_hyper._node_batches

    def recorded(jdim, depth):
        built.append(depth)
        return original(jdim, depth)

    monkeypatch.setattr(ana_hyper, "_node_batches", recorded)
    with pytest.raises(QuadratureNoConvergence) as err:
        jan_integrate(proto, 2.0, keys)
    assert str(err.value) == fails[0] + ": depth 4 would exceed the budget of 700 nodes per simplex"
    assert max(built) == 3
    # the budget leaves a depth limit that stops first as it was
    with pytest.raises(QuadratureNoConvergence) as err:
        jan_integrate(proto, 2.0, keys, max_depth=2)
    assert "budget" not in str(err.value) and "within depth 2 at" in str(err.value)
    # at beta 12.5 the floor is depth 5, beyond the budget's depth 3: the
    # stack raises before it builds any batch, naming the floor and the depth
    first = next(key for key in keys if single_tie_depth(proto, key, 12.5, 1e-8) > 3)
    built.clear()
    with pytest.raises(QuadratureNoConvergence) as err:
        jan_integrate(proto, 12.5, keys)
    assert str(err.value) == f"simplex {first} at beta 12.5: tie layer needs depth 5, budget allows 3"
    assert built == []


def test_axioms_check_pinv_calls_flat_in_samples(monkeypatch):
    proto = cube_sphere_protocol(2)
    rng = np.random.default_rng(5)
    axioms_check(proto, 3.0, interior_samples(proto, 1, rng))
    calls = []
    original = ratlin.pinv

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ratlin, "pinv", counted)
    for count in (1, 6):
        axioms_check(proto, 3.0, interior_samples(proto, count, rng))
        assert not calls


# --- residuals under refinement -----------------------------------------------------------


def test_a1_residual_shrinks_with_fd_step():
    proto = cube_sphere_protocol(2)
    rng = np.random.default_rng(17)
    samples = interior_samples(proto, 5, rng, margin=5e-3)
    coarse = axioms_check(proto, 5.0, samples, fd_step=1e-3, tol=1.0)
    fine = axioms_check(proto, 5.0, samples, fd_step=1e-5, tol=1.0)
    assert fine.continuity < coarse.continuity


def test_residual_shrinks_under_quadrature_refinement():
    proto = cube_sphere_protocol(2)
    coarse = cochain_chain_map_defect(jan_cochain(proto, 12.0, tol=1e-3))
    fine = cochain_chain_map_defect(jan_cochain(proto, 12.0, tol=1e-10))
    assert fine < coarse


# --- large beta on the triangle graph ----------------------------------------------------
# Three cells per level: the normal equations of the weighted
# pseudoinverses are singular to working precision from beta 37 on at
# level weights (0, 1, 2).  The tree sums stay bounded.

TRIANGLE = gap_complex(loads_complex(json.dumps({
    "name": "triangle", "cells": [["a", "b", "c"], ["ab", "bc", "ca"]],
    "boundary": [[[-1, 0, 1], [1, -1, 0], [0, 1, -1]]]})), 0, 1)
LEVEL_WEIGHTS = (0.0, 1.0, 2.0)
LARGE_BETAS = (37.0, 100.0, 1000.0)


def triangle_protocol():
    """Level weights (0, 1, 2) at the first vertex; along the edge every
    gap between weights of one level stays at least 1."""
    return simplicial_protocol(
        gap=TRIANGLE, vertex_ids=("A", "B"),
        level_weights=levels_of(((LEVEL_WEIGHTS, LEVEL_WEIGHTS),
                                 ((0.0, 1.5, 3.0), (0.0, 1.0, 2.5)))),
        simplices=((0,), (1,), (0, 1)))


@pytest.mark.parametrize("beta", LARGE_BETAS)
def test_triangle_pseudoinverses_at_large_beta(beta):
    ctx = _context(TRIANGLE)
    w = np.array(LEVEL_WEIGHTS)
    k0, k1 = (kirchhoff_pseudoinverse(TRIANGLE, w, beta, j) for j in (0, 1))
    assert np.all(np.isfinite(k0)) and np.all(np.isfinite(k1))
    # d o dagger is the identity on the bounds, in both degrees
    assert np.allclose(-k0 @ ctx.bounds[0], np.eye(2), atol=1e-12)
    assert np.allclose(ctx.d[1] @ k1, ctx.bounds[0], atol=1e-12)
    # every other tree weighs e^(-beta) or less: the sum is the greedy
    # tree's exact right inverse
    for j, tree_sum in enumerate((k0, k1)):
        tree = forests.greedy_dtree(TRIANGLE, j, dict(zip(TRIANGLE.parent.cells[j], w)))
        assert float(np.max(np.abs(tree_sum - tree.right_inverse.to_float()))) <= 1e-12
    # the degree-0 blocks are alpha0 = I + B K_0: idempotent, the identity on H0
    vertex_a, = jan_integrate(triangle_protocol(), beta, [(0,)])
    assert np.allclose(vertex_a, np.eye(3) + ctx.bounds[0] @ k0, atol=1e-12)
    assert np.allclose(vertex_a @ vertex_a, vertex_a, atol=1e-12)
    cls = ctx.h0_class @ (vertex_a @ ctx.h0_basis)
    assert np.allclose(cls[ctx.nb[0]:], np.eye(1), atol=1e-12)


@pytest.mark.parametrize("beta", LARGE_BETAS)
def test_triangle_forms_and_axioms_at_large_beta(beta):
    proto = triangle_protocol()
    coords = np.array([[0.0], [0.3], [1.0]])
    alpha0 = jan_form(proto, beta, (0, 1), coords, [], 0)
    assert alpha0.shape == (3, 3, 3) and np.all(np.isfinite(alpha0))
    report = axioms_check(proto, beta, [((0, 1), (0.3,)), ((0, 1), (0.7,))])
    assert report.max_residual <= 1e-5 and not report.violations
    for t in coords:
        flow = current_form(proto, ((0, 1), t), [1.0], beta)
        assert flow.shape == (3,) and np.all(np.isfinite(flow))
