"""The analytical current forms and their integration.

Everything here is floating point.  Every weighted pseudoinverse in the
Boltzmann metric e^(beta * weight) takes one route: the convex
combination of the per-tree right inverses with weights
tau^2 e^(-beta W_T) (Kirchhoff's tree sum), which stays bounded whatever
the weights.  At the bottom level the trees are co-trees and the sum
K_0 is minus the weighted left inverse of the bounds inclusion, so the
degree-0 form is alpha0 = I + B K_0.  The normal equations of the same
operators live only in the tests, as the oracle the tree sums are
checked against.

Degree-l forms are evaluated in closed form through orchard sums.  The
summand is multilinear in the per-level tree choice, so the sum over
orchards is factored level by level: the Kirchhoff operator
K = sum_T rho_T R_T at the top level and its derivatives
D(v) = sum_T (drho_T . v) R_T below it, antisymmetrized over the frame.
Each level's trees sit in one table; one gather-sum gives their weights
and one softmax rho, and the point form and the quadrature share one
evaluator, which computes drho only below the top level.
The Boltzmann kernel is tree-major: rho keeps the tree index on its
leading axis, so the softmax's max and sum over trees and every
broadcast against per-tree data run with the node axis innermost.  Its
bits are those of the tree-last kernel: the tree sum adds in numpy's
order for a last axis of that length (_tree_axis_sum), and the matmuls
that contract trees, whose rounding depends on operand layout, are
handed tree-last arrays (drho is laid out trees innermost).
The Stokes map integrates the forms over simplices with a degree-5 rule
plus edgewise dyadic refinement; the quadrature geometry depends only on
the simplex dimension and the depth and is cached per process.  The
integration is stacked: all simplices of one dimension at one beta share
the depth loop, their vertex tree weights are computed once, and each
depth is one form evaluation over the still-unconverged simplices, in
blocks of at most _BLOCK simplices times nodes, or of one simplex whose
nodes alone exceed it.  A block's per-node passes (rho, drho and the
orchard's tree contractions) run on chunks of at most _BLOCK simplices
times nodes and write node-axis buffers; each node sum is one matmul
over all of the block's nodes, so the chunks leave every bit as it is.
A simplex leaves the stack when its own two last depths agree at or past
its tie floor (_tie_depths), and the depth loop stops short of a batch of
more than _NODE_BUDGET nodes per simplex; a floor past the depth the loop
can reach raises before any form is evaluated.  The point form takes a stack of points: each is its
simplex's vertex geometry moved to it, so the stack is the one-node case
of the same evaluator, and each point rounds as it does alone on its frame.
The axiom check makes one such call per degree and zeta over its samples.
Exponentials are always shifted by the per-level extremum before
exponentiation so large beta stays finite.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import ratlin
from .complex_core import GapComplex
from .errors import BadFrame, NonfiniteBeta, NonpositiveBeta, QuadratureNoConvergence
from .forests import enumerate_dtrees
from .protocol import _permutation_signs
from .topo_hyper import HyperCochain, _placed, cochain_chain_map_defect, hypercurrent_homology

__all__ = [
    "kirchhoff_pseudoinverse",
    "jan_form",
    "jan_integrate",
    "jan_cochain",
    "axioms_check",
    "AxiomReport",
    "quantization_sweep",
    "SweepReport",
    "SweepRow",
    "interior_samples",
    "simplex_rule",
    "edgewise_pieces",
]


def _check_beta(beta):
    if not math.isfinite(beta):
        raise NonfiniteBeta(f"beta = {beta}")
    if beta <= 0:
        raise NonpositiveBeta(f"beta = {beta}")


# --- cached float context per gap complex -----------------------------------


class _TreeTable(NamedTuple):
    """The d-trees of one parent level, side by side."""

    trees: tuple            # the DTrees, in enumeration order
    idx: np.ndarray         # (ntrees, cells per tree) parent cell indices
    log_tau2: np.ndarray    # (ntrees,) 2 log torsion
    rinv: np.ndarray        # (ntrees, rows, cols) float right inverses


class _Context:
    # float copies of the gap's exact data and a table of its trees per
    # level; built once per gap and kept in the gap's memo
    def __init__(self, gap: GapComplex):
        top = gap.top
        self.d = [None] + [gap.d(j).to_float() for j in range(1, top + 1)]
        self.exact_bounds = [h.bounds for h in gap.homology]
        self.bounds = [b.to_float() for b in self.exact_bounds]
        self.nb = [b.shape[1] for b in self.exact_bounds]
        self.zeta_std = [ratlin.pinv(b).to_float() for b in self.exact_bounds]
        self.cycles = [h.cycles.to_float() for h in gap.homology]
        self.trees = {}
        for d_level in range(gap.p, gap.q + 1):
            trees = tuple(enumerate_dtrees(gap, d_level))
            self.trees[d_level] = _TreeTable(
                trees=trees,
                idx=np.array([[gap.parent.cell_index(d_level, nm) for nm in t.cells]
                              for t in trees], dtype=int),
                log_tau2=np.array([2.0 * math.log(t.torsion) for t in trees]),
                rinv=np.stack([t.right_inverse.to_float() for t in trees]),
            )
        self.factors_std = self._factors(self.zeta_std)
        # class extraction, float copies of the exact class maps: the top
        # degree for sweeps, degree 0 for axiom A3
        self.top_class = gap.homology[top].class_map.to_float()
        self.top_nb = self.nb[top]
        self.hq_project = None if gap.hq_project is None else gap.hq_project.to_float()
        self.h0_basis = gap.homology[0].hbasis.to_float()
        self.h0_class = gap.homology[0].class_map.to_float()

    def _factors(self, zetas):
        # the orchard sum's operators below its top level for one zeta
        # choice: R_0 (minus the co-tree projection), then Z_j R_T
        rinv = [table.rinv for table in self.trees.values()][:-1]
        return rinv[:1] + [zetas[j] @ rinv[j] for j in range(1, len(rinv))]

    # the alternative bounds left inverse is read only by the axiom check
    @functools.cached_property
    def zeta_alt(self):
        return [ratlin.left_inverse(b).to_float() for b in self.exact_bounds]

    @functools.cached_property
    def factors_alt(self):
        return self._factors(self.zeta_alt)


def _context(gap: GapComplex) -> _Context:
    return gap.derived("float_context", lambda: _Context(gap))


# --- the Kirchhoff tree sums ---------------------------------------------------


def _tree_weights(table, w):
    """W_T: the sum of w (..., ncells) over each tree's cells, in cell
    order, (..., ntrees)."""
    out = np.zeros(w.shape[:-1] + (len(table.trees),))
    for c in range(table.idx.shape[1]):
        out = out + w[..., table.idx[:, c]]
    return out


def _tree_axis_sum(x):
    """x summed over its leading (tree) axis in the order numpy sums a last
    axis of that length: one by one below 8 terms, in 8 lanes up to 128,
    by halves above.  The node axes stay innermost and the bits are those
    of x.sum(axis=-1) on the tree-last layout."""
    n = len(x)
    if n < 8:
        return np.add.reduce(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _tree_axis_sum(x[:half]) + _tree_axis_sum(x[half:])
    lanes = x[:8].copy()
    for i in range(8, n - n % 8, 8):
        lanes += x[i:i + 8]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + \
        ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for i in range(n - n % 8, n):
        total += x[i]
    return total


def _tree_distribution(table, wt, beta):
    """Tree weights tau^2 e^(-beta W_T), normalized over the leading tree
    axis after a shift by the largest log so large beta stays finite.
    log tau^2 broadcasts along the last axis of the transposed view."""
    logs = (table.log_tau2 - beta * wt.T).T
    logs -= np.maximum.reduce(logs)
    expd = np.exp(logs, out=logs)
    expd /= _tree_axis_sum(expd)
    return expd


def kirchhoff_pseudoinverse(gap: GapComplex, w, beta, j):
    """The weighted pseudoinverse in the metric e^(beta w): the convex
    combination of tree right inverses with weights tau^2 e^(-beta W_T),
    from bounds coordinates one degree down to chains.  For j = 0 it is
    minus the weighted left inverse of the bounds inclusion, through
    co-trees.  Weights (..., n) give a stack (..., rows, cols), one
    matmul per item, so each item rounds as it does alone."""
    _check_beta(beta)
    ctx = _context(gap)
    if j < 0 or j > gap.top:
        raise ValueError("degree out of range")
    table = ctx.trees[j + gap.p]
    wt = _tree_weights(table, np.asarray(w, dtype=float))
    rho = _tree_distribution(table, wt.T, beta).T
    ntrees, rows, cols = table.rinv.shape
    out = rho[..., None, :] @ table.rinv.reshape(ntrees, rows * cols)
    return out.reshape(wt.shape[:-1] + (rows, cols))


def _alpha0(gap, w, beta):
    """The degree-0 form alpha0 = I + B K_0 at level-p weights (..., n)."""
    b0 = _context(gap).bounds[0]
    return np.eye(len(b0)) + b0 @ kirchhoff_pseudoinverse(gap, w, beta, 0)


# --- protocol geometry ---------------------------------------------------------


def _vertex_rows(proto, keys, level):
    """One level's weight vectors at the vertices of each simplex of a
    stack of one dimension, (M, nv, ncells): one gather from the
    protocol's weight array of that level."""
    return proto.level_weights[level - proto.gap.p][np.asarray(keys, dtype=np.intp)]


def _at_points(base, grads, points):
    """Affine data of a stack of simplices, base (M, k) at the first vertex
    and grads (M, jdim, k), at one point (M, jdim) of each."""
    return base + (points[:, None, :] @ grads)[:, 0]


def _point_weights(proto, keys, level, points):
    """One level's cell weights at one point of each simplex, (M, ncells)."""
    vw = _vertex_rows(proto, keys, level)
    return _at_points(vw[:, 0], vw[:, 1:] - vw[:, :1], points)


def _vertex_geometry(ctx, proto, keys, levels):
    """Per level: the tree weights at the first vertex of each simplex,
    (I, ntrees), and their gradients in the simplices' affine coordinates,
    (I, jdim, ntrees).  Tree weights are affine on a simplex, so these fix
    them everywhere."""
    geos = []
    for level in levels:
        wt = _tree_weights(ctx.trees[level], _vertex_rows(proto, keys, level))
        base = wt[:, 0]
        geos.append((base, wt[:, 1:] - base[:, None, :]))
    return geos


def _rho_at_nodes(table, geo, beta, nodes):
    """Tree distribution at each node of each simplex, tree-major
    (ntrees, I, N), from the simplices' vertex geometry (base, grads)."""
    base, grads = geo
    # the matmul keeps its tree-last layout; the given tree-major out makes
    # the add run over the nodes (an allocated result would follow the
    # matmul and run over the trees)
    wt = np.empty((grads.shape[2], len(base), len(nodes)))
    np.add(base.T[:, :, None], (nodes @ grads).transpose(2, 0, 1), out=wt)
    return _tree_distribution(table, wt, beta)


def _drho(rho, grads, beta):
    """Exact differential of the tree distribution rho (ntrees, I, N),
    (I, N, ntrees, jdim) with the trees innermost in memory:
    d rho_T = beta * [ sum_a rho_T rho_a dW_a - rho_T dW_T ].
    A matmul rounds by the memory order of its operands, so the ones that
    contract trees (here and in the orchard sum) get the tree-last layout;
    the broadcasts write through tree-major views, over the nodes."""
    ntrees, items, n = rho.shape
    jdim = grads.shape[1]
    # a ufunc copy runs over the nodes, an assignment over the trees
    tree_last = np.empty((items, n, ntrees))
    np.positive(rho, out=tree_last.transpose(2, 0, 1))
    mean_dw = tree_last @ grads.swapaxes(1, 2)
    del tree_last       # before the broadcasts allocate the largest arrays
    diff = np.empty((ntrees, items, jdim, n))
    np.subtract(mean_dw.transpose(0, 2, 1), grads.transpose(2, 0, 1)[..., None], out=diff)
    out = np.empty((items, n, jdim, ntrees))
    np.multiply((beta * rho)[:, :, None], diff, out=out.transpose(3, 0, 2, 1))
    return out.swapaxes(2, 3)


# --- the form and its integrals -------------------------------------------------


def _form(ctx, p, beta, geos, nodes, wts, zeta, along=None):
    """Weighted node sum of the degree-ell form on a stack of simplices of
    one dimension, (I, rows, cols).  geos[j] is the simplices' vertex
    geometry at level p + j, for j = 0 .. ell.  The per-node passes run on
    chunks of whole rule pieces, at most _BLOCK simplices times nodes each:
    rho at the top level, its differential along the frame columns `along`
    (jdim, ell), or (I, jdim, ell) one frame per simplex (the coordinate
    axes when None), below it, and the orchard's per-node
    factors (_orchard_sum), which each chunk writes into node-axis
    buffers of the stack.  Each node sum is then one matmul per simplex
    over all of its nodes, so the chunking leaves every bit as it is."""
    ell = len(geos) - 1
    factors = ctx.factors_std if zeta == "standard" else ctx.factors_alt
    top = ctx.trees[p + ell]
    signed = _signed_permutations(ell)
    items, n = len(geos[0][0]), len(nodes)
    _, rows, inner = top.rinv.shape
    kirch = np.empty((items, n, rows, inner))
    chains = np.empty((len(signed), items, n, inner, factors[0].shape[2]))
    # a multiple of the rule's nodes, so no chunk holds one node (a
    # one-node tree sum rounds as gemv, not as gemm)
    piece = _rule_size(nodes.shape[1])
    size = max(1, _BLOCK // (items * piece)) * piece
    for lo in range(0, n, size):
        at = slice(lo, lo + size)
        chunk = nodes[at]
        drhos = []
        for j in range(ell):
            drho = _drho(_rho_at_nodes(ctx.trees[p + j], geos[j], beta, chunk), geos[j][1], beta)
            drhos.append(drho if along is None else drho @ along[..., None, :, :])
        rho_top = _rho_at_nodes(top, geos[ell], beta, chunk)
        _orchard_sum(top, factors, signed, rho_top, drhos, wts[at], kirch[:, at], chains[:, :, at])
    # a view when inner is 1: a matmul rounds by its operands' layout, and
    # the per-simplex oracles pin this one
    kirch = kirch.transpose(0, 2, 1, 3).reshape(items, rows, n * inner)
    value = np.zeros((items, rows, factors[0].shape[2]))
    for (_, sign), chain in zip(signed, chains):
        value += sign * (kirch @ chain.reshape(items, n * inner, -1))
    return value


def jan_form(proto, beta, key, coords, frame, ell, zeta="standard"):
    """Closed-form evaluation of the degree-ell current form at a point
    of a simplex, on a frame of ell tangent vectors (affine coordinates).
    A stack of points, coords (M, jdim) in key or in each of a sequence
    of M simplices of one dimension, gives values with a leading axis M:
    tree weights are affine on a simplex, so each point is its simplex's
    vertex geometry moved there, and the stack is one form evaluation at
    one node.  The frame is shared, or an array (M, ell, jdim) gives each
    point its own.  Returns the value, (rows, cols) for one point and
    (M, rows, cols) for a stack."""
    _check_beta(beta)
    gap = proto.gap
    ctx = _context(gap)
    coords = np.asarray(coords, dtype=float)
    points = np.atleast_2d(coords)
    try:    # one simplex for every point, or one per point
        keys = np.array(key, dtype=np.intp)
        keys = np.broadcast_to(keys, (len(points), keys.shape[-1]))
    except ValueError:
        raise ValueError("need one point per simplex, all simplices of one dimension") from None
    jdim = keys.shape[1] - 1
    try:    # ell vectors for every point, or one frame per point
        frames = np.asarray(frame, dtype=float) if len(frame) else np.empty((0, jdim))
    except ValueError:      # vectors of unequal lengths
        frames = np.empty(0)
    if frames.shape[-2:] != (ell, jdim) or frames.shape[:-2] not in ((), (len(points),)):
        raise BadFrame(f"need {ell} frame vectors of {jdim} coordinates, or such a frame per point")
    if ell == 0:
        value = _alpha0(gap, _point_weights(proto, keys, gap.p, points), beta)
    else:
        geos = [(_at_points(base, grads, points), grads) for base, grads in
                _vertex_geometry(ctx, proto, keys, range(gap.p, gap.p + ell + 1))]
        value = _form(ctx, gap.p, beta, geos, np.zeros((1, jdim)), np.ones(1), zeta,
                      along=frames.swapaxes(-1, -2))
    return value[0] if coords.ndim == 1 else value


def _tree_sum(coeffs, ops):
    """sum_T coeffs[..., T] ops[T], as one matmul over every leading index.
    With one node per item (point forms) it is one matmul per item, so each
    point of a stack rounds as it does alone: BLAS rounds a one-row product
    (gemv) differently from a row of a larger one (gemm)."""
    ntrees = ops.shape[0]
    rows = (len(coeffs), -1, ntrees) if coeffs.shape[1] == 1 else (-1, ntrees)
    out = coeffs.reshape(rows) @ ops.reshape(ntrees, -1)
    return out.reshape(coeffs.shape[:-1] + ops.shape[1:])


def _orchard_sum(top, factors, signed, rho_top, drhos, wts, kirch, chains):
    """The degree-ell orchard sum, factored per level, at each node of one
    chunk of a stack of simplices, written into kirch (I, N, rows, inner)
    and chains (ell!, I, N, inner, cols).

    rho_top: (ntrees, I, N) at the top level; drhos[j]: (I, N, ntrees,
    ell), the tree-weight differentials j levels above the bottom along
    the ell frame vectors; wts: (N,).  The orchard summand rho_T det(drho . v) R_ell Z
    ... R_0 is multilinear in the tree chosen per level, so the sum over
    orchards is
    sum_sigma sgn(sigma) K Z D_{ell-1}(v_sigma(0)) ... Z D_1 D_0(v_sigma(ell-1))
    with K = sum_T rho_T R_T and D_j(v) = sum_T (drho_T . v) R_T per node.
    kirch receives the node-weighted K, chains[s] the chain product of
    the permutation signed[s]; _form sums them over the nodes.
    """
    ell = len(drhos)
    # node weights times rho, computed over the nodes and written tree-last
    # for the matmul
    weighted = np.empty(rho_top.shape[1:] + rho_top.shape[:1])
    np.multiply(rho_top, wts, out=weighted.transpose(2, 0, 1))
    kirch[...] = _tree_sum(weighted, top.rinv)
    derivs = [_tree_sum(dr.swapaxes(2, 3), f) for dr, f in zip(drhos, factors)]
    for (perm, _), chain in zip(signed, chains):
        product = derivs[0][:, :, perm[-1]]
        for j in range(1, ell):
            product = derivs[j][:, :, perm[ell - 1 - j]] @ product
        chain[...] = product


@functools.lru_cache(maxsize=8)
def _signed_permutations(ell):
    """The permutations of range(ell), each with its sign."""
    perms = np.array(list(itertools.permutations(range(ell))), dtype=np.intp)
    return tuple(zip(map(tuple, perms.tolist()), _permutation_signs(perms).tolist()))


# --- quadrature -----------------------------------------------------------------


def simplex_rule(n):
    """Degree-5 rule (2s+1 with s = 2) on the standard n-simplex; returns
    barycentric points (P, n+1) and weights summing to one."""
    s, d = 2, 5
    pts = []
    wts = []
    for i in range(s + 1):
        denom = d + n - 2 * i
        coeff = (-1) ** i * 2.0 ** (-2 * s) * denom ** d / (
            math.factorial(i) * math.factorial(d + n - i)
        )
        for k in itertools.combinations_with_replacement(range(n + 1), s - i):
            counts = [0] * (n + 1)
            for idx in k:
                counts[idx] += 1
            pts.append([(2 * c + 1) / denom for c in counts])
            wts.append(coeff)
    w = np.asarray(wts)
    w = w / w.sum()
    return np.asarray(pts), w


def edgewise_pieces(n, depth):
    """Vertex matrices of the 2^depth-fold edgewise subdivision of the
    standard n-simplex, all of equal volume, as a (pieces, n+1, n) array."""
    r = 2 ** depth
    if n == 0:
        return np.zeros((1, 1, 0))
    # the sorted cube picture: y_1 >= y_2 >= ... >= y_n, mapped to the
    # standard simplex by t_m = y_m - y_{m+1}.  Each cube of the r^n grid
    # (base corner, in lexicographic order) splits into n! monotone chains
    # (one unit step per axis, permutations in lexicographic order); the
    # piece is the chain whose barycentre is sorted.  Barycentres are
    # compared through their vertex sums, which are exact integers.
    bases = np.indices((r,) * n).reshape(n, -1).T
    perms = np.array(list(itertools.permutations(range(n))))
    steps = np.zeros((len(perms), n + 1, n), dtype=int)
    for k in range(n):
        steps[:, k + 1] = steps[:, k]
        steps[np.arange(len(perms)), k + 1, perms[:, k]] += 1
    sums = (n + 1) * bases[:, None, :] + steps.sum(axis=1)[None, :, :]
    base_at, perm_at = np.nonzero((sums[:, :, :-1] >= sums[:, :, 1:]).all(axis=2))
    ys = (bases[base_at, None, :] + steps[perm_at]).astype(float) / r
    ts = ys.copy()
    ts[:, :, :-1] -= ys[:, :, 1:]
    return ts


# Bytes of node batches kept for reuse.  A quantize op set needs under
# 2 MB; one batch of the 3-simplex at depth 5 takes 16 MB, at depth 6
# 126 MB, more than is worth keeping for the life of the process.
_NODE_CACHE_BYTES = 32 * 2 ** 20
_node_cache = collections.OrderedDict()     # (jdim, depth) -> (nodes, weights)


def _node_batches(jdim, depth):
    """All quadrature nodes of one refinement depth with their weights,
    read-only.  They depend on nothing else, so they are kept for reuse,
    the least recently used leaving first once the kept batches exceed
    _NODE_CACHE_BYTES; a batch larger than that is not kept."""
    key = (jdim, depth)
    if key in _node_cache:
        _node_cache.move_to_end(key)
        return _node_cache[key]
    bary, w = simplex_rule(jdim)
    pieces = edgewise_pieces(jdim, depth)
    vol = (1.0 / math.factorial(jdim)) / len(pieces)
    nodes = np.einsum("pv,kvd->kpd", bary, pieces).reshape(-1, jdim)
    weights = np.tile(w * vol, len(pieces))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    if nodes.nbytes + weights.nbytes > _NODE_CACHE_BYTES:
        return nodes, weights
    _node_cache[key] = (nodes, weights)
    while sum(a.nbytes for kept in _node_cache.values() for a in kept) > _NODE_CACHE_BYTES:
        _node_cache.popitem(last=False)
    return nodes, weights


@functools.lru_cache(maxsize=8)
def _rule_size(jdim):
    """Nodes of simplex_rule on the jdim-simplex, one rule piece."""
    return len(simplex_rule(jdim)[1])


# Simplices times nodes in one per-node pass of a form evaluation: every
# array of a pass then holds at most _BLOCK times a per-node size fixed by
# the gap (trees, frame vectors, operator shape), whatever the depth.  A
# simplex whose nodes alone exceed it is evaluated by itself and its passes
# run over chunks of its nodes; only the node-sum buffers, a few floats per
# node, span all of its nodes, since splitting a node sum would change the
# float result.
_BLOCK = 4096
# Nodes per simplex in one depth's batch, beyond which the depth loop stops
# rather than build the batch: 2^22 admits the 3-simplex at depth 6
# (3 932 160 nodes, about 0.5 GB of node-sum buffers on the cube spheres).
_NODE_BUDGET = 2 ** 22


def _tie_depths(geos, beta, tol):
    """Each simplex's floor: the least depth d with R = beta 2^-d s at most
    (tol / 1e-8)^(1/6), the e-folds of a tree ratio one piece edge may span
    where the degree-5 rule still meets tol.  s is the largest steepness
    (range over the vertices) of a level's tree-weight difference that
    changes sign over the simplex's vertices: tree weights are affine, so
    such a pair ties inside the simplex, in a layer of width 1/(beta s).
    Where a level below the top has no such pair, the form is damped by
    that level's Boltzmann gap and R is 0.  The floor bounds a tie's slope
    as the vertices see it, not the quadrature error: it misses a pair that
    comes within a few 1/beta of a tie at a vertex without crossing, and
    it counts crossings of trees that never lead, which costs depth."""
    steep = []
    for base, grads in geos:
        wt = np.concatenate([base[:, None], base[:, None] + grads], axis=1)
        diff = wt[:, :, :, None] - wt[:, :, None, :]      # (simplices, vertices, trees, trees)
        lo, hi = diff.min(axis=1), diff.max(axis=1)
        steep.append(((hi - lo) * (lo * hi < 0)).max(axis=(1, 2)))
    ratio = beta * np.max(steep, axis=0) * np.all(steep[:-1], axis=0) / (tol / 1e-8) ** (1 / 6)
    return np.ceil(np.log2(np.maximum(ratio, 1))).astype(int)


def _integrate_stack(ctx, proto, beta, keys, tol, max_depth):
    """Dyadic Stokes integrals of simplices of one dimension, stacked: one
    form evaluation per depth and block of still-active simplices.  Each
    simplex leaves once two depths agree within tol, at a depth no less
    than its floor (_tie_depths); returns the blocks as one array
    (simplices, rows, cols), NaN for the simplices that never converged,
    and why each of those failed, by its place in keys.  The depth loop
    stops short of max_depth where the next batch would exceed
    _NODE_BUDGET nodes per simplex; where some floor lies deeper than the
    loop can reach, the stack returns those simplices as failed before any
    form is evaluated."""
    p = proto.gap.p
    jdim = proto.dim_of(keys[0])
    geos = _vertex_geometry(ctx, proto, keys, range(p, p + jdim + 1))
    out = np.full((len(keys), proto.gap.dim_at(jdim), proto.gap.dim_at(0)), np.nan)
    deepest = max_depth
    while _rule_size(jdim) * 2 ** (deepest * jdim) > _NODE_BUDGET:
        deepest -= 1
    floors = _tie_depths(geos, beta, tol)
    if (floors > deepest).any():
        return out, {i: f" at beta {beta}: tie layer needs depth {floors[i]}, budget allows {deepest}"
                     for i in np.flatnonzero(floors > deepest).tolist()}
    active = np.arange(len(keys))
    prev = None
    for depth in range(deepest + 1):
        nodes, wts = _node_batches(jdim, depth)
        step = max(1, _BLOCK // len(wts))
        est = np.concatenate([
            _form(ctx, p, beta, [(base[lo:lo + step], grads[lo:lo + step]) for base, grads in geos],
                  nodes, wts, "standard")
            for lo in range(0, len(active), step)])
        if prev is not None:
            done = (np.max(np.abs(est - prev), axis=(1, 2)) < tol) & (floors[active] <= depth)
            out[active[done]] = est[done]
            active, est = active[~done], est[~done]
            geos = [(base[~done], grads[~done]) for base, grads in geos]
            if not len(active):
                break
        prev = est
    budget = "" if deepest == max_depth else (
        f": depth {deepest + 1} would exceed the budget of {_NODE_BUDGET} nodes per simplex")
    why = f": no convergence within depth {deepest} at tol {tol}{budget}"
    return out, dict.fromkeys(active.tolist(), why)


def _integrate_by_dim(proto, beta, rows, tol, max_depth, places):
    """jan_integrate's checks and blocks, one array per item of rows (the
    simplices' vertex rows, one dimension each, ascending); of those that
    never converge, the error names the first by places, in caller order."""
    _check_beta(beta)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    gap = proto.gap
    ctx = _context(gap)
    if any(len(simplices[0]) - 1 > gap.top for simplices in rows):
        raise ValueError("simplex dimension exceeds the gap width")
    out, missed = [], []     # missed: (place, vertex row, why)
    for simplices, at in zip(rows, places):
        if len(simplices[0]) == 1:
            stack = _alpha0(gap, _vertex_rows(proto, simplices, gap.p)[:, 0], beta)
        else:
            stack, left = _integrate_stack(ctx, proto, beta, simplices, tol, max_depth)
            missed += [(at[i], simplices[i], why) for i, why in left.items()]
        out.append(stack)
    if missed:
        _, row, why = min(missed, key=lambda m: m[0])
        key = tuple(row.tolist()) if isinstance(row, np.ndarray) else row
        raise QuadratureNoConvergence(f"simplex {key}{why}")
    return out


def jan_integrate(proto, beta, keys, tol=1e-8, max_depth=8):
    """Stokes-map values on a list of simplices, in their order: the
    integral of each one's pulled-back degree-(dim) form, refined
    dyadically until two depths agree within tol, which must be finite
    and positive.  The simplices are vertex tuples, or an array of vertex
    rows of one dimension.  Simplices of one dimension are integrated
    together (see _integrate_stack)."""
    keys = keys if isinstance(keys, np.ndarray) else [tuple(key) for key in keys]
    places = [[i for i, key in enumerate(keys) if len(key) == n] for n in sorted(set(map(len, keys)))]
    stacks = _integrate_by_dim(proto, beta, [[keys[i] for i in at] for at in places], tol,
                               max_depth, places)
    got = {i: block for at, stack in zip(places, stacks) for i, block in zip(at, stack)}
    return [got[i] for i in range(len(keys))]


def jan_cochain(proto, beta, tol=1e-8, max_depth=8) -> HyperCochain:
    """The analytical cochain: every cell of dimension at most the gap
    width gets the Stokes-map integral as its operator block, one stack
    per dimension in cell_index order."""
    rows = proto.cell_index.rows[:proto.gap.top + 1]
    places = [range(a, a + len(r)) for a, r in zip(proto.cell_index.offsets, rows)]
    stacks = _integrate_by_dim(proto, beta, rows, tol, max_depth, places)
    return HyperCochain(gap=proto.gap, domain=proto, stacks=stacks)


# --- axiom checking -----------------------------------------------------------


def interior_samples(proto, count, rng, margin=1e-3):
    """Random points in top-simplex interiors: (key, coords) pairs."""
    tops = proto.simplices_of_dim(proto.dim)
    out = []
    for _ in range(count):
        key = tops[rng.integers(len(tops))]
        raw = rng.random(len(key)) + margin
        bary = raw / raw.sum()
        bary = (1 - (len(key)) * margin) * bary + margin
        out.append((key, tuple(bary[1:] / 1.0)))
    return out


@dataclass
class AxiomReport:
    continuity: float = 0.0       # A1, against a finite-difference derivative
    orthogonality: float = 0.0    # A2, modified-metric pairings with cycles
    initial_value: float = 0.0    # A3, induced map on degree-0 homology
    zeta_independence: float = 0.0
    samples: int = 0
    violations: list = field(default_factory=list)

    @property
    def max_residual(self):
        return max(self.continuity, self.orthogonality, self.initial_value)


def axioms_check(proto, beta, samples, fd_step=1e-5, tol=1e-5):
    """Continuity / orthogonality / initial-value residuals at sample
    points, plus independence of the orchard sums from the choice of the
    bounds left-inverse.  The samples of one dimension are checked
    together, with one stacked jan_form per degree and zeta; a
    residual that is not finite is a violation and its report field's
    value.  fd_step and tol must be finite and positive."""
    if not (math.isfinite(fd_step) and fd_step > 0):
        raise ValueError(f"fd_step must be finite and positive, got {fd_step}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    gap = proto.gap
    ctx = _context(gap)
    resids = collections.defaultdict(lambda: [[0.0]])   # field -> per-point residual arrays
    found = [[] for _ in samples]                       # violations per sample, in check order
    dims = [proto.dim_of(key) for key, _ in samples]
    for jdim in sorted(set(dims)):
        pos = [i for i, d in enumerate(dims) if d == jdim]
        keys = np.array([samples[i][0] for i in pos], dtype=np.intp)
        x = np.array([samples[i][1] for i in pos], dtype=float)
        eye = np.eye(jdim)
        top = min(jdim, gap.top)

        def check(axiom, name, ell, resid):
            resids[name].append(resid)
            for i, r in zip(pos, resid):
                if not r <= tol:
                    found[i].append((axiom, *samples[i], ell, float(r)))

        # one standard-zeta stack per degree ell: the values on each frame
        # of ell coordinate axes at x, then the finite-difference points of
        # degree ell + 1, x moved up and down each axis a frame drops
        values, diffs = {}, {}
        for ell in range(top + 1):
            frames = list(itertools.combinations(range(jdim), ell))
            moves = [(axes, drop) for axes in itertools.combinations(range(jdim), ell + 1)
                     for drop in axes] if ell < top else []
            pts = [x] * len(frames) + [x + step * eye[drop] for _, drop in moves
                                       for step in (fd_step, -fd_step)]
            subs = frames + [tuple(a for a in axes if a != drop) for axes, drop in moves
                             for _ in ("up", "down")]
            stack = jan_form(proto, beta, np.tile(keys, (len(pts), 1)), np.concatenate(pts),
                             np.repeat(eye[np.array(subs, dtype=np.intp)], len(x), axis=0), ell)
            stack = stack.reshape(len(pts), len(x), *stack.shape[1:])
            values.update(zip(frames, stack))
            up, dn = stack[len(frames)::2], stack[len(frames) + 1::2]
            diffs.update(zip(moves, (up - dn) / (2 * fd_step)))
        # A1: boundary of the degree-l value equals the exterior
        # derivative of the degree-(l-1) value, componentwise
        for ell in range(1, top + 1):
            for axes in itertools.combinations(range(jdim), ell):
                lhs = ctx.d[ell] @ values[axes]
                rhs = np.zeros_like(lhs)
                for m, drop in enumerate(axes):
                    rhs = rhs + (-1) ** m * diffs[axes, drop]
                check("A1", "continuity", ell, np.max(np.abs(lhs - rhs), axis=(1, 2)))
        # A2: values are orthogonal to cycles (bounds in degree 0) in the
        # modified metric
        for ell in range(top + 1):
            zmat, floor = (ctx.bounds[0], 1.0) if ell == 0 else (ctx.cycles[ell], 1e-30)
            if not zmat.shape[1]:
                continue
            wl = _point_weights(proto, keys, gap.p + ell, x)
            gl = np.exp(beta * (wl - wl.max(axis=1, keepdims=True)))
            val = values[tuple(range(ell))]
            pair = zmat.T @ (gl[:, :, None] * val)
            scale = np.maximum(np.max(np.abs(val), axis=(1, 2)), floor) * gl.max(axis=1)
            check("A2", "orthogonality", ell, np.max(np.abs(pair), axis=(1, 2)) / scale)
        # A3: the degree-0 value induces the identity on homology
        if ctx.h0_basis.shape[1]:
            cls = ctx.h0_class @ (values[()] @ ctx.h0_basis)
            check("A3", "initial_value", 0, np.max(
                np.abs(cls[:, ctx.nb[0]:, :] - np.eye(ctx.h0_basis.shape[1])), axis=(1, 2)))
        # independence of the bounds left-inverse choice
        for ell in range(1, top + 1):
            alt = jan_form(proto, beta, keys, x, eye[:ell], ell, zeta="alternative")
            resids["zeta_independence"].append(
                np.max(np.abs(values[tuple(range(ell))] - alt), axis=(1, 2)))
    return AxiomReport(
        samples=len(samples), violations=[v for vs in found for v in vs],
        **{name: float(np.concatenate(resids[name]).max())
           for name in ("continuity", "orthogonality", "initial_value", "zeta_independence")})


# --- quantization ----------------------------------------------------------------


@dataclass
class SweepRow:
    beta: float
    coords: tuple
    distance: float
    residual: float = None    # chain-map defect of the cochain, with residuals=True


@dataclass
class SweepReport:
    topological: tuple
    rows: list
    slope: float


def quantization_sweep(proto, betas, cycle, class_p, tol=1e-8, max_depth=8,
                       fit_range=None, residuals=False):
    """Analytical class per beta against the exact value, with a
    log-linear decay fit over the requested beta range (slope NaN unless
    the range holds two distinct betas).  cycle is a top cycle in either
    form hypercurrent_homology takes; a mapping is read by place once,
    here.  With residuals, each beta integrates the whole analytical
    cochain once: its blocks give the class and its chain-map defect the
    row's residual."""
    if len(betas) == 0:
        raise ValueError("quantization sweep needs at least one beta: the beta list is empty")
    gap = proto.gap
    col = ratlin.QMat.from_rows([[Fraction(c)] for c in class_p], (len(class_p), 1))
    at, coeffs, stray = _placed(proto, cycle)
    cells = proto.cell_index
    # the pairing names a cycle that is no top chain, and reads the others by place
    paired = cycle if stray else (at + cells.offsets[gap.top], coeffs)
    topo = hypercurrent_homology(proto, [paired], col)[0][0].to_float()[:, 0]
    rep = gap.parent_hp.hbasis.to_float() @ np.asarray(class_p, dtype=float)
    ctx = _context(gap)

    def run(beta):
        beta = float(beta)
        if residuals:
            coch = jan_cochain(proto, beta, tol=tol, max_depth=max_depth)
            blocks = coch.stacks[gap.top][at]
            resid = cochain_chain_map_defect(coch)
        else:
            blocks = jan_integrate(proto, beta, cells.rows[gap.top][at], tol=tol, max_depth=max_depth)
            resid = None
        # the class of the analytical top chain, summed in the cycle's order
        chain = np.zeros(ctx.top_class.shape[1])
        for block, coeff in zip(blocks, coeffs):
            chain = chain + float(coeff) * (block @ rep)
        cls = (ctx.top_class @ chain)[ctx.top_nb:]
        if ctx.hq_project is not None:
            cls = ctx.hq_project @ cls
        return SweepRow(beta=beta, coords=tuple(float(c) for c in cls),
                        distance=float(np.linalg.norm(cls - topo)), residual=resid)

    rows = [run(b) for b in betas]
    lo, hi = fit_range if fit_range else (min(betas), max(betas))
    xs = [r.beta for r in rows if lo <= r.beta <= hi and r.distance > 0]
    ys = [math.log(r.distance) for r in rows if lo <= r.beta <= hi and r.distance > 0]
    slope = float("nan")
    if len(set(xs)) >= 2:
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        den = sum((x - xbar) ** 2 for x in xs)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den
    return SweepReport(topological=tuple(float(c) for c in topo), rows=rows, slope=slope)
