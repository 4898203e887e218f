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
The Stokes map integrates the forms over simplices with a degree-5 rule,
and over edges with 5-point Gauss-Legendre (degree 9).  An edge is cut
where a tree pair of either level ties on it, and at a vertex where a
pair comes within ln(1/tol)/beta of a tie, and its mesh is graded
toward those cuts from pieces of R/(beta s) (_edge_meshes,
_graded_breaks), so a layer of width 1/(beta s) costs O(log beta)
pieces; the mesh is then halved level by level until two levels agree
within tol.  Simplices of dimension 2 and up take edgewise dyadic
refinement, whose geometry depends only on the dimension and the depth
and is cached per process.  The integration is stacked: all simplices
of one dimension at one beta share the depth loop, their vertex tree
weights are computed once, and each depth is one form evaluation over
the still-unconverged simplices (for edges, one pass per level over
every piece of every edge, each piece with its own nodes), in blocks of
at most _BLOCK simplices times nodes, or of one simplex whose nodes
alone exceed it.  A block's per-node passes (rho, drho and the
orchard's tree contractions) run on chunks of at most _BLOCK simplices
times nodes and write node-axis buffers; each node sum is one matmul
over all of the block's nodes, so the chunks leave every bit as it is.
A simplex leaves the stack when its own two last depths agree, one of
dimension 2 and up only at or past its tie floor (_tie_depths); the
depth loop stops short of a batch of more than _NODE_BUDGET nodes per
simplex, and a floor past the depth the loop can reach raises before
any form is evaluated.  The point form takes a stack of points: each is
its simplex's vertex geometry moved to it, so the stack is the one-node
case of the same evaluator, and each point rounds as it does alone on
its frame.
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
    (ntrees, I, N), from the simplices' vertex geometry (base, grads);
    nodes (N, jdim) are shared, or (I, N, jdim) each simplex's own."""
    base, grads = geo
    # the matmul keeps its tree-last layout; the given tree-major out makes
    # the add run over the nodes (an allocated result would follow the
    # matmul and run over the trees)
    wt = np.empty((grads.shape[2], len(base), nodes.shape[-2]))
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


def _node_terms(ctx, p, beta, geos, nodes, wts, zeta, along, kirch, chains):
    """The per-node factors of the degree-ell form on a stack of simplices
    of one dimension, written into kirch (I, N, rows, inner) and chains
    (ell!, I, N, inner, cols) (_orchard_sum).  geos[j] is the simplices'
    vertex geometry at level p + j, for j = 0 .. ell; nodes (N, jdim) and
    wts (N,) are shared, or (I, N, jdim) and (I, N) are each simplex's
    own.  The passes run on chunks of whole rule pieces, at most _BLOCK
    simplices times nodes each: rho at the top level, its differential
    along the frame columns `along` (jdim, ell), or (I, jdim, ell) one
    frame per simplex (the coordinate axes when None), below it, and the
    orchard's per-node factors."""
    ell = len(geos) - 1
    factors = ctx.factors_std if zeta == "standard" else ctx.factors_alt
    top = ctx.trees[p + ell]
    signed = _signed_permutations(ell)
    items, n = len(geos[0][0]), nodes.shape[-2]
    # a multiple of the rule's nodes, so no chunk holds one node (a
    # one-node tree sum rounds as gemv, not as gemm)
    piece = _rule_size(nodes.shape[-1])
    size = max(1, _BLOCK // (items * piece)) * piece
    for lo in range(0, n, size):
        at = slice(lo, lo + size)
        chunk = nodes[..., at, :]
        drhos = []
        for j in range(ell):
            drho = _drho(_rho_at_nodes(ctx.trees[p + j], geos[j], beta, chunk), geos[j][1], beta)
            drhos.append(drho if along is None else drho @ along[..., None, :, :])
        rho_top = _rho_at_nodes(top, geos[ell], beta, chunk)
        _orchard_sum(top, factors, signed, rho_top, drhos, wts[..., at], kirch[:, at], chains[:, :, at])


def _node_buffers(ctx, p, ell, zeta, items, n):
    """Empty kirch and chains for _node_terms on items simplices of n nodes."""
    factors = ctx.factors_std if zeta == "standard" else ctx.factors_alt
    _, rows, inner = ctx.trees[p + ell].rinv.shape
    return (np.empty((items, n, rows, inner)),
            np.empty((len(_signed_permutations(ell)), items, n, inner, factors[0].shape[2])))


def _node_sum(kirch, chains, ell):
    """The node sums of the per-node factors (_node_terms), (I, rows,
    cols): one matmul per simplex over all of its nodes."""
    items, n, rows, inner = kirch.shape
    # a view when inner is 1: a matmul rounds by its operands' layout, and
    # the per-simplex oracles pin this one
    kirch = kirch.transpose(0, 2, 1, 3).reshape(items, rows, n * inner)
    value = np.zeros((items, rows, chains.shape[-1]))
    for (_, sign), chain in zip(_signed_permutations(ell), chains):
        value += sign * (kirch @ chain.reshape(items, n * inner, -1))
    return value


def _form(ctx, p, beta, geos, nodes, wts, zeta, along=None):
    """Weighted node sum of the degree-ell form on a stack of simplices of
    one dimension, (I, rows, cols), from its per-node factors
    (_node_terms), which each chunk writes into node-axis buffers of the
    stack.  Each node sum is then one matmul per simplex over all of its
    nodes, so the chunking leaves every bit as it is."""
    ell = len(geos) - 1
    kirch, chains = _node_buffers(ctx, p, ell, zeta, len(geos[0][0]), nodes.shape[-2])
    _node_terms(ctx, p, beta, geos, nodes, wts, zeta, along, kirch, chains)
    return _node_sum(kirch, chains, ell)


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
    the ell frame vectors; wts: (N,), or (I, N).  The orchard summand rho_T det(drho . v) R_ell Z
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
    bary, w = _rule(jdim)
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


# Gauss-Legendre nodes per edge piece.  An edge's mesh is sized by the
# floor's constant R (_reach), which the degree-5 simplex_rule needs; on
# the cycle edges of square and cube_sphere:1 at beta 50-3000 and the
# default tol, where the exact distance is below 1e-21, the class read
# 2.6e-11 with that rule once two levels agreed within tol (3 levels,
# 3840-8160 nodes), 6.6e-13 to 7.3e-13 with 4 nodes (degree 7) and at
# most 3.6e-15 with 5 (degree 9; 2 levels, 1920-4080 nodes).
_EDGE_NODES = 5


@functools.lru_cache(maxsize=8)
def _rule(jdim):
    """The rule on each piece of a jdim-simplex, barycentric points and
    weights summing to one, read-only and kept per process: Gauss-Legendre
    with _EDGE_NODES nodes on an edge, simplex_rule on the others."""
    if jdim == 1:
        x, w = np.polynomial.legendre.leggauss(_EDGE_NODES)
        t = (1 + x) / 2
        bary, w = np.stack([1 - t, t], axis=1), w / 2
    else:
        bary, w = simplex_rule(jdim)
    bary.setflags(write=False)
    w.setflags(write=False)
    return bary, w


def _rule_size(jdim):
    """Nodes of one piece's rule on the jdim-simplex (_rule)."""
    return len(_rule(jdim)[1])


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


def _reach(tol):
    """R = (tol / 1e-8)^(1/6): the e-folds of a tree ratio one piece may
    span where the degree-5 simplex_rule still meets tol.  An edge's
    pieces are sized by it too, and its rule (_rule) is of degree 9."""
    return (tol / 1e-8) ** (1 / 6)


def _near(beta, tol):
    """L / beta with L = ln(1/tol): a pair whose difference comes this
    close to a tie is a layer, since past L e-folds a tree's Boltzmann
    weight falls below tol."""
    return math.log(1 / tol) / beta


def _tie_depths(geos, beta, tol):
    """Each simplex's floor: the least depth d with beta 2^-d s at most R
    (_reach).  s is the largest steepness (range over the vertices) of a
    level's tree-weight difference that changes sign over the simplex's
    vertices, or comes within L / beta of a tie at one (_near): tree
    weights are affine, so such a pair ties inside the simplex, or nearly
    at a vertex, in a layer of width 1/(beta s).  Where a level below the
    top has no such pair, the form is damped by that level's Boltzmann
    gap and R is 0.  The floor bounds a tie's slope as the vertices see
    it, not the quadrature error: it misses a layer between the vertices
    that no pair approaches at a vertex, and it counts crossings of trees
    that never lead, which costs depth."""
    steep = []
    near = _near(beta, tol)
    for base, grads in geos:
        wt = np.concatenate([base[:, None], base[:, None] + grads], axis=1)
        diff = wt[:, :, :, None] - wt[:, :, None, :]      # (simplices, vertices, trees, trees)
        lo, hi = diff.min(axis=1), diff.max(axis=1)
        seen = (lo * hi < 0) | (np.abs(diff).min(axis=1) <= near)
        steep.append(((hi - lo) * seen).max(axis=(1, 2)))
    ratio = beta * np.max(steep, axis=0) * np.all(steep[:-1], axis=0) / _reach(tol)
    return np.ceil(np.log2(np.maximum(ratio, 1))).astype(int)


# The ratio of neighbouring pieces of a graded mesh, measured with the
# edge rule on square's four cycle edges, ties at t = 1/2, at tol 1e-8
# and beta 30-3000: every ratio from 1.1 to 1.5 converged in 2 levels,
# 1.1 with 2640-8400 nodes, 1.15 with 2160-6120 and 1.25 with 1680-4080;
# at beta 50-3000 the class was at most 3.6e-15 from the exact one at
# 1.25, and 1.1e-14 at 1.35 (1320-3240 nodes), 2.7e-13 at 1.5.  Ratio 2
# took 3 levels.
_GRADING = 1.25


def _edge_meshes(geos, beta, tol):
    """The edges by their cuts, {cuts: edge indices}, the cuts a sorted
    tuple of (place, first piece length): at t* = d0 / (d0 - d1), where
    the difference d of a tree pair of some level changes sign, and at a
    vertex where a pair that does not cross comes within L / beta of a
    tie (_near).  The first piece is R / (beta s) long (_reach),
    s = |d1 - d0| the pair's steepness; of several pairs at one place the
    shortest wins."""
    d0, d1 = [], []
    for base, grads in geos:
        ends = base + grads[:, 0]
        d0.append((base[:, :, None] - base[:, None, :]).reshape(len(base), -1))
        d1.append((ends[:, :, None] - ends[:, None, :]).reshape(len(base), -1))
    d0, d1 = np.concatenate(d0, axis=1), np.concatenate(d1, axis=1)
    steep = np.abs(d1 - d0)
    cross = d0 * d1 < 0
    near = ~cross & (steep > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        places = np.concatenate([np.where(cross, d0 / (d0 - d1), np.inf),
                                 np.where(near & (np.abs(d0) <= _near(beta, tol)), 0.0, np.inf),
                                 np.where(near & (np.abs(d1) <= _near(beta, tol)), 1.0, np.inf)], axis=1)
        sizes = np.tile(_reach(tol) / (beta * steep), 3)
    # each edge's places sorted, the shortest piece first at a place, and
    # the first of each place kept; unseen and repeated places are inf
    order = np.lexsort((sizes, places))
    places, sizes = np.take_along_axis(places, order, 1), np.take_along_axis(sizes, order, 1)
    places[:, 1:][places[:, 1:] == places[:, :-1]] = np.inf
    meshes = {}
    for edge, (row, lengths) in enumerate(zip(places.tolist(), sizes.tolist())):
        cuts = tuple((t, h) for t, h in zip(row, lengths) if t < math.inf)
        meshes.setdefault(cuts, []).append(edge)
    return {cuts: np.array(edges) for cuts, edges in meshes.items()}


def _graded_part(span, size):
    """The breaks of a part span long graded away from a cut, as ascending
    distances from it, the last span: pieces growing by _GRADING toward
    the far end, span (1 - 1/_GRADING) / _GRADING^k for k = 0, 1, ..., as
    long as they are at least size long, and the rest next to the cut in
    equal pieces of at most size."""
    n = 0
    while span * _GRADING ** -(n + 1) * (_GRADING - 1) >= size:
        n += 1
    inner = span * _GRADING ** -n
    m = math.ceil(inner / size)
    return [inner * j / m for j in range(1, m)] + [span * _GRADING ** -k for k in range(n, -1, -1)]


def _graded_breaks(cuts):
    """The breakpoints of an edge's graded mesh on [0, 1].  Each stretch
    between neighbouring places (the cuts and the ends) is split at its
    midpoint where both ends are cuts, and each part is graded away from
    its cut, starting with pieces of at most the cut's first piece length
    (_graded_part); a part with no cut is one piece."""
    sizes = dict(cuts)
    places = sorted(set(sizes) | {0.0, 1.0})
    breaks = [0.0]
    for a, b in zip(places, places[1:]):
        ha, hb = sizes.get(a, math.inf), sizes.get(b, math.inf)
        mid = (a + b) / 2 if max(ha, hb) < math.inf else b if ha < math.inf else a
        if mid > a:
            breaks += [a + x for x in _graded_part(mid - a, ha)[:-1]] + [mid]
        if b > mid:
            breaks += [b - x for x in _graded_part(b - mid, hb)[-2::-1]] + [b]
    return np.array(breaks)


def _graded_levels(breaks, levels):
    """Node batches of a 1-D mesh with the given breakpoints, halved level
    by level, levels of them: the edge rule (_rule) on every piece, the
    nodes (pieces, rule nodes, 1) and their weights (pieces, rule nodes)."""
    bary, w = _rule(1)
    for _ in range(levels):
        lo, hi = breaks[:-1, None], breaks[1:, None]
        yield (bary[:, 0] * lo + bary[:, 1] * hi)[:, :, None], w * (hi - lo)
        halved = np.empty(2 * len(breaks) - 1)
        halved[::2], halved[1::2] = breaks, (breaks[:-1] + breaks[1:]) / 2
        breaks = halved


def _unconverged(active, deepest, max_depth, tol):
    """Why each simplex of active failed: no convergence by the deepest
    depth allowed, and the node budget where it cut max_depth short."""
    budget = "" if deepest == max_depth else (
        f": depth {deepest + 1} would exceed the budget of {_NODE_BUDGET} nodes per simplex")
    return dict.fromkeys(active.tolist(), f": no convergence within depth {deepest} at tol {tol}{budget}")


def _edge_level(ctx, p, beta, geos, groups):
    """One level of the edge meshes, a block (edges, rows, cols) per item
    of groups, (edges, nodes, wts) for the edges of one mesh and its
    level's node batch (_graded_levels).  Every piece of every edge is one
    item of the per-node passes, with its edge's geometry and its own
    nodes, so all meshes share them, in blocks of whole edges of at most
    _BLOCK nodes, or of one edge whose nodes alone exceed it; each edge's
    node sum is one matmul over all of its nodes, in mesh order, as a
    stack of the edges of one mesh would give it."""
    k = _rule_size(1)
    runs, blocks, size = [], [], 0      # a block's runs: (group, first edge, end)
    for g, (edges, nodes, _) in enumerate(groups):
        for e in range(len(edges)):
            if runs and size + k * len(nodes) > _BLOCK:
                blocks.append(runs)
                runs, size = [], 0
            if runs and runs[-1][0] == g:
                runs[-1][2] += 1
            else:
                runs.append([g, e, e + 1])
            size += k * len(nodes)
    blocks.append(runs)
    out = [[] for _ in groups]
    for runs in blocks:
        owner = np.concatenate([np.repeat(groups[g][0][a:b], len(groups[g][1])) for g, a, b in runs])
        nodes = np.concatenate([np.tile(groups[g][1], (b - a, 1, 1)) for g, a, b in runs])
        wts = np.concatenate([np.tile(groups[g][2], (b - a, 1)) for g, a, b in runs])
        kirch, chains = _node_buffers(ctx, p, 1, "standard", len(owner), k)
        step = _BLOCK // k
        for lo in range(0, len(owner), step):
            at = slice(lo, lo + step)
            _node_terms(ctx, p, beta, [(base[owner[at]], grads[owner[at]]) for base, grads in geos],
                        nodes[at], wts[at], "standard", None, kirch[at], chains[:, at])
        lo = 0
        for g, a, b in runs:
            pieces = len(groups[g][1])
            hi = lo + (b - a) * pieces
            out[g].append(_node_sum(kirch[lo:hi].reshape((b - a, pieces * k) + kirch.shape[2:]),
                                    chains[:, lo:hi].reshape((len(chains), b - a, pieces * k)
                                                             + chains.shape[3:]), 1))
            lo = hi
    return [np.concatenate(blocks) for blocks in out]


def _integrate_edges(ctx, proto, beta, keys, tol, max_depth):
    """Stokes integrals of 1-simplices on graded meshes: each edge is cut
    at its ties and graded toward them (_edge_meshes, _graded_breaks), so
    the mesh resolves a layer of width 1/(beta s) with O(log beta)
    pieces, and the mesh is halved level by level until the edge's two
    last levels agree within tol.  Each level is one pass over the
    still-unconverged edges of every mesh (_edge_level).  A mesh stops
    past max_depth halvings, or short of a level of more than
    _NODE_BUDGET nodes, and a mesh over the budget from the start fails
    before any form is evaluated; returns the blocks and why each edge
    that never converged failed, as _integrate_stack does."""
    p = proto.gap.p
    geos = _vertex_geometry(ctx, proto, keys, (p, p + 1))
    out = np.full((len(keys), proto.gap.dim_at(1), proto.gap.dim_at(0)), np.nan)
    missed = {}
    meshes = []     # per mesh: [active edges, level batches, deepest level, last level's blocks]
    for cuts, at in _edge_meshes(geos, beta, tol).items():
        breaks = _graded_breaks(cuts)
        size = _rule_size(1) * (len(breaks) - 1)
        if size > _NODE_BUDGET:
            missed.update(dict.fromkeys(at.tolist(), f" at beta {beta}: graded mesh of {size} nodes "
                                        f"exceeds the budget of {_NODE_BUDGET} nodes per simplex"))
            continue
        deepest = max_depth
        while size * 2 ** deepest > _NODE_BUDGET:
            deepest -= 1
        meshes.append([at, _graded_levels(breaks, deepest + 1), deepest, None])
    for level in range(max_depth + 1):
        live = [mesh for mesh in meshes if len(mesh[0]) and level <= mesh[2]]
        if not live:
            break
        for mesh, est in zip(live, _edge_level(ctx, p, beta, geos,
                                               [(mesh[0],) + next(mesh[1]) for mesh in live])):
            if mesh[3] is not None:
                done = np.max(np.abs(est - mesh[3]), axis=(1, 2)) < tol
                out[mesh[0][done]] = est[done]
                mesh[0], est = mesh[0][~done], est[~done]
            mesh[3] = est
    for at, _, deepest, _ in meshes:
        missed.update(_unconverged(at, deepest, max_depth, tol))
    return out, missed


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
    return out, _unconverged(active, deepest, max_depth, tol)


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
            route = _integrate_edges if len(simplices[0]) == 2 else _integrate_stack
            stack, left = route(ctx, proto, beta, simplices, tol, max_depth)
            missed += [(at[i], simplices[i], why) for i, why in left.items()]
        out.append(stack)
    if missed:
        _, row, why = min(missed, key=lambda m: m[0])
        key = tuple(row.tolist()) if isinstance(row, np.ndarray) else row
        raise QuadratureNoConvergence(f"simplex {key}{why}")
    return out


def jan_integrate(proto, beta, keys, tol=1e-8, max_depth=8):
    """Stokes-map values on a list of simplices, in their order: the
    integral of each one's pulled-back degree-(dim) form, refined until
    two depths agree within tol, which must be finite and positive: an
    edge on its graded mesh, halved (_integrate_edges), a simplex of
    dimension 2 and up dyadically (_integrate_stack).  The simplices are
    vertex tuples, or an array of vertex rows of one dimension.  Simplices of one dimension are integrated
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
    log-linear decay fit over the rows in the requested beta range whose
    distance is at least 100 tol, so that the quadrature error, within
    tol, moves a fitted log by 1% or less (slope NaN unless two distinct
    betas are fitted).  cycle is a top cycle in either form
    hypercurrent_homology takes; a mapping is read by place once, here.
    With residuals, each beta integrates the whole analytical
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
    fitted = [r for r in rows if lo <= r.beta <= hi and r.distance >= 100 * tol]
    xs = [r.beta for r in fitted]
    ys = [math.log(r.distance) for r in fitted]
    slope = float("nan")
    if len(set(xs)) >= 2:
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        den = sum((x - xbar) ** 2 for x in xs)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den
    return SweepReport(topological=tuple(float(c) for c in topo), rows=rows, slope=slope)
