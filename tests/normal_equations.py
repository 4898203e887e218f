"""The normal-equation route to the Boltzmann pseudoinverses, the oracle
for the Kirchhoff tree sums (acceptance criterion 4).

Each operator is a weighted least-squares solution in the metric
e^(beta w), solved through its normal equations on the reduced boundary
d_j = bounds_{j-1} @ db_j.  With three or more cells at a level the
normal matrix is singular to working precision once e^(-beta * gap)
between level weights drops below machine epsilon (beta * gap near 37),
so this route serves only moderate beta; the library takes the tree
sums, which stay bounded whatever the weights.
"""

import numpy as np

from hypercurrent import ratlin
from hypercurrent.ana_hyper import _check_beta


def reduced_boundary(gap, j):
    """db_j, with d_j = bounds_{j-1} @ db_j exactly, as floats."""

    def build():
        coeff = ratlin.solve_matrix(gap.homology[j - 1].bounds, gap.d(j))
        assert coeff is not None, "boundary does not factor through the bounds basis"
        return coeff.to_float()

    return gap.derived(("test_reduced_boundary", j), build)


def weighted_pseudoinverse_boundary(gap, w, beta, j):
    """Minimum-norm right inverse of the boundary in the metric
    e^(beta w): bounds-basis coordinates one degree down to chains."""
    _check_beta(beta)
    if j < 1 or j > gap.top:
        raise ValueError("degree out of range")
    wv = np.asarray(w, dtype=float)
    ginv = np.exp(-beta * (wv - wv.min()))
    db = reduced_boundary(gap, j)
    nb = db.shape[0]
    if nb == 0:
        return np.zeros((gap.dim_at(j), 0))
    m = (db * ginv[None, :]) @ db.T
    return (ginv[:, None] * db.T) @ np.linalg.solve(m, np.eye(nb))


def weighted_pseudoinverse_inclusion(gap, w, beta):
    """Left inverse of the bounds inclusion in the metric e^(beta w),
    and the complementary projection: (idagger, alpha0).  Weights
    (..., n) give a stack of each, from one solve."""
    _check_beta(beta)
    wv = np.asarray(w, dtype=float)
    g = np.exp(beta * (wv - wv.max(axis=-1, keepdims=True)))
    bmat = gap.homology[0].bounds.to_float()
    n, nb = bmat.shape
    if nb == 0:
        return np.zeros(wv.shape[:-1] + (0, n)), np.zeros(wv.shape[:-1] + (n, n)) + np.eye(n)
    m = bmat.T @ (g[..., None] * bmat)
    idagger = np.linalg.solve(m, bmat.T * g[..., None, :])
    alpha0 = np.eye(n) - bmat @ idagger
    return idagger, alpha0
