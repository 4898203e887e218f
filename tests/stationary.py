"""The stationary (Boltzmann) distribution of a graph and its current
one-form, computed by routes independent of the library's: an SVD kernel
of the weighted adjoint, and a closed-form derivative of the Boltzmann
state fed to the weighted pseudoinverse.  The tests check them against
the master operator and the analytical current.
"""

import numpy as np

from hypercurrent.ana_hyper import _context, kirchhoff_pseudoinverse
from hypercurrent.complex_core import CwComplex
from hypercurrent.graph_dynamics import state_diagram
from hypercurrent.protocol import SimplicialProtocol


def boltzmann(x: CwComplex, energies, barriers):
    """Stationary distribution: the normalized kernel of the weighted
    adjoint of the boundary operator."""
    state_diagram(x)  # validates the graph shape
    d1 = x.d(1).to_float()
    e = np.asarray(energies, dtype=float)
    w = np.asarray(barriers, dtype=float)
    g0 = np.exp(e - e.max())
    g1 = np.exp(w - w.max())
    adjoint = (d1.T * g0[None, :]) / g1[:, None]
    _, s, vt = np.linalg.svd(adjoint, full_matrices=True)
    null = vt[-1]
    if x.n_cells(1) >= x.n_cells(0) and s[-1] > 1e-9 * s[0]:
        raise ValueError("weighted adjoint has no kernel (graph disconnected?)")
    if null.sum() < 0:
        null = -null
    if null.min() < -1e-12:
        raise ValueError("kernel vector is not single-signed")
    return np.clip(null, 0.0, None) / null.sum()


def current_form(proto: SimplicialProtocol, point, tangent, beta=1.0):
    """The current one-form of the stationary distribution: the weighted
    pseudoinverse (the Kirchhoff tree sum) applied to the derivative of the Boltzmann state
    along the tangent.  Returns a one-chain over the edges."""
    gap = proto.gap
    if gap.p != 0 or gap.q != 1:
        raise ValueError("current forms require weights at levels 0 and 1")
    key, coords = tuple(point[0]), np.asarray(point[1], dtype=float)
    tangent = np.asarray(tangent, dtype=float)
    e_rows, w_rows = (w[list(key)] for w in proto.level_weights)
    base_e, grad_e = e_rows[0], e_rows[1:] - e_rows[0][None, :]
    base_w = w_rows[0]
    e_here = base_e + coords @ grad_e
    w_here = base_w + coords @ (w_rows[1:] - base_w[None, :])
    # stationary state and its derivative along the tangent
    z = np.exp(-beta * (e_here - e_here.min()))
    rho = z / z.sum()
    de = grad_e.T @ tangent
    drho = -beta * rho * (de - float(rho @ de))
    ctx = _context(gap)
    bcoords = ctx.zeta_std[0] @ drho
    dag = kirchhoff_pseudoinverse(gap, w_here, beta, 1)
    return dag @ bcoords
