"""Markov-chain machinery for one-dimensional complexes.

A connected simple graph with vertex energies E and edge barriers W
drives a continuous-time chain on the double of the graph with jump
rates e^(E_source - W_edge).  The probability flow is integrated with a
classical 4th-order step plus a step-doubling error estimate; the
stationary (Boltzmann) distribution and the associated current one-form
are computed by independent routes and cross-checked against the
general machinery in tests.
"""

from dataclasses import dataclass

import numpy as np

from . import ratlin
from .complex_core import CwComplex
from .errors import StepTooLarge
from .protocol import SimplicialProtocol, weights_at

__all__ = [
    "StateDiagram",
    "MasterOperator",
    "state_diagram",
    "rates",
    "master_operator",
    "evolve",
    "boltzmann",
    "current_form",
]


@dataclass(frozen=True)
class StateDiagram:
    """The double of a graph: one directed edge out of each endpoint."""

    graph: CwComplex
    edges: tuple   # (source vertex index, target vertex index, edge index)


def state_diagram(x: CwComplex) -> StateDiagram:
    if x.dim != 1:
        raise ValueError("state diagrams are built over one-dimensional complexes")
    d1 = x.d(1)
    edges = []
    for e in range(x.n_cells(1)):
        col = [d1[v][e] for v in range(x.n_cells(0))]
        plus = [v for v, c in enumerate(col) if c == 1]
        minus = [v for v, c in enumerate(col) if c == -1]
        if len(plus) != 1 or len(minus) != 1 or any(c not in (-1, 0, 1) for c in col):
            raise ValueError(f"edge {e} is not a simple-graph edge")
        s, t = minus[0], plus[0]
        edges.append((s, t, e))
        edges.append((t, s, e))
    return StateDiagram(graph=x, edges=tuple(edges))


def rates(sd: StateDiagram, energies, barriers):
    """Jump rate out of the source across each directed edge."""
    e = np.asarray(energies, dtype=float)
    w = np.asarray(barriers, dtype=float)
    return np.array([np.exp(e[s] - w[a]) for s, _, a in sd.edges])


@dataclass(frozen=True)
class MasterOperator:
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        off = m - np.diag(np.diag(m))
        if off.size and off.min() < 0:
            raise ValueError("negative off-diagonal entry")

    @property
    def column_sums(self):
        return self.matrix.sum(axis=0)


def master_operator(sd: StateDiagram, energies, barriers) -> MasterOperator:
    """Columns hold the outflow of each state: entry (i, j) is the total
    rate from j to i, the diagonal balances its column to zero."""
    n = sd.graph.n_cells(0)
    k = rates(sd, energies, barriers)
    m = np.zeros((n, n))
    for (s, t, _), rate in zip(sd.edges, k):
        m[t, s] += rate
        m[s, s] -= rate
    return MasterOperator(matrix=m)


def _path_times(proto: SimplicialProtocol):
    """The protocol's parameter space must be a path 0-1-2-...-m."""
    m = len(proto.vertex_ids) - 1
    edges = set(proto.simplices_of_dim(1))
    expected = {(i, i + 1) for i in range(m)}
    if edges != expected:
        raise ValueError("time protocols must be simple paths")
    return m


def _weights_on_path(proto, tau):
    """Weight point at path coordinate tau in [0, nedges]."""
    m = _path_times(proto)
    seg = min(int(tau), m - 1)
    local = tau - seg
    return weights_at(proto, (seg, seg + 1), [1.0 - local, local])


def evolve(proto: SimplicialProtocol, p0, t0, t1, steps, tol=1e-8):
    """Integrate the probability flow along a one-dimensional protocol.

    The path parameter is mapped affinely onto [t0, t1].  Each grid step
    is one full 4th-order step checked against two half steps; the pair
    also provides the local error estimate (StepTooLarge when it exceeds
    tol).  Returns (times, trajectory) with one row per grid point.
    """
    if proto.gap.p != 0 or proto.gap.q != 1:
        raise ValueError("dynamics requires weights at levels 0 and 1")
    sd = state_diagram(proto.gap.parent)
    m = _path_times(proto)
    p = np.asarray(p0, dtype=float)
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("initial state must be a probability distribution")

    def field(t, y):
        tau = (t - t0) / (t1 - t0) * m if t1 > t0 else 0.0
        wp = _weights_on_path(proto, min(max(tau, 0.0), m))
        op = master_operator(sd, wp.level(0), wp.level(1))
        return op.matrix @ y

    def rk4(t, y, h):
        k1 = field(t, y)
        k2 = field(t + h / 2, y + h / 2 * k1)
        k3 = field(t + h / 2, y + h / 2 * k2)
        k4 = field(t + h, y + h * k3)
        return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    times = np.linspace(t0, t1, steps + 1)
    traj = np.zeros((steps + 1, len(p)))
    traj[0] = p
    for n in range(steps):
        h = times[n + 1] - times[n]
        full = rk4(times[n], p, h)
        half = rk4(times[n] + h / 2, rk4(times[n], p, h / 2), h / 2)
        err = float(np.max(np.abs(full - half))) / 15.0
        if err > tol:
            raise StepTooLarge(f"estimated error {err:.2e} > {tol:.2e} at t = {times[n]}")
        p = half
        traj[n + 1] = p
    return times, traj


def boltzmann(x: CwComplex, energies, barriers):
    """Stationary distribution: the normalized kernel of the weighted
    adjoint of the boundary operator."""
    sd = state_diagram(x)  # validates the graph shape
    d1 = ratlin.to_float(x.d(1), x.n_cells(0), x.n_cells(1))
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
    minimum-norm solve applied to the derivative of the Boltzmann state
    along the tangent.  Returns a one-chain over the edges."""
    from .ana_hyper import _context, weighted_pseudoinverse_boundary

    gap = proto.gap
    if gap.p != 0 or gap.q != 1:
        raise ValueError("current forms require weights at levels 0 and 1")
    key, coords = tuple(point[0]), np.asarray(point[1], dtype=float)
    tangent = np.asarray(tangent, dtype=float)
    pts = [proto.weight_of(v) for v in proto.vertices_of(key)]
    e_rows = np.array([pt.level(0) for pt in pts])
    w_rows = np.array([pt.level(1) for pt in pts])
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
    dag = weighted_pseudoinverse_boundary(gap, w_here, beta, 1)
    return dag @ bcoords
