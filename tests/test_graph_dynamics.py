import json
import math
import random
from functools import lru_cache

import numpy as np
import pytest

from hypercurrent import graph_dynamics
from hypercurrent.ana_hyper import quantization_sweep
from hypercurrent.complex_core import gap_complex, loads_complex, sphere_complex
from hypercurrent.errors import StepTooLarge
from hypercurrent.graph_dynamics import (
    MasterOperator,
    _path_times,
    evolve,
    master_operator,
    rates,
    state_diagram,
)
from hypercurrent.protocol import (
    loads_protocol,
    simplicial_protocol,
    square_protocol,
    weights_at,
)
from hypercurrent.weight_space import classify_cell, enumerate_top_discriminant_cells, transversal_sphere

from protocol_ops import levels_of
from stationary import boltzmann, current_form
from test_forests import complete_graph
from test_weight_space import STAR4, graph_complex, triangle_complex


def segment_complex():
    return loads_complex(
        json.dumps(
            {
                "name": "segment",
                "cells": [["0", "1"], ["a"]],
                "boundary": [[[-1], [1]]],
            }
        )
    )


def constant_path_protocol(x, e_vals, w_vals, nverts=2):
    gap = gap_complex(x, 0, 1)
    wp = (tuple(e_vals), tuple(w_vals))
    simplices = [(i,) for i in range(nverts)] + [(i, i + 1) for i in range(nverts - 1)]
    return simplicial_protocol(
        gap=gap,
        vertex_ids=tuple(f"t{i}" for i in range(nverts)),
        level_weights=levels_of([wp] * nverts),
        simplices=tuple(sorted(simplices, key=lambda s: (len(s), s))),
    )


def test_state_diagram_double():
    sd = state_diagram(segment_complex())
    assert len(sd.edges) == 2
    assert set(sd.edges) == {(0, 1, 0), (1, 0, 0)}


def test_rates_trivial():
    sd = state_diagram(segment_complex())
    assert np.allclose(rates(sd, [0.0, 0.0], [0.0]), 1.0)
    assert np.allclose(rates(sd, [0.5, 0.7], [0.5]), [1.0, math.exp(0.2)])


def test_rates_example():
    sd = state_diagram(segment_complex())
    k = rates(sd, [0.0, math.log(2)], [0.0])
    assert np.allclose(sorted(k), [1.0, 2.0])


def test_master_operator_simple():
    sd = state_diagram(segment_complex())
    op = master_operator(sd, [0.0, 0.0], [0.0])
    assert np.allclose(op.matrix, [[-1.0, 1.0], [1.0, -1.0]])


def test_master_operator_biased_columns():
    sd = state_diagram(segment_complex())
    op = master_operator(sd, [0.0, math.log(2)], [0.0])
    assert np.allclose(op.matrix, [[-1.0, 2.0], [1.0, -2.0]])
    assert np.allclose(op.column_sums, 0.0, atol=1e-12)


def test_master_operator_is_negative_graph_laplacian():
    x = sphere_complex(1)
    sd = state_diagram(x)
    op = master_operator(sd, [0.0, 0.0], [0.0, 0.0])
    d1 = x.d(1).to_float()
    lap = d1 @ d1.T
    assert np.allclose(op.matrix, -lap)


def test_master_operator_equals_weighted_laplacian():
    x = segment_complex()
    sd = state_diagram(x)
    e = np.array([0.3, -0.4])
    w = np.array([0.9])
    op = master_operator(sd, e, w)
    d1 = x.d(1).to_float()
    adj = (d1.T * np.exp(e)[None, :]) / np.exp(w)[:, None]
    assert np.allclose(op.matrix, -(d1 @ adj), atol=1e-12)


def test_batched_rates_and_operators_equal_single_points():
    rng = np.random.default_rng(11)
    x = sphere_complex(1)
    sd = state_diagram(x)
    e = rng.uniform(-1.0, 1.0, size=(7, x.n_cells(0)))
    w = rng.uniform(-0.5, 1.5, size=(7, x.n_cells(1)))
    k = rates(sd, e, w)
    op = master_operator(sd, e, w)
    assert k.shape == (7, len(sd.edges)) and op.matrix.shape == (7, 2, 2)
    for i in range(7):
        assert np.array_equal(k[i], rates(sd, e[i], w[i]))
        assert np.array_equal(op.matrix[i], master_operator(sd, e[i], w[i]).matrix)
    assert op.column_sums.shape == (7, 2)
    assert np.allclose(op.column_sums, 0.0, atol=1e-12)
    # two batch axes
    op2 = master_operator(sd, e.reshape(7, 1, -1), w.reshape(7, 1, -1))
    assert np.array_equal(op2.matrix[:, 0], op.matrix)


def test_master_operator_stack_rejects_one_bad_entry():
    good = master_operator(state_diagram(segment_complex()), [[0.0, 0.1]] * 3, [[0.2]] * 3).matrix
    MasterOperator(matrix=good)
    for i in range(3):
        bad = good.copy()
        bad[i, 0, 1] = -1e-3
        with pytest.raises(ValueError, match="negative off-diagonal"):
            MasterOperator(matrix=bad)


def test_master_operator_rejects_nan():
    sd = state_diagram(sphere_complex(1))
    with pytest.raises(ValueError, match="NaN or negative off-diagonal"):
        master_operator(sd, [math.nan, 0.0], [0.0, 0.0])
    good = master_operator(sd, [0.0, 0.0], [0.0, 0.0]).matrix
    for stack in (good.copy(), np.stack([good] * 3)):
        stack[..., 1, 0] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            MasterOperator(matrix=stack)
    # an overflowing rate stays +inf, which evolve reports itself
    inf = good.copy()
    inf[1, 0] = math.inf
    MasterOperator(matrix=inf)


# --- evolution -----------------------------------------------------------------


def test_two_state_closed_form():
    proto = constant_path_protocol(segment_complex(), [0.0, 0.0], [0.0])
    times, traj = evolve(proto, [1.0, 0.0], 0.0, 3.0, 600)
    expected = np.stack(
        [(1 + np.exp(-2 * times)) / 2, (1 - np.exp(-2 * times)) / 2], axis=1
    )
    assert np.max(np.abs(traj - expected)) < 1e-9


def test_mass_conservation_long_run():
    proto = constant_path_protocol(segment_complex(), [0.0, math.log(2)], [0.3])
    times, traj = evolve(proto, [0.25, 0.75], 0.0, 10.0, 10_000)
    assert np.max(np.abs(traj.sum(axis=1) - 1.0)) <= 1e-9
    assert traj.min() >= -1e-9


def test_stationary_start_stays_fixed():
    x = segment_complex()
    e = [0.0, math.log(2)]
    proto = constant_path_protocol(x, e, [0.5])
    rho = boltzmann(x, e, [0.5])
    times, traj = evolve(proto, rho, 0.0, 5.0, 500)
    assert np.max(np.abs(traj - rho[None, :])) <= 1e-9


def test_step_too_large():
    proto = constant_path_protocol(segment_complex(), [5.0, 5.0], [-5.0])
    with pytest.raises(StepTooLarge):
        evolve(proto, [1.0, 0.0], 0.0, 10.0, 2)


def test_evolve_rejects_overflowing_rates():
    proto = constant_path_protocol(segment_complex(), [800.0, 0.0], [0.0])
    with pytest.raises(ValueError, match="overflow at t = 0.0"):
        evolve(proto, [1.0, 0.0], 0.0, 1.0, 5)


def test_nan_error_estimate_fails_the_step():
    # rates of e^700 are finite, but one stage overflows and the estimate is NaN
    proto = constant_path_protocol(segment_complex(), [700.0, 0.0], [0.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepTooLarge, match="nan"):
        evolve(proto, [1.0, 0.0], 0.0, 1.0, 5)


@pytest.mark.parametrize(
    "p0, match",
    [
        ([float("nan"), 1.0], "NaN or infinite"),
        ([float("inf"), 0.0], "NaN or infinite"),
        ([1.2, -0.2], "negative entry"),
        ([0.5, 0.6], "sums to"),
        ([0.2, 0.3, 0.5], "one entry per state"),
        ([[0.5, 0.5]], "one entry per state"),
    ],
)
def test_evolve_rejects_bad_initial_state(p0, match):
    proto = constant_path_protocol(segment_complex(), [0.0, 0.0], [0.0])
    with pytest.raises(ValueError, match=match):
        evolve(proto, p0, 0.0, 1.0, 5)


def test_evolve_rejects_backward_time():
    proto = constant_path_protocol(segment_complex(), [0.0, 0.0], [0.0])
    with pytest.raises(ValueError, match="below t0"):
        evolve(proto, [1.0, 0.0], 2.0, 1.0, 10)


@pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
def test_evolve_rejects_nonfinite_times(t0, t1):
    proto = constant_path_protocol(segment_complex(), [0.0, 0.0], [0.0])
    with pytest.raises(ValueError, match="must be finite"):
        evolve(proto, [1.0, 0.0], t0, t1, 10)


@pytest.mark.parametrize("steps", [0, -2])
def test_evolve_rejects_step_counts_below_one(steps):
    proto = constant_path_protocol(segment_complex(), [0.0, 0.0], [0.0])
    with pytest.raises(ValueError, match="steps must be at least 1"):
        evolve(proto, [1.0, 0.0], 0.0, 1.0, steps)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_evolve_rejects_bad_tol(tol):
    # an infinite tol would pass every error estimate, overflow included
    proto = constant_path_protocol(segment_complex(), [0.0, 0.0], [0.0])
    with pytest.raises(ValueError, match=f"tol must be finite and positive, got {tol}"):
        evolve(proto, [1.0, 0.0], 0.0, 1.0, 10, tol=tol)


# --- the per-call field, kept as the oracle for evolve ---------------------------------


def loop_rates(sd, energies, barriers):
    """Jump rate out of the source across each directed edge."""
    e = np.asarray(energies, dtype=float)
    w = np.asarray(barriers, dtype=float)
    return np.array([np.exp(e[s] - w[a]) for s, _, a in sd.edges])


def loop_master_operator(sd, energies, barriers):
    """Columns hold the outflow of each state: entry (i, j) is the total
    rate from j to i, the diagonal balances its column to zero."""
    n = sd.graph.n_cells(0)
    k = loop_rates(sd, energies, barriers)
    m = np.zeros((n, n))
    for (s, t, _), rate in zip(sd.edges, k):
        m[t, s] += rate
        m[s, s] -= rate
    return MasterOperator(matrix=m)


def _weights_on_path(proto, tau):
    """The weights, one array per level, at path coordinate tau in [0, nedges]."""
    m = _path_times(proto)
    seg = min(int(tau), m - 1)
    local = tau - seg
    return weights_at(proto, (seg, seg + 1), [1.0 - local, local])


def rk4_matrix(h, a, b, c):
    """The 4th-order step of length h with operators a, b, c at its start,
    middle and end, as the matrix it applies to a state."""
    eye = np.eye(len(a))
    k2 = b @ (eye + h / 2 * a)
    k3 = b @ (eye + h / 2 * k2)
    k4 = c @ (eye + h * k3)
    return eye + (h / 6) * (a + 2 * k2 + 2 * k3 + k4)


def per_call_evolve(proto, p0, t0, t1, steps, tol=1e-8):
    """Integrate the probability flow along a one-dimensional protocol.

    The path parameter is mapped affinely onto [t0, t1].  Each grid step
    builds its two half steps' product and its full step as matrices from
    the field read one time at a time; the product carries the state and
    the full step gives the local error estimate (StepTooLarge when it
    exceeds tol or is NaN).  Returns (times, trajectory) with one row per
    grid point.
    """
    if proto.gap.p != 0 or proto.gap.q != 1:
        raise ValueError("dynamics requires weights at levels 0 and 1")
    sd = state_diagram(proto.gap.parent)
    m = _path_times(proto)
    p = np.asarray(p0, dtype=float)
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("initial state must be a probability distribution")

    def field(t):
        tau = (t - t0) / (t1 - t0) * m if t1 > t0 else 0.0
        wp = _weights_on_path(proto, min(max(tau, 0.0), m))
        return loop_master_operator(sd, wp[0], wp[1]).matrix

    def step(t, h):
        return rk4_matrix(h, field(t), field(t + h / 2), field(t + h))

    times = np.linspace(t0, t1, steps + 1)
    traj = np.zeros((steps + 1, len(p)))
    traj[0] = p
    for n in range(steps):
        h = times[n + 1] - times[n]
        full = step(times[n], h)
        half = step(times[n] + h / 2, h / 2) @ step(times[n], h / 2)
        q = half @ p
        err = float(np.max(np.abs(full @ p - q))) / 15.0
        if not err <= tol:
            raise StepTooLarge(f"estimated error {err:.2e} > {tol:.2e} at t = {times[n]}")
        p = q
        traj[n + 1] = p
    return times, traj


def staged_rk4(y, h, a, b, c):
    """One 4th-order step with the operators at its start, middle and end,
    stage by stage on the state; a stack of steps when y is (k, n, 1), h is
    (k, 1, 1) and the operators are (k, n, n)."""
    k1 = a @ y
    k2 = b @ (y + h / 2 * k1)
    k3 = b @ (y + h / 2 * k2)
    k4 = c @ (y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def staged_evolve(proto, p0, t0, t1, steps, tol=1e-8):
    """evolve with the stages applied to the state: the same batched field
    per block, the half steps chained stage by stage and the full steps
    as one stacked staged pass.  It rounds differently from the step
    matrices, so evolve agrees with it to rounding, not bit for bit."""
    sd = state_diagram(proto.gap.parent)
    m = _path_times(proto)
    p = np.asarray(p0, dtype=float)
    first = [weights_at(proto, (i, i + 1), [1.0, 0.0]) for i in range(m)]
    last = [weights_at(proto, (i, i + 1), [0.0, 1.0]) for i in range(m)]
    e0, e1 = (np.array([wp[0] for wp in pts]) for pts in (first, last))
    w0, w1 = (np.array([wp[1] for wp in pts]) for pts in (first, last))
    times = np.linspace(t0, t1, steps + 1)
    traj = np.zeros((steps + 1, len(p)))
    traj[0] = p
    for lo in range(0, steps, graph_dynamics._BLOCK):
        t = times[lo:lo + graph_dynamics._BLOCK + 1]
        h, t = t[1:] - t[:-1], t[:-1]
        mid = t + h / 2
        at = np.stack([t, t + (h / 2) / 2, mid, t + h, mid + (h / 2) / 2, mid + h / 2], axis=1)
        tau = (at - t0) / (t1 - t0) * m if t1 > t0 else np.zeros_like(at)
        tau = np.minimum(np.maximum(tau, 0.0), m)
        seg = np.minimum(tau.astype(np.intp), m - 1)
        local = (tau - seg)[..., None]
        ops = master_operator(sd, (1.0 - local) * e0[seg] + local * e1[seg],
                              (1.0 - local) * w0[seg] + local * w1[seg]).matrix
        for j, op in enumerate(ops):
            p = staged_rk4(staged_rk4(p, h[j] / 2, op[0], op[1], op[2]), h[j] / 2, op[2], op[4], op[5])
            traj[lo + j + 1] = p
        full = staged_rk4(traj[lo:lo + len(ops), :, None], h[:, None, None], ops[:, 0], ops[:, 2], ops[:, 3])
        err = np.max(np.abs(full[..., 0] - traj[lo + 1:lo + len(ops) + 1]), axis=1) / 15.0
        failed = np.flatnonzero(~(err <= tol))
        if failed.size:
            j = failed[0]
            raise StepTooLarge(f"estimated error {err[j]:.2e} > {tol:.2e} at t = {times[lo + j]}")
    return times, traj


GRAPHS = {
    "path3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star4": (4, [(0, 1), (0, 2), (0, 3)]),
}


def seeded_graph_protocol(name, rng, segments=None):
    """A graph protocol on a path time domain of 2-4 segments with seeded
    vertex names, orientations, energies and barriers, and a start state."""
    nverts, edges = GRAPHS[name]
    vnames = [f"v{i}" for i in range(nverts)]
    rng.shuffle(vnames)
    edges = list(edges)
    rng.shuffle(edges)
    bnd = [[0] * len(edges) for _ in range(nverts)]
    for k, (a, b) in enumerate(edges):
        if rng.random() < 0.5:
            a, b = b, a
        bnd[a][k], bnd[b][k] = -1, 1
    graph = {"name": name, "cells": [vnames, [f"e{k}" for k in range(len(edges))]],
             "boundary": [bnd]}
    segments = segments or rng.randint(2, 4)
    doc = {
        "complex": {"inline": graph},
        "p": 0,
        "q": 1,
        "vertices": [
            {"id": f"t{i}", "weights": {
                "0": [rng.uniform(-1.0, 1.0) for _ in range(nverts)],
                "1": [rng.uniform(-0.5, 1.5) for _ in range(len(edges))]}}
            for i in range(segments + 1)
        ],
        "simplices": [{"vertices": [f"t{i}", f"t{i + 1}"]} for i in range(segments)],
    }
    raw = [rng.random() + 0.05 for _ in range(nverts)]
    p0 = [v / sum(raw) for v in raw]
    p0[-1] = 1.0 - sum(p0[:-1])
    return loads_protocol(json.dumps(doc)), p0


def assert_same_as_oracle(proto, p0, t0, t1, steps, tol=1e-8):
    times, traj = evolve(proto, p0, t0, t1, steps, tol=tol)
    ref_times, ref_traj = per_call_evolve(proto, p0, t0, t1, steps, tol=tol)
    assert np.array_equal(times, ref_times)
    assert np.array_equal(traj, ref_traj)


def graph_case(name, seed):
    rng = random.Random(f"{name}-{seed}")
    proto, p0 = seeded_graph_protocol(name, rng)
    return proto, p0, 0.0, rng.uniform(2.0, 8.0), 200, 1e-6


def blocks_case():
    # a step count above one block and not a multiple of it, on a path of
    # three segments, so segment ends and block ends both fall inside the run
    rng = random.Random("blocks")
    proto, p0 = seeded_graph_protocol("path4", rng, segments=3)
    return proto, p0, 0.25, 9.0, 2 * graph_dynamics._BLOCK + 357, 1e-6


def criterion_10_cases():
    wp = ((0.0, math.log(2)), (0.1,))
    proto = simplicial_protocol(
        gap=gap_complex(segment_complex(), 0, 1),
        vertex_ids=("t0", "t1"),
        level_weights=levels_of((wp, wp)),
        simplices=((0,), (1,), (0, 1)),
    )
    # t1 == t0 is allowed: every step has length zero
    return [(proto, [1.0, 0.0], 0.0, 10.0, graph_dynamics._BLOCK + 1, 1e-8),
            (proto, [0.25, 0.75], 3.0, 3.0, 3, 1e-8)]


def oracle_cases():
    return ([graph_case(name, seed) for name in sorted(GRAPHS) for seed in (0, 1, 2)]
            + [blocks_case()] + criterion_10_cases())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_evolve_equals_per_call_field_on_graph_protocols(name, seed):
    assert_same_as_oracle(*graph_case(name, seed))


def test_evolve_equals_per_call_field_across_blocks():
    assert_same_as_oracle(*blocks_case())


def test_evolve_equals_per_call_field_on_criterion_10_protocol():
    for case in criterion_10_cases():
        assert_same_as_oracle(*case)


def test_step_matrices_agree_with_the_staged_chain():
    # a step matrix applied to the state rounds differently from its
    # stages applied one after another; the bound is absolute
    for proto, p0, t0, t1, steps, tol in oracle_cases():
        times, traj = evolve(proto, p0, t0, t1, steps, tol=tol)
        ref_times, ref_traj = staged_evolve(proto, p0, t0, t1, steps, tol=tol)
        assert np.array_equal(times, ref_times)
        assert np.max(np.abs(traj - ref_traj)) <= 1e-14


def test_step_too_large_matches_oracle():
    proto = constant_path_protocol(segment_complex(), [5.0, 5.0], [-5.0])
    with pytest.raises(StepTooLarge) as ref:
        per_call_evolve(proto, [1.0, 0.0], 0.0, 10.0, 2)
    with pytest.raises(StepTooLarge) as got:
        evolve(proto, [1.0, 0.0], 0.0, 10.0, 2)
    assert str(got.value) == str(ref.value)


def ramp_protocol(end_energy):
    """Three path vertices on the segment: level-0 energies (0, 0), (0, 0)
    and (end_energy, 0), barriers 0.  The field is constant over the first
    half of the run and ramps up over the second."""
    flat = ((0.0, 0.0), (0.0,))
    return simplicial_protocol(
        gap=gap_complex(segment_complex(), 0, 1),
        vertex_ids=("t0", "t1", "t2"),
        level_weights=levels_of((flat, flat, ((end_energy, 0.0), (0.0,)))),
        simplices=((0,), (1,), (2,), (0, 1), (1, 2)),
    )


def test_oracle_fails_a_nan_estimate_as_evolve_does():
    # the first ramp step overflows inside a stage, so its estimate is NaN
    proto = ramp_protocol(1e6)
    msg = "estimated error nan > 1.00e-08 at t = 4.5"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepTooLarge) as ref:
        per_call_evolve(proto, [0.5, 0.5], 0.0, 9.0, 3000)
    with pytest.raises(StepTooLarge) as got:
        evolve(proto, [0.5, 0.5], 0.0, 9.0, 3000)
    assert str(ref.value) == str(got.value) == msg


# Each block's estimates are checked after its half-step chain has run, so
# these pin which failure of a block is raised: the first failing step, an
# estimate before an overflowing operator, whichever block it falls in.


def test_step_too_large_in_a_later_block_matches_oracle():
    # 3000 steps: the ramp starts at step 1500, in the second block
    assert graph_dynamics._BLOCK < 1500 < 2 * graph_dynamics._BLOCK
    proto = ramp_protocol(50.0)
    with pytest.raises(StepTooLarge) as ref:
        per_call_evolve(proto, [0.5, 0.5], 0.0, 9.0, 3000)
    with pytest.raises(StepTooLarge) as got:
        evolve(proto, [0.5, 0.5], 0.0, 9.0, 3000)
    assert str(got.value) == str(ref.value)
    assert str(got.value) == "estimated error 1.02e-08 > 1.00e-08 at t = 5.085"


def test_overflow_in_a_later_block_without_earlier_failure():
    with pytest.raises(ValueError) as got:
        evolve(ramp_protocol(1e8), [0.5, 0.5], 0.0, 9.0, 3000)
    assert str(got.value) == "jump rates overflow at t = 4.5"


def test_failing_estimate_before_overflow_in_the_same_block():
    # the estimate of step 100 fails; the rates overflow from step 114 on
    with pytest.raises(StepTooLarge) as got:
        evolve(ramp_protocol(5000.0), [0.5, 0.5], 0.0, 2.0, 200)
    assert str(got.value) == "estimated error 6.52e+66 > 1.00e-08 at t = 1.0"


def test_overflow_at_the_first_ramp_step():
    with pytest.raises(ValueError) as got:
        evolve(ramp_protocol(1e6), [0.5, 0.5], 0.0, 2.0, 200)
    assert str(got.value) == "jump rates overflow at t = 1.0"


# --- stationary states --------------------------------------------------------------


def test_boltzmann_uniform():
    rho = boltzmann(segment_complex(), [0.0, 0.0], [0.7])
    assert np.allclose(rho, 0.5)


def test_boltzmann_two_thirds():
    rho = boltzmann(segment_complex(), [0.0, math.log(2)], [0.0])
    assert np.max(np.abs(rho - np.array([2 / 3, 1 / 3]))) <= 1e-12


def test_boltzmann_is_stationary():
    x = sphere_complex(1)
    e = [0.4, -0.2]
    w = [0.1, 0.9]
    rho = boltzmann(x, e, w)
    sd = state_diagram(x)
    op = master_operator(sd, e, w)
    assert np.max(np.abs(op.matrix @ rho)) <= 1e-10


# --- the current one-form -------------------------------------------------------------


def test_current_form_matches_general_machinery():
    from hypercurrent.ana_hyper import jan_form

    proto = square_protocol()
    beta = 1.5
    for edge in proto.simplices_of_dim(1):
        point = (edge, [0.37])
        tangent = np.array([1.0])
        j_graph = current_form(proto, point, tangent, beta=beta)
        ev = jan_form(proto, beta, edge, [0.37], [tangent], 1)
        for v in range(2):
            delta = np.zeros(2)
            delta[v] = 1.0
            j_general = ev @ delta
            assert np.max(np.abs(j_graph - j_general)) <= 1e-8


def test_current_form_constant_protocol_zero():
    proto = constant_path_protocol(segment_complex(), [0.0, 1.0], [0.2])
    val = current_form(proto, ((0, 1), [0.5]), np.array([1.0]))
    assert np.allclose(val, 0.0, atol=1e-14)


# --- pumping: the flux per period tends to the analytical class ---------------------


def unrolled_loop(loop, beta):
    """A one-dimensional protocol whose fundamental cycle is one closed
    walk, as a path protocol with weights scaled by beta, walked along the
    cycle from its lowest vertex back to it."""
    succ = {}
    for (a, b), coeff in loop.fundamental_cycle.items():
        if coeff > 0:
            succ[a] = b
        else:
            succ[b] = a
    walk = [min(succ)]
    while len(walk) <= len(succ):
        walk.append(succ[walk[-1]])
    pts = tuple(
        tuple(tuple(beta * v for v in w[c].tolist()) for w in loop.level_weights)
        for c in walk
    )
    m = len(succ)
    proto = simplicial_protocol(
        gap=loop.gap,
        vertex_ids=tuple(f"t{i}" for i in range(m + 1)),
        level_weights=levels_of(pts),
        simplices=tuple((i,) for i in range(m + 1)) + tuple((i, i + 1) for i in range(m)),
    )
    return proto, pts


def pumped_flux(loop, beta, period, steps=4000, periods=4):
    """Net probability current through each edge, along its orientation,
    integrated over the last of `periods` periods of the loop protocol
    (Simpson's rule; segment ends must fall on even grid points)."""
    proto, pts = unrolled_loop(loop, beta)
    m = len(pts) - 1
    sd = state_diagram(proto.gap.parent)
    p = np.full(sd.graph.n_cells(0), 1.0 / sd.graph.n_cells(0))
    for _ in range(periods):
        times, traj = evolve(proto, p, 0.0, period, steps, tol=1e-6)
        p = traj[-1]
    e = np.array([wp[0] for wp in pts])
    w = np.array([wp[1] for wp in pts])
    tau = times / period * m
    seg = np.minimum(tau.astype(np.intp), m - 1)
    local = (tau - seg)[:, None]
    k = rates(sd, (1 - local) * e[seg] + local * e[seg + 1],
              (1 - local) * w[seg] + local * w[seg + 1])
    flux = np.zeros((len(times), sd.graph.n_cells(1)))
    for i, (s, _, a) in enumerate(sd.edges):
        # state_diagram lists each edge along its orientation, then against it
        flux[:, a] += (-1) ** i * k[:, i] * traj[:, s]
    simpson = np.ones(len(times))
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    return simpson @ flux * (times[1] - times[0]) / 3


def pumping_errors(loop):
    """Largest distance per edge between the flux pumped per period at
    beta 1 and the analytical class mapped through every column of the
    degree-1 homology basis (zero where b_1 = 0), at periods 10 and 100."""
    coords = quantization_sweep(loop, [1.0], loop.fundamental_cycle, [1]).rows[0].coords
    expected = loop.gap.parent_hq.hbasis.to_float() @ np.asarray(coords)
    return {period: np.max(np.abs(pumped_flux(loop, 1.0, period) - expected))
            for period in (10.0, 100.0)}


def test_pumped_flux_tends_to_the_analytical_class():
    # Sinitsyn & Nemenman, EPL 77 (2007) 58001: under slow periodic driving
    # the current per period tends to the loop integral of the adiabatic
    # current form, with an O(1/T) error
    err = pumping_errors(square_protocol())
    assert err[100.0] <= 2e-4
    assert err[10.0] >= 10 * err[100.0]


def test_pumped_flux_on_a_triangle_transversal_sphere():
    # the loop around an essential top cell of the triangle's weight space
    # pumps its class around the triangle's one cycle
    x = loads_complex(json.dumps({"name": "triangle", "cells": [["a", "b", "c"], ["ab", "bc", "ca"]],
                                  "boundary": [[[-1, 0, 1], [1, -1, 0], [0, 1, -1]]]}))
    loop = transversal_sphere(gap_complex(x, 0, 1), enumerate_top_discriminant_cells(x, 0, 1)[1:2])
    err = pumping_errors(loop)
    assert err[100.0] <= 2e-4
    assert err[10.0] >= 10 * err[100.0]


# graph -> (complex, number of distinct current matrices among its first
# 1024 top cells at (0, 1))
PUMPED_GRAPHS = {
    "triangle": (triangle_complex, 3),
    "star4": (lambda: graph_complex("star4", STAR4), 1),
    "k4": (lambda: complete_graph(4), 7),
}


@lru_cache(maxsize=len(PUMPED_GRAPHS))
def distinct_current_loops(name):
    """The transversal loop of the first cell of each distinct current
    matrix among the graph's first 1024 top cells (one weight-space chunk)."""
    x = PUMPED_GRAPHS[name][0]()
    gap = gap_complex(x, 0, 1)
    cells = enumerate_top_discriminant_cells(x, 0, 1)[:1024]
    first = {}
    for cell, report in zip(cells, classify_cell(gap, cells)):
        first.setdefault(report.current_matrix, cell)
    return [transversal_sphere(gap, [cell]) for cell in first.values()]


@pytest.mark.parametrize("name,i", [(name, i) for name, (_, n) in PUMPED_GRAPHS.items()
                                    for i in range(n)])
def test_every_distinct_current_is_pumped(name, i):
    # K4 has b_1 = 3, so its class is mapped through all three homology
    # columns; star4 is a tree, with no degree-1 homology to pump
    loops = distinct_current_loops(name)
    assert len(loops) == PUMPED_GRAPHS[name][1]
    err = pumping_errors(loops[i])
    if loops[i].gap.parent_hq.betti:
        assert err[100.0] <= 2e-4
        assert err[10.0] >= 10 * err[100.0]
    else:
        assert max(err.values()) <= 1e-9
