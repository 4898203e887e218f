import json
import math

import numpy as np
import pytest

from hypercurrent import ratlin
from hypercurrent.complex_core import gap_complex, loads_complex, sphere_complex
from hypercurrent.errors import StepTooLarge
from hypercurrent.graph_dynamics import (
    boltzmann,
    current_form,
    evolve,
    master_operator,
    rates,
    state_diagram,
)
from hypercurrent.protocol import SimplicialProtocol, WeightPoint, square_protocol


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
    wp = WeightPoint(0, 1, (tuple(e_vals), tuple(w_vals)))
    simplices = [(i,) for i in range(nverts)] + [(i, i + 1) for i in range(nverts - 1)]
    return SimplicialProtocol(
        gap=gap,
        vertex_ids=tuple(f"t{i}" for i in range(nverts)),
        vertex_weights=tuple(wp for _ in range(nverts)),
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
    d1 = ratlin.to_float(x.d(1), x.n_cells(0), x.n_cells(1))
    lap = d1 @ d1.T
    assert np.allclose(op.matrix, -lap)


def test_master_operator_equals_weighted_laplacian():
    x = segment_complex()
    sd = state_diagram(x)
    e = np.array([0.3, -0.4])
    w = np.array([0.9])
    op = master_operator(sd, e, w)
    d1 = ratlin.to_float(x.d(1), x.n_cells(0), x.n_cells(1))
    adj = (d1.T * np.exp(e)[None, :]) / np.exp(w)[:, None]
    assert np.allclose(op.matrix, -(d1 @ adj), atol=1e-12)


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
            j_general = ev.value @ delta
            assert np.max(np.abs(j_graph - j_general)) <= 1e-8


def test_current_form_constant_protocol_zero():
    proto = constant_path_protocol(segment_complex(), [0.0, 1.0], [0.2])
    val = current_form(proto, ((0, 1), [0.5]), np.array([1.0]))
    assert np.allclose(val, 0.0, atol=1e-14)
