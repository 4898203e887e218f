"""The low-temperature law beyond the builtins.

On the generic protocols of tests/generic.py the analytical class must
reach the exact class once beta * gap >= 25, and its distance must fall
as e^(-beta * gap): the fitted log-slope within 2% of -gap on beta * gap
in [5, 20].  On the builtins and the generic protocols, the analytical
vertex block minus the exact one must be the deviation that
tests/asymptotics.py predicts from exact tree data.
"""

import numpy as np
import pytest

from hypercurrent.ana_hyper import jan_cochain, quantization_sweep
from hypercurrent.complex_core import gap_complex, sphere_wedge_complex
from hypercurrent.protocol import cube_protocol, cube_sphere_protocol, square_protocol

from asymptotics import vertex_deviation
from generic import SEEDS, generic_protocol, tie_gap, tie_gaps

GENERIC = [(q, seed) for q in (1, 2) for seed in SEEDS]
EPS = np.finfo(float).eps

# Generic protocols whose fitted slope breaks the 2% law, with the fitted
# slope over -gap.  Each has a second tie point whose gap lies within a
# few percent of the smallest, so on beta * gap <= 20 the distance is a
# sum of two exponentials of nearly equal rate and its slope lies between
# them.  The law is not met, and the marks are strict: a change that
# meets it fails here until its mark goes.
SLOPE_REFUTED = {(1, 0): 1.0269, (1, 1): 1.0244, (1, 3): 1.0248, (2, 0): 1.0220,
                 (2, 1): 1.0579, (2, 2): 1.0526, (2, 3): 1.0454}


def _slope_cases():
    for q, seed in GENERIC:
        ratio = SLOPE_REFUTED.get((q, seed))
        marks = () if ratio is None else pytest.mark.xfail(
            strict=True, reason=f"refuted: the fitted slope is {ratio} times -gap")
        yield pytest.param(q, seed, marks=marks, id=f"cube_sphere{q}-seed{seed}")


@pytest.mark.parametrize("q, seed", GENERIC)
def test_every_seed_gives_a_good_protocol(q, seed):
    assert generic_protocol(q, seed) is not None


def test_tie_gap_is_one_on_the_builtins():
    for q in (1, 2, 3):
        assert set(tie_gaps(cube_sphere_protocol(q))) == {1}


@pytest.mark.parametrize("q, seed", GENERIC)
def test_class_converges_once_beta_gap_reaches_25(q, seed):
    proto = generic_protocol(q, seed)
    gap = float(tie_gap(proto))
    sweep = quantization_sweep(proto, [25 / gap, 30 / gap], proto.fundamental_cycle, [1])
    assert max(row.distance for row in sweep.rows) <= 1e-6


@pytest.mark.parametrize("q, seed", list(_slope_cases()))
def test_fitted_slope_is_minus_the_gap(q, seed):
    proto = generic_protocol(q, seed)
    gap = float(tie_gap(proto))
    sweep = quantization_sweep(proto, [s / gap for s in (5, 10, 15, 20)],
                               proto.fundamental_cycle, [1])
    assert abs(sweep.slope / -gap - 1) <= 0.02


VERTEX_DOMAINS = [("square", square_protocol, 1.0)] + [
    (f"cube_sphere{q}", lambda q=q: cube_sphere_protocol(q), 1.0) for q in (1, 2)] + [
    (f"cube_wedge{q}", lambda q=q: cube_protocol(gap_complex(sphere_wedge_complex(q), 0, q)), 1.0)
    for q in (1, 2)] + [
    (f"generic{q}-seed{seed}", lambda q=q, seed=seed: generic_protocol(q, seed), None)
    for q, seed in GENERIC]


@pytest.mark.parametrize("name, make, gap", VERTEX_DOMAINS, ids=[d[0] for d in VERTEX_DOMAINS])
def test_vertex_deviation_is_predicted_by_the_trees(name, make, gap):
    # A float block near the identity holds its deviation only down to
    # its own rounding: at beta * gap 30 the deviation is 9.4e-14, and
    # floats near 1 are 2.2e-16 apart.  So the prediction must match to
    # 1e-12 relative, or to the rounding of the block's few operations,
    # 4 eps times its largest entry, where that is larger.
    proto = make()
    gap = gap or float(tie_gap(proto))
    num, den = proto.lift.stacks[0][0]
    exact = (num / den).astype(float)
    for scaled in (5, 10, 20, 30):
        stack = jan_cochain(proto, scaled / gap).stacks[0]
        for v, block in enumerate(stack):
            predicted = vertex_deviation(proto, v, scaled / gap)
            bound = 1e-12 * np.abs(predicted).max() + 4 * EPS * np.abs(block).max()
            assert np.abs(block - exact[v] - predicted).max() <= bound, (name, scaled, v)
