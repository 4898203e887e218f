"""Topological and analytical hypercurrents of weight protocols on
finite CW complexes with a homological gap.

The exact side (complex_core, forests, protocol, topo_hyper,
weight_space) works over the rationals; the analytical side (ana_hyper,
graph_dynamics) is floating point and converges to the exact side in
the low-temperature limit.
"""

from .complex_core import (
    CwComplex,
    GapComplex,
    GradedOperator,
    betti,
    contraction,
    eth,
    gap_complex,
    load_complex,
    smith_normal_form,
    sphere_complex,
    sphere_wedge_complex,
    torsion_order,
    verify_gap,
)
from .forests import DTree, enumerate_dtrees, greedy_dtree, is_dtree, torsion_of, tree_right_inverse
from .protocol import (
    SimplicialProtocol,
    cube_sphere_protocol,
    is_good,
    load_protocol,
    smallness,
    square_protocol,
    weights_at,
)
from .topo_hyper import HyperCochain, hypercurrent_homology
from .ana_hyper import (
    axioms_check,
    jan_cochain,
    jan_form,
    jan_integrate,
    kirchhoff_pseudoinverse,
    quantization_sweep,
)
from .weight_space import classify_cell, enumerate_top_discriminant_cells, good_summand_count
from .graph_dynamics import evolve, master_operator, rates, state_diagram

__version__ = "0.1.0"

__all__ = [
    "CwComplex", "GapComplex", "GradedOperator", "betti", "contraction", "eth",
    "gap_complex", "load_complex", "smith_normal_form", "sphere_complex",
    "sphere_wedge_complex", "torsion_order", "verify_gap",
    "DTree", "enumerate_dtrees", "greedy_dtree", "is_dtree", "torsion_of",
    "tree_right_inverse",
    "SimplicialProtocol", "cube_sphere_protocol", "is_good",
    "load_protocol", "smallness", "square_protocol", "weights_at",
    "HyperCochain", "hypercurrent_homology",
    "axioms_check", "jan_cochain", "jan_form", "jan_integrate",
    "kirchhoff_pseudoinverse", "quantization_sweep",
    "classify_cell", "enumerate_top_discriminant_cells", "good_summand_count",
    "evolve", "master_operator", "rates", "state_diagram",
]
