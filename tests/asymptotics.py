"""The analytical vertex block's deviation from the exact block, predicted
from exact tree data alone, with no fit in beta.

At a vertex the analytical degree-0 block is alpha0 = I + B K_0: K_0 is
the average of the co-trees' right inverses R_T under the Kirchhoff
weights tau_T^2 e^(-beta W_T) (Catanzaro, Chernyak & Klein, Homology
Homotopy Appl. 17 (2015)), and B the bounds of degree 0.  The exact
block is I + B R_T* for the greedy co-tree T*.  The weights rho_T sum to
1, so the deviation is B sum_{T != T*} rho_T (R_T - R_T*).  Each rho_T is
formed relative to T*, from the exact torsions and the exact weight
differences W_T - W_T*, so it keeps its relative precision however small
it is.
"""

import math
from fractions import Fraction

import numpy as np

from hypercurrent.forests import enumerate_dtrees, greedy_dtree


def vertex_deviation(proto, vertex, beta):
    """The predicted analytical minus exact degree-0 block at a vertex of
    the protocol, a float matrix."""
    gap = proto.gap
    weights = dict(zip(gap.cells_at(0), proto.level_weights[0][vertex].tolist()))
    star = greedy_dtree(gap, gap.p, weights)

    def log_weight(tree):
        # log(tau_T^2 e^(-beta W_T)) - log e^(-beta W_T*), W_T - W_T* exact
        diff = sum(Fraction(weights[c]) for c in tree.cells) - \
            sum(Fraction(weights[c]) for c in star.cells)
        return 2 * math.log(tree.torsion) - beta * float(diff)

    others = [t for t in enumerate_dtrees(gap, gap.p) if t.cells != star.cells]
    logs = [log_weight(t) for t in others]
    total = star.torsion ** 2 + sum(map(math.exp, logs))
    bounds = gap.homology[0].bounds
    out = np.zeros((gap.dim_at(0), gap.dim_at(0)))
    for tree, lw in zip(others, logs):
        out += math.exp(lw) / total * (bounds @ (tree.right_inverse - star.right_inverse)).to_float()
    return out
