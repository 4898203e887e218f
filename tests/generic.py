"""Generic protocols: seeded, order-preserving perturbations of the cube
sphere builtins, and the gap that sets their low-temperature law.

The builtin cube_sphere:q gives every vertex, on every level, the
weights (x_j, 0) with x_j = +-1, so each level's two cells differ by 1 at
every vertex and tie on the coordinate hyperplanes x_j = 0.
generic_protocol moves every vertex weight by its own uniform amount in
[-amplitude, amplitude].  Below 1/2 that keeps the order of each level's
weights at every vertex, and with them the triangulation, the
orientation and the fundamental cycle; the ties become oblique
hyperplanes.  A perturbation is kept only when is_good certifies it.

The gap: on a top simplex of the cycle, the analytical class collects
its error where all levels but one tie.  There the tied levels switch
trees, and the remaining level sits at its leading tree, off by
e^(-beta g) for its weight gap g at that point.  Vertex terms cancel
around the cycle: the class distance falls far faster than the smallest
vertex gap predicts.  tie_gap is the smallest such g over the cycle, as
an exact rational read from the vertex weights; it is 1 on the builtins.
"""

import dataclasses
from fractions import Fraction

import numpy as np

from hypercurrent.protocol import cube_sphere_protocol, is_good
from hypercurrent.ratlin import QMat, solve_matrix

# the perturbation amplitude per sphere dimension q
AMPLITUDE = {1: 0.3, 2: 0.2}
SEEDS = range(4)


def generic_protocol(q, seed):
    """cube_sphere:q with every vertex weight perturbed, uniformly in
    +-AMPLITUDE[q] under a seeded generator; None unless is_good
    certifies it."""
    proto = cube_sphere_protocol(q)
    rng = np.random.default_rng(seed)
    moved = tuple(w + rng.uniform(-AMPLITUDE[q], AMPLITUDE[q], size=w.shape)
                  for w in proto.level_weights)
    assert all((np.sign(a[:, 0] - a[:, 1]) == np.sign(b[:, 0] - b[:, 1])).all()
               for a, b in zip(moved, proto.level_weights)), "a level's order changed"
    generic = dataclasses.replace(proto, level_weights=moved)
    return generic if is_good(generic)[0] else None


def tie_gaps(proto):
    """For every top simplex of the cycle and every level: the level's
    weight gap at the point of the closed simplex where every other level
    ties, exactly, if there is one such point."""
    n = proto.gap.top + 1
    # per level, the signed difference of its two cells' weights at each vertex
    diffs = [[Fraction(a) - Fraction(b) for a, b in w.tolist()] for w in proto.level_weights]
    gaps = []
    for key in proto.fundamental_cycle:
        for free in range(n):
            # barycentric coordinates: they sum to 1, and every tied level's difference is 0
            rows = [[1] * n] + [[diffs[j][v] for v in key] for j in range(n) if j != free]
            point = solve_matrix(QMat.from_rows(rows, (n, n)),
                                 QMat.from_rows([[1]] + [[0]] * (n - 1), (n, 1)))
            if point is None:
                continue
            lam = [c for (c,) in point.to_rows()]
            if min(lam) >= 0:
                gaps.append(abs(sum(c * diffs[free][v] for c, v in zip(lam, key))))
    return sorted(gaps)


def tie_gap(proto):
    """The smallest of tie_gaps: the rate of the class's decay in beta."""
    return tie_gaps(proto)[0]
