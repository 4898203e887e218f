"""Finite CW complexes and exact chain-complex algebra.

A complex is a list of cell names per dimension plus integer boundary
matrices D_j (rows indexed by (j-1)-cells, columns by j-cells).  All
homology here is rational and computed by exact elimination; integer
torsion goes through Smith normal form.  The gap machinery produces the
shifted complex whose degree-j piece is the span of the (j+p)-cells of
the pair (q-skeleton, (p-1)-skeleton).  A process builds one gap per
distinct (complex content, p, q) and keeps the 16 most recently used,
least recently used out first, so every caller shares its memo.
"""

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import ratlin
from .errors import (
    BoundarySquareNonzero,
    Disconnected,
    GapViolated,
    NotPositivelyAcyclic,
    ParseError,
)
from .ratlin import QMat, smith_normal_form, torsion_order  # noqa: F401  (re-exported)

__all__ = [
    "CwComplex",
    "GapComplex",
    "GradedOperator",
    "HomologyData",
    "Contraction",
    "load_complex",
    "loads_complex",
    "dumps_complex",
    "sphere_complex",
    "sphere_wedge_complex",
    "collapsed_sphere_complex",
    "torsion_complex",
    "betti",
    "verify_gap",
    "gap_complex",
    "torsion_order",
    "smith_normal_form",
    "contraction",
    "eth",
]


@dataclass(frozen=True)
class CwComplex:
    """Cell names per dimension plus integer boundary matrices."""

    name: str
    cells: tuple          # cells[j] = tuple of j-cell names
    boundary: tuple       # boundary[j-1] = D_j (a QMat) for 1 <= j <= dim

    @property
    def dim(self):
        return len(self.cells) - 1

    def n_cells(self, j):
        if j < 0 or j > self.dim:
            return 0
        return len(self.cells[j])

    def d(self, j):
        """Boundary matrix D_j : C_j -> C_{j-1}; zero-shaped outside range."""
        if 1 <= j <= self.dim:
            return self.boundary[j - 1]
        return QMat.zeros(self.n_cells(j - 1), self.n_cells(j))

    def cell_index(self, j, name):
        return self.cells[j].index(name)


def _validate(name, cells, boundary):
    for j in range(2, len(cells)):
        prod = boundary[j - 2] @ boundary[j - 1]
        for (r, c), v in np.ndenumerate(prod.num):
            if v != 0:
                raise BoundarySquareNonzero(j, r, c, Fraction(v, prod.den))
    x = CwComplex(name, tuple(tuple(c) for c in cells), tuple(boundary))
    if betti(x, 0) != 1:
        raise Disconnected(f"{name}: beta_0 = {betti(x, 0)} != 1")
    return x


def loads_complex(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from exc
    return _from_doc(doc)


def _typed(value, kind, what):
    """value read as kind: a dict or list as it is, an integer as int()
    reads it; any other value is a ParseError naming what."""
    if kind is int:
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    elif isinstance(value, kind):
        return value
    raise ParseError(f"{what} must be {_KINDS[kind]}, got {value!r}")


_KINDS = {dict: "a JSON object", list: "a JSON list", int: "an integer"}


def _from_doc(doc):
    _typed(doc, dict, "a complex document")
    try:
        name = doc["name"]
        cells = [_typed(c, list, "an entry of complex field cells")
                 for c in _typed(doc["cells"], list, "complex field cells")]
        raw = [_typed(m, list, "an entry of complex field boundary")
               for m in _typed(doc["boundary"], list, "complex field boundary")]
    except KeyError as exc:
        raise ParseError(f"bad complex document: {exc}") from exc
    names = [name] + [nm for c in cells for nm in c]
    if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool) for v in names):
        raise ParseError("complex and cell names must be JSON strings or numbers")
    if len({isinstance(nm, str) for nm in names[1:]}) > 1:
        raise ParseError("cell names must be all JSON strings or all numbers")
    dim = len(cells) - 1
    if len(raw) != max(dim, 0):
        raise ParseError(f"{name}: expected {dim} boundary matrices, got {len(raw)}")
    boundary = []
    for j, mat in enumerate(raw, start=1):
        for row in mat:
            for v in _typed(row, list, f"a row of boundary matrix D_{j}"):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ParseError(f"non-integer boundary entry {v!r}")
        shape = (len(cells[j - 1]), len(cells[j]))
        if len(mat) != shape[0] or any(len(row) != shape[1] for row in mat):
            raise ParseError(f"{name}: D_{j} shape does not match cell counts")
        boundary.append(QMat.from_rows(mat, shape))
    return _validate(name, cells, boundary)


def load_complex(path):
    """Read and validate a complex-description JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_complex(fh.read())


def dumps_complex(x: CwComplex):
    doc = {
        "name": x.name,
        "cells": [list(c) for c in x.cells],
        "boundary": [[[int(v) for v in row] for row in d.to_rows()] for d in x.boundary],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def sphere_complex(q):
    """q-sphere with two hemispherical cells in each dimension 0..q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    cells = [(f"e{j}+", f"e{j}-") for j in range(q + 1)]
    boundary = []
    for j in range(1, q + 1):
        s = (-1) ** j
        boundary.append(QMat.from_rows([[1, s], [s, 1]], (2, 2)))
    return _validate(f"sphere{q}", cells, boundary)


def sphere_wedge_complex(q):
    """Same (q-1)-skeleton as the q-sphere; the two top cells are
    attached by the identity map and by a constant map."""
    if q < 1:
        raise ValueError("q must be >= 1")
    base = sphere_complex(q)
    cells = [tuple(c) for c in base.cells[:q]] + [(f"e{q}id", f"e{q}const")]
    top = QMat.from_rows([[1, 0], [(-1) ** q, 0]], (2, 2))
    boundary = list(base.boundary[: q - 1]) + [top]
    return _validate(f"wedge{q}", cells, boundary)


def collapsed_sphere_complex(q):
    """The two-cells-per-dimension q-sphere with its 0-skeleton collapsed
    to a point: one vertex, two cells in each dimension 1..q, gap [1,q]."""
    if q < 2:
        raise ValueError("q must be >= 2")
    base = sphere_complex(q)
    cells = [("pt",)] + [tuple(base.cells[j]) for j in range(1, q + 1)]
    boundary = [QMat.zeros(1, 2)] + list(base.boundary[1:])
    return _validate(f"collapsed_sphere{q}", cells, boundary)


def torsion_complex():
    """One vertex, one edge, and two 2-cells attached with degrees 2 and 3."""
    cells = [("v",), ("a",), ("u", "w")]
    boundary = [QMat.zeros(1, 1), QMat.from_rows([[2, 3]], (1, 2))]
    return _validate("TOR", cells, boundary)


def betti(x: CwComplex, j):
    """Rational Betti number via exact rank computation."""
    if j < 0 or j > x.dim:
        return 0
    return x.n_cells(j) - ratlin.rank(x.d(j)) - ratlin.rank(x.d(j + 1))


def verify_gap(x: CwComplex, p, q):
    """True iff beta_j(X) = 0 strictly between p and q; on failure the
    second component is the smallest violating degree.  beta_j is 0
    above dim(X), so no degree past it is read."""
    if not (0 <= p <= q):
        raise ValueError("need 0 <= p <= q")
    for j in range(p + 1, min(q, x.dim + 1)):
        if betti(x, j) != 0:
            return False, j
    return True, None


@dataclass(frozen=True)
class HomologyData:
    """Canonical cycle/boundary/homology bases for one degree.

    Columns of hbasis are the chosen representative cycles: the echelon
    completion of the boundary basis inside the cycle basis, scanning in
    the given cell order.  class_map is an exact left inverse of
    [bounds | hbasis], built in the same elimination that picks hbasis:
    it sends a cycle to its coordinates in that basis, so every class is
    one product with it.  That elimination runs on first use of either,
    so a degree whose classes are never read does not pay for it.
    """

    dim: int
    cycles: QMat
    bounds: QMat

    @cached_property
    def _basis(self):
        nb = self.bounds.shape[1]
        pivots, class_map = ratlin.pivot_left_inverse(ratlin.hstack(self.bounds, self.cycles))
        return self.cycles[:, [j - nb for j in pivots if j >= nb]], class_map

    @property
    def hbasis(self):
        return self._basis[0]

    @property
    def class_map(self):
        return self._basis[1]

    @property
    def betti(self):
        return self.cycles.shape[1] - self.bounds.shape[1]

    def class_of(self, chain):
        """Coordinates of a cycle's class in the chosen homology basis: a
        list of rationals for a list, a QMat of columns for a QMat."""
        coeffs = self.class_map @ chain
        if ratlin.hstack(self.bounds, self.hbasis) @ coeffs != chain:
            raise ValueError("chain is not a cycle (class undefined)")
        return coeffs[self.bounds.shape[1]:]

    def representative(self, coords):
        """The cycle with the given coordinates in the homology basis: a
        list of rationals for a list, a QMat of columns for a QMat."""
        n = coords.shape[0] if isinstance(coords, QMat) else len(coords)
        if n != self.betti:
            raise ValueError(f"class has {n} coordinates, homology has dimension {self.betti}")
        return self.hbasis @ coords


def _homology_data(n, d_in, d_out):
    """Subspace data in a degree of dimension n; d_out leaves the degree
    (may be None for the zero map), d_in arrives into it (may be None)."""
    cycles = QMat.identity(n) if d_out is None else ratlin.nullspace(d_out)
    bounds = QMat.zeros(n, 0) if d_in is None else ratlin.column_echelon_basis(d_in)
    return HomologyData(dim=n, cycles=cycles, bounds=bounds)


@dataclass(frozen=True)
class GapComplex:
    """Shifted rational complex of the pair (q-skeleton, (p-1)-skeleton).

    Degree j holds the (j+p)-cells of the parent for 0 <= j <= q-p;
    dbar[j] is the boundary from degree j to degree j-1.

    Data that depends on the gap alone is kept in one memo, read through
    derived(): each entry is built on first use and dropped with the gap.
    Every key names a function of the gap: "float_context" and
    "float_dbar" (float copies and the tree tables), ("dtree", level,
    cells) and ("tree_aux", tree key) (a tree and its contraction),
    ("tree", level, order type) (the greedy tree, which reads the order
    of the weights only), "restricted" (the last cell subset's kept
    matrix), "state_diagram" and "lifts" (the exact lift of every cell
    signature seen: a tree key, then the faces' signatures and signs,
    which fix the lift with no weight).  The boundaries are the gap's
    own kept QMats, whose eliminations every tree shares.
    """

    parent: CwComplex
    p: int
    q: int
    dbar: tuple
    homology: tuple      # HomologyData per degree 0..q-p
    hp_embed: QMat       # H_p(parent) -> H_0(shifted), chosen bases
    hq_project: QMat     # H_{q-p}(shifted) -> H_q(parent); None if q == p
    parent_hp: HomologyData
    parent_hq: HomologyData
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def derived(self, key, build):
        """The memo entry under key, built by build() on first use."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    @property
    def top(self):
        return self.q - self.p

    def dim_at(self, j):
        if j < 0 or j > self.top:
            return 0
        return self.parent.n_cells(j + self.p)

    def d(self, j):
        """Shifted boundary, degree j -> j-1; zero-shaped outside (0, top]."""
        if 1 <= j <= self.top:
            return self.dbar[j]
        return QMat.zeros(self.dim_at(j - 1), self.dim_at(j))

    def cells_at(self, j):
        return self.parent.cells[j + self.p] if 0 <= j <= self.top else ()


_GAPS = OrderedDict()   # content key -> GapComplex, least recently used first
# a one-shot hcl call never revisits a gap: only a process that cycles
# through more complexes than this misses, and pays what a fresh call pays
_GAPS_KEPT = 16


def gap_complex(x: CwComplex, p, q):
    """The gap complex of x at (p, q), shared by every call on equal
    content; a build that raises is not kept."""
    key = (x.name, x.cells, tuple((b.num.shape, b.den, tuple(b.num.flat)) for b in x.boundary),
           p, q)
    gap = _GAPS[key] = _GAPS.pop(key) if key in _GAPS else _build_gap(x, p, q)
    if len(_GAPS) > _GAPS_KEPT:
        _GAPS.popitem(last=False)
    return gap


def _build_gap(x: CwComplex, p, q):
    ok, j = verify_gap(x, p, q)
    if not ok:
        raise GapViolated(f"beta_{j}({x.name}) != 0 inside [{p},{q}]")
    if q > x.dim:
        raise GapViolated(f"q={q} exceeds dim {x.name} = {x.dim}")
    top = q - p
    bnd = {j: ratlin.kept(x.d(j)) for j in range(max(p, 1), q + 2)}
    dbar = [QMat.zeros(0, x.n_cells(p))] + [bnd[jj + p] for jj in range(1, top + 1)]
    homology = []
    for jj in range(top + 1):
        d_out = dbar[jj] if jj >= 1 else None
        d_in = dbar[jj + 1] if jj + 1 <= top else None
        homology.append(_homology_data(x.n_cells(jj + p), d_in, d_out))

    parent_hp, parent_hq = (_homology_data(x.n_cells(j), bnd[j + 1], bnd[j] if j >= 1 else None)
                            for j in (p, q))
    hp_embed = homology[0].class_of(parent_hp.hbasis)
    if top == 0:
        # every chain is a degree-0 class of the shifted complex, so the
        # projection onto degree-q homology only exists on actual cycles;
        # pairings take classes in the parent directly in this case
        hq_project = None
    else:
        hq_project = parent_hq.class_of(homology[top].hbasis)

    if ratlin.rank(hp_embed) != parent_hp.betti:
        raise GapViolated("embedding of degree-p homology is not injective")
    if top > 0 and ratlin.rank(hq_project) != parent_hq.betti:
        raise GapViolated("projection onto degree-q homology is not surjective")
    return GapComplex(
        parent=x,
        p=p,
        q=q,
        dbar=tuple(dbar),
        homology=tuple(homology),
        hp_embed=hp_embed,
        hq_project=hq_project,
        parent_hp=parent_hp,
        parent_hq=parent_hq,
    )


@dataclass
class GradedOperator:
    """Degree-n operator on a gap complex: one block per source degree.

    blocks[j] maps degree j to degree j+n: a QMat on the exact route, a
    float array on the analytical one, which may stack the blocks of many
    cells along a leading axis.  Missing blocks are exact zeros.
    """

    degree: int
    blocks: dict = field(default_factory=dict)


def eth(f: GradedOperator, gap: GapComplex):
    """Boundary in the endomorphism complex: d f - (-1)^n f d.  Float blocks
    meet the boundaries' float copies, kept with the gap; products through
    missing blocks or zero boundaries are skipped, as are empty degrees."""
    n = f.degree
    sign = (-1) ** n
    bnd = gap.dbar
    if not all(isinstance(b, QMat) for b in f.blocks.values()):
        bnd = gap.derived("float_dbar", lambda: tuple(m.to_float() for m in gap.dbar))
    out = {}
    for j in range(gap.top + 1):
        term = bnd[j + n] @ f.blocks[j] if j in f.blocks and 1 <= j + n <= gap.top else None
        if j >= 1 and j - 1 in f.blocks:
            right = sign * (f.blocks[j - 1] @ bnd[j])
            term = -right if term is None else term - right
        if term is not None:
            out[j] = term
    return GradedOperator(degree=n - 1, blocks=out)


@dataclass(frozen=True)
class Contraction:
    """Degree +1 operator h with d h + h d = id in positive degrees and
    id minus the harmonic projection in degree 0."""

    h: tuple      # h[j] : degree j -> j+1, a QMat
    pi0: QMat


def contraction(dims, boundaries):
    """Contracting homotopy of a bounded-below rational complex.

    dims[j] is the dimension in degree j; boundaries[j] maps degree j to
    degree j-1 for 1 <= j <= top.  Homology must vanish in positive
    degrees.  h is the standard-inner-product pseudoinverse of the
    boundary, hence rational and deterministic.
    """
    top = len(dims) - 1
    for j in range(1, top + 1):
        z = dims[j] - ratlin.rank(boundaries[j])
        b = ratlin.rank(boundaries[j + 1]) if j + 1 <= top else 0
        if z != b:
            raise NotPositivelyAcyclic(f"H_{j} has dimension {z - b}")
    hs = [ratlin.pinv(boundaries[j + 1]) for j in range(top)] + [QMat.zeros(0, dims[top])]
    # d1 h0 = d1 pinv(d1) is the orthogonal projector onto the degree-0 boundaries
    pi0 = QMat.identity(dims[0])
    if top >= 1:
        pi0 = pi0 - boundaries[1] @ hs[0]
    return Contraction(h=tuple(hs), pi0=pi0)
