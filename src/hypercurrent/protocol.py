"""Parameter spaces and piecewise-affine weight protocols.

A protocol assigns a weight point (one real number per cell in the gap
levels) to every vertex of an oriented simplicial parameter space and
interpolates affinely over simplices.  Because the data is affine per
simplex, injectivity of a level over a closed simplex is decided
exactly by strict sign agreement of pairwise differences at vertices;
no sampling is involved.  The weights are stored as level_weights, one
(n_vertices, n_cells) float array per level; vertex_weights and
weight_of are WeightPoint views of their rows, built when read, for
documents and weights_at.

Smallness and the exact lift read a parameter domain only through
dim_of and part_of, which name a failing cell, its cached certificate
and lift, and three array views: cell_index, the cells by dimension with
their vertices as one index array; face_rows, each dimension's faces as
rows of the dimension below with their signs; and level_weights, which
also fix each cell's tree.  The certificate and the lift hold cells as
cell_index rows: the certificate is two arrays in that order, and the
lift reads a cell's key only to name it.  The tests also run them on a
regular-CW cube domain.

A protocol's cells are one array of sorted vertex rows per dimension.
One np.unique pass over row codes closes a dimension under faces and
places every face (_cells_and_faces): it closes a loaded file's
simplices and, once per cube dimension, the Freudenthal triangulation of
the cube's boundary, and checks a hand-built protocol's face_rows.

A protocol may be a disjoint union of equal parts, numbered part by
part: cube_boundary_protocol builds one from stacked corner weights, one
cube each, offsetting the cube's cells and taking each cube's corner
weights as rows (weight space builds a chunk of transversal cubes so,
and the builtins their one cube).  part_of names a cell by its part and
its vertices within that part, which is how the lift reports a failing
cell, and part_cycles cuts the fundamental cycle into the parts'
cycles.
"""
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import topo_hyper
from .complex_core import GapComplex, _from_doc, _typed, dumps_complex, gap_complex, \
    load_complex, sphere_complex, sphere_wedge_complex, collapsed_sphere_complex, \
    torsion_complex
from .errors import (
    BadCoordinates,
    LevelMismatch,
    NotACycle,
    NotClosedUnderFaces,
    ParseError,
)

__all__ = [
    "WeightPoint",
    "SimplicialProtocol",
    "CellIndex",
    "SmallnessCertificate",
    "load_protocol",
    "loads_protocol",
    "dumps_protocol",
    "weights_at",
    "smallness",
    "is_good",
    "cube_corners",
    "cube_protocol",
    "cube_sphere_protocol",
    "square_protocol",
    "builtin_protocol",
    "simplex_faces",
]


@dataclass(frozen=True)
class WeightPoint:
    """One point of the weight space: a real vector per level p..q."""

    p: int
    q: int
    values: tuple  # values[j-p] = tuple of floats indexed like the j-cells

    def level(self, j):
        if not (self.p <= j <= self.q):
            raise LevelMismatch(f"level {j} outside [{self.p},{self.q}]")
        return self.values[j - self.p]


def _affine(points, coeffs):
    p, q = points[0].p, points[0].q
    vals = []
    for lvl in range(q - p + 1):
        n = len(points[0].values[lvl])
        vals.append(tuple(sum(c * pt.values[lvl][k] for c, pt in zip(coeffs, points)) for k in range(n)))
    return WeightPoint(p, q, tuple(vals))


def simplex_faces(key):
    """Codimension-one faces of a sorted vertex tuple with their signs: the
    face without vertex m has sign (-1)**m."""
    faces = list(itertools.combinations(key, len(key) - 1))
    faces.reverse()     # combinations leave out the last vertex first
    return list(zip(itertools.cycle((1, -1)), faces))


def _cells_and_faces(lower, upper, base):
    """One np.unique pass over the codes of the rows lower and of the faces
    of the rows upper, one column wider, face m of a row dropping its
    column m: the sorted distinct rows, the place among them of each row
    of lower, and of each face as an array (rows of upper, faces).  A row
    is coded as one number in base the vertex count, in Python ints where
    int64 could overflow."""
    n, width = upper.shape
    drop = np.nonzero(~np.eye(width, dtype=bool))[1].reshape(width, width - 1)
    rows = np.concatenate([lower, upper[:, drop].reshape(n * width, width - 1)])
    place = np.array([base ** e for e in range(width - 2, -1, -1)],
                     dtype=np.int64 if base ** (width - 1) < 2 ** 63 else object)
    _, first, places = np.unique(rows @ place, return_index=True, return_inverse=True)
    return rows[first], places[:len(lower)], places[len(lower):].reshape(n, width)


def _by_dim(simplices):
    """Vertex tuples as one row array per dimension, in the given order."""
    return [np.array([s for s in simplices if len(s) == n], dtype=np.intp).reshape(-1, n)
            for n in range(1, max(map(len, simplices), default=1) + 1)]


def _close(groups, base):
    """The closure under faces of the simplices groups[d] (rows of d + 1
    vertices), from the top down: the d-cells as sorted distinct rows, and
    for d > 0 the place among the (d-1)-cells of face m of each d-cell."""
    cells, places = [np.empty((0, len(groups) + 1), dtype=np.intp)], []
    for lower in reversed(groups):
        rows, _, faces = _cells_and_faces(lower, cells[0], base)
        cells.insert(0, rows)
        places.insert(0, faces)
    return cells[:-1], places[:-1]


def _cell_index(cells):
    """The CellIndex of the d-cells cells[d], sorted rows of vertices."""
    keys = tuple(itertools.chain.from_iterable(map(tuple, c.tolist()) for c in cells))
    vertices = np.concatenate([np.concatenate([c, np.repeat(c[:, :1], len(cells) - 1 - d, axis=1)],
                                              axis=1) for d, c in enumerate(cells)])
    return CellIndex(keys, tuple(itertools.accumulate(map(len, cells), initial=0)), vertices,
                     dict(zip(keys, range(len(keys)))))


def _face_rows(index, places):
    """face_rows from each dimension's face places: face m has sign (-1)**m."""
    none = np.zeros((index.offsets[1], 0), dtype=np.intp)
    return ((none, none),) + tuple((rows, np.broadcast_to((-1) ** np.arange(rows.shape[1]), rows.shape))
                                   for rows in places)


class CellIndex(NamedTuple):
    """A parameter domain's cells grouped by dimension, each dimension in
    all_cells order: the d-cells are keys[offsets[d]:offsets[d + 1]].
    Row i of vertices holds the vertices of cell keys[i] (in vertices_of
    order) as rows of the domain's level_weights, padded to the widest
    cell with the cell's first vertex.  position maps a cell to its place
    in keys."""

    keys: tuple
    offsets: tuple
    vertices: np.ndarray    # int array (number of cells, most vertices of a cell)
    position: dict


@dataclass(frozen=True, eq=False)
class SimplicialProtocol:
    """Oriented simplicial parameter space with a weight point per vertex.
    Protocols compare by identity: their weights are arrays."""

    gap: GapComplex
    vertex_ids: tuple            # vertex index -> id string
    level_weights: tuple         # per level p..q, (n_vertices, n_cells) float array
    simplices: tuple             # all faces, sorted vertex-index tuples
    orientation: dict = field(default_factory=dict)        # top key -> +-1
    fundamental_cycle: dict = field(default_factory=dict)  # key -> int coeff
    parts: int = 1               # equal parts, vertices numbered part by part

    # -- the parameter-domain interface read by smallness and the lift --

    def all_cells(self):
        return self.cell_index.keys

    def dim_of(self, key):
        return len(key) - 1

    def boundary_of(self, key):
        if len(key) == 1:
            return []
        return simplex_faces(key)

    def vertices_of(self, key):
        return [(v,) for v in key]

    def weight_of(self, vertex_key):
        gap, v = self.gap, vertex_key[0]
        return WeightPoint(gap.p, gap.q, tuple(tuple(w[v].tolist()) for w in self.level_weights))

    @cached_property
    def vertex_weights(self):
        """vertex index -> WeightPoint: level_weights by vertex, built on
        first read."""
        gap = self.gap
        rows = zip(*(map(tuple, w.tolist()) for w in self.level_weights))
        return tuple(WeightPoint(gap.p, gap.q, values) for values in rows)

    def part_of(self, key):
        """The part holding a cell, and the cell in that part's own vertex
        numbering."""
        size = len(self.vertex_ids) // self.parts
        part = key[0] // size
        return part, tuple(v - part * size for v in key)

    @cached_property
    def certificate(self):
        """The smallness certificate, computed on first use and then kept
        with the (immutable) protocol."""
        return smallness(self)

    @cached_property
    def lift(self):
        """The exact lift of every cell (topo_hyper.build_lift_cache),
        built on first use and then kept with the protocol."""
        return topo_hyper.build_lift_cache(self)

    @cached_property
    def cell_index(self):
        """The simplices by dimension, each dimension sorted; a simplex's
        vertices are its keys' entries, which index level_weights' rows."""
        return _cell_index([_cells_and_faces(rows, np.empty((0, rows.shape[1] + 1), dtype=np.intp),
                                             len(self.vertex_ids))[0]
                            for rows in _by_dim(self.simplices)])

    @cached_property
    def face_rows(self):
        """Per dimension d, (rows, signs) of shape (d-cells, d + 1): the m-th
        face, in boundary_of order, of the i-th d-cell of cell_index is the
        (d-1)-cell in place rows[i, m], with sign signs[i, m] (a read-only
        view).  A face outside the protocol raises."""
        index, base = self.cell_index, len(self.vertex_ids)
        cells = [index.vertices[a:b, :d + 1]
                 for d, (a, b) in enumerate(zip(index.offsets, index.offsets[1:]))]
        places = []
        for d in range(1, len(cells)):
            rows, known, faces = _cells_and_faces(cells[d - 1], cells[d], base)
            if len(rows) > len(cells[d - 1]):
                i, m = np.argwhere(~np.isin(faces, known))[0]
                raise NotClosedUnderFaces(f"face {tuple(rows[faces[i, m]].tolist())} of simplex "
                                          f"{index.keys[index.offsets[d] + i]} is not in the protocol")
            places.append(faces)
        return _face_rows(index, places)

    # -- conveniences --

    @property
    def dim(self):
        return max(len(s) for s in self.simplices) - 1

    def simplices_of_dim(self, k):
        return [s for s in self.simplices if len(s) == k + 1]

    def part_cycles(self):
        """The fundamental cycle cut into one cycle per part, in part order."""
        size = len(self.vertex_ids) // self.parts
        out = [{} for _ in range(self.parts)]
        for key, coeff in self.fundamental_cycle.items():
            out[key[0] // size][key] = coeff
        return out


def _validate_weights(gap, vertex_weights):
    """The WeightPoints vertex_weights as level_weights, once the first fault
    in vertex, level order is raised; when all are well shaped real
    numbers, by one test of the stacked weights."""
    levels = range(gap.p, gap.q + 1)
    if all((wp.p, wp.q, len(wp.values)) == (gap.p, gap.q, len(levels)) for wp in vertex_weights):
        try:
            stacks = [np.array([wp.values[j - gap.p] for wp in vertex_weights]) for j in levels]
        except ValueError:     # ragged: some length is wrong
            stacks = []
        if stacks and all(a.shape == (len(vertex_weights), gap.parent.n_cells(j))
                          and a.dtype.kind in "biuf" for a, j in zip(stacks, levels)):
            if not all(np.isfinite(a).all() for a in stacks):
                raise LevelMismatch("non-finite weight entry")
            return tuple(a.astype(float) for a in stacks)
    for wp in vertex_weights:
        if wp.p != gap.p or wp.q != gap.q:
            raise LevelMismatch("weight point levels do not match the gap")
        for j in levels:
            if len(wp.level(j)) != gap.parent.n_cells(j):
                raise LevelMismatch(f"level {j} weight vector has length {len(wp.level(j))}, "
                                    f"expected {gap.parent.n_cells(j)}")
            if not all(map(math.isfinite, wp.level(j))):
                raise LevelMismatch("non-finite weight entry")
    return tuple(np.array([wp.values[j - gap.p] for wp in vertex_weights], dtype=float)
                 .reshape(len(vertex_weights), gap.parent.n_cells(j)) for j in levels)


def _protocol(gap, vertex_ids, level_weights, index, places, orientation, cycle, parts=1):
    """The protocol over closed cells with their cell_index and face
    places already made, which it keeps rather than derive again."""
    proto = SimplicialProtocol(gap, tuple(vertex_ids), tuple(level_weights), index.keys,
                               dict(orientation), dict(cycle), parts)
    proto.__dict__.update(cell_index=index, face_rows=_face_rows(index, places))
    return proto


def _validate_protocol(gap, vertex_ids, vertex_weights, simplices, orientation, cycle):
    """The protocol closing the given sorted vertex tuples and every vertex
    under faces, once its weights (WeightPoints), simplices, signs and cycle
    are checked."""
    levels = _validate_weights(gap, vertex_weights)
    groups = _by_dim(simplices)
    if not all((np.diff(rows, axis=1) > 0).all() for rows in groups):
        bad = next(s for s in simplices if list(s) != sorted(set(s)))
        raise ParseError(f"simplex {bad} is not a strictly sorted vertex tuple")
    if any(sign not in (1, -1) for sign in orientation.values()):
        raise ParseError("orientation signs must be +-1")
    groups[0] = np.concatenate([groups[0], np.arange(len(vertex_ids))[:, None]])
    cells, places = _close(groups, len(vertex_ids))
    index = _cell_index(cells)
    for key in cycle:
        if key not in index.position:
            raise NotACycle(f"cycle names simplex {','.join(vertex_ids[v] for v in key)}, "
                            "which is not a simplex of the protocol")
    return _protocol(gap, vertex_ids, levels, index, places, orientation, cycle)


# --- documents --------------------------------------------------------------

_BUILTIN_COMPLEXES = {
    "sphere": sphere_complex,
    "sphere_wedge": sphere_wedge_complex,
    "collapsed_sphere": collapsed_sphere_complex,
}


def _resolve_complex(spec, base_dir=None):
    if isinstance(spec, str):
        path = spec if base_dir is None else os.path.join(base_dir, spec)
        return load_complex(path)
    if isinstance(spec, dict):
        if "path" in spec:
            return _resolve_complex(spec["path"], base_dir)
        if "inline" in spec:
            return _from_doc(spec["inline"])
        kind = spec.get("builtin")
        if kind == "torsion":
            return torsion_complex()
        if isinstance(kind, str) and kind in _BUILTIN_COMPLEXES:
            q = _typed(spec["q"], int, "complex field q")
            if q > _BUILTIN_Q_MAX:
                raise ParseError(f"builtin complex {kind} takes q at most {_BUILTIN_Q_MAX}, got {q}")
            return _BUILTIN_COMPLEXES[kind](q)
    raise ParseError(f"cannot resolve complex spec {spec!r}")


def _floats(values, what):
    """A JSON list of numbers (or strings float() reads) as a tuple of floats."""
    try:
        return tuple(map(float, _typed(values, list, what)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must hold numbers: {exc}") from exc


def _vertex_key(index, vids, where):
    """The sorted numbers of the vertices named vids, which where
    references; the first unknown name raises."""
    try:
        return tuple(sorted(index[v] for v in vids))
    except (KeyError, TypeError):   # a name of no vertex, or one of no JSON string or number
        bad = next(v for v in vids if isinstance(v, (list, dict)) or v not in index)
        raise NotClosedUnderFaces(f"{where} references unknown vertex {bad!r}") from None


def loads_protocol(text, base_dir=None):
    """The protocol a JSON document describes.  Each field's JSON type is
    checked where it is read; one of the wrong type is a ParseError
    naming it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from exc
    _typed(doc, dict, "a protocol document")
    if "builtin" in doc:
        b = _typed(doc["builtin"], dict, "protocol field builtin")
        return builtin_protocol(b.get("type"), _typed(b.get("q", 2), int, "builtin field q"))
    try:
        x = _resolve_complex(doc["complex"], base_dir)
        p, q = (_typed(doc[f], int, f"protocol field {f}") for f in "pq")
        gap = gap_complex(x, p, q)
        ids, weights = [], []
        for v in _typed(doc["vertices"], list, "protocol field vertices"):
            v = _typed(v, dict, "a protocol vertex")
            ids.append(v["id"])
            w = _typed(v["weights"], dict, f"the weights of vertex {v['id']!r}")
            weights.append(WeightPoint(p, q, tuple(
                _floats(w[str(j)], f"level {j} of vertex {v['id']!r}") for j in range(p, q + 1))))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad protocol document: {exc}") from exc
    if any(isinstance(vid, (list, dict)) for vid in ids):
        raise ParseError("protocol vertex ids must be JSON strings or numbers")
    _refuse_unnamable_ids(ids, bool(doc.get("cycle")), ParseError)
    id_index = {vid: k for k, vid in enumerate(ids)}
    simplices = []
    orientation = {}
    for i, s in enumerate(_typed(doc.get("simplices", []), list, "protocol field simplices")):
        s = _typed(s, dict, "a protocol simplex")
        try:
            vids = _typed(s["vertices"], list, "a simplex's vertices")
        except KeyError as exc:
            raise NotClosedUnderFaces(f"simplex references unknown vertex {exc}") from exc
        if not vids:
            raise ParseError(f"simplex {i} of protocol field simplices has no vertices")
        key = _vertex_key(id_index, vids, "simplex")
        simplices.append(key)
        if "orientation" in s:
            orientation[key] = _typed(s["orientation"], int, "a simplex's orientation")
    cycle = {}
    for ckey, coeff in _typed(doc.get("cycle", {}), dict, "protocol field cycle").items():
        key = _vertex_key(id_index, ckey.split(","), "cycle")
        cycle[key] = _typed(coeff, int, f"the cycle coefficient of {ckey}")
    return _validate_protocol(gap, ids, weights, simplices, orientation, cycle)


def load_protocol(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_protocol(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def _refuse_unnamable_ids(ids, cycle, error):
    """Raises error naming the first vertex id that a stored cycle key
    cannot name.  A key joins vertex ids with commas into one string, so
    no id may hold a comma, and with a cycle every id must be a string."""
    bad = next((vid for vid in ids if isinstance(vid, str) and "," in vid), None)
    if bad is not None:
        raise error(f"vertex id {bad!r} holds a comma, the separator of cycle keys")
    bad = next((vid for vid in ids if not isinstance(vid, str)), None) if cycle else None
    if bad is not None:
        raise error(f"vertex id {bad!r} is not a string, and the stored cycle names vertices "
                    "by string")


def dumps_protocol(proto: SimplicialProtocol, complex_ref=None):
    _refuse_unnamable_ids(proto.vertex_ids, bool(proto.fundamental_cycle), ValueError)
    gap = proto.gap
    doc = {
        "complex": complex_ref
        if complex_ref is not None
        else {"inline": json.loads(dumps_complex(gap.parent))},
        "p": gap.p,
        "q": gap.q,
        "vertices": [
            {
                "id": proto.vertex_ids[k],
                "weights": {
                    str(j): list(proto.vertex_weights[k].level(j))
                    for j in range(gap.p, gap.q + 1)
                },
            }
            for k in range(len(proto.vertex_ids))
        ],
        "simplices": [
            {
                "vertices": [proto.vertex_ids[v] for v in s],
                **({"orientation": proto.orientation[s]} if s in proto.orientation else {}),
            }
            for s in proto.simplices
            if len(s) - 1 == proto.dim
        ],
        "cycle": {
            ",".join(proto.vertex_ids[v] for v in key): coeff
            for key, coeff in proto.fundamental_cycle.items()
        },
    }
    return json.dumps(doc, indent=1, sort_keys=True)


# --- evaluation and smallness ------------------------------------------------


def weights_at(proto: SimplicialProtocol, simplex, coords):
    """Affine weight point at barycentric coordinates of a simplex."""
    key = tuple(simplex)
    coords = [float(c) for c in coords]
    if len(coords) != len(key):
        raise BadCoordinates("coordinate count does not match the simplex")
    if not all(map(math.isfinite, coords)):
        raise BadCoordinates(f"barycentric coordinates must be finite, got {coords}")
    if any(c < -1e-12 for c in coords) or abs(sum(coords) - 1.0) > 1e-9:
        raise BadCoordinates("barycentric coordinates must be nonnegative and sum to 1")
    pts = [proto.vertex_weights[v] for v in key]
    return _affine(pts, coords)


@dataclass(frozen=True, eq=False)
class SmallnessCertificate:
    """Per cell, in cell_index order: levels[i, k - p] is whether level k
    is injective on the whole closed cell i, and least[i] the least such
    level, -1 where there is none."""

    levels: np.ndarray    # bool (cells, q - p + 1)
    least: np.ndarray     # int (cells,)


def smallness(domain) -> SmallnessCertificate:
    """Exact stratification certificate for a protocol or CW domain.

    A level is certified on a cell iff every pairwise weight difference
    has one strict sign at all vertices of the closure; affine functions
    on convex cells attain extrema at vertices, so this is not a
    sampling test.  That holds iff every vertex of the cell ranks the
    level's cells strictly (no ties) and all of them rank them alike, so
    each level is one ranking per vertex, gathered over all cells at once
    through their vertex index array; a padded entry repeats a vertex,
    which changes neither test.
    """
    gap = domain.gap
    cells = domain.cell_index
    ok = np.empty((len(cells.keys), gap.q - gap.p + 1), dtype=bool)
    for col, w in enumerate(domain.level_weights):
        rank = np.argsort(w, axis=1)
        ranked = np.sort(w, axis=1)
        strict = (ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        ranks = rank[cells.vertices]
        ok[:, col] = (ranks == ranks[:, :1]).all(axis=(1, 2)) & strict[cells.vertices].all(axis=1)
    return SmallnessCertificate(ok, np.where(ok.any(axis=1), ok.argmax(axis=1) + gap.p, -1))


def is_good(domain):
    """True iff every cell of the domain has an injective level; on
    failure also returns the first offending cell in cell_index order."""
    bad = np.flatnonzero(domain.certificate.least < 0)
    if len(bad):
        return False, domain.cell_index.keys[bad[0]]
    return True, None


# --- cube protocols ----------------------------------------------------------


def _permutation_signs(perms):
    """The sign of each row of perms, an integer array of permutations:
    -1 to the number of inversions."""
    inversions = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2))
    return 1 - 2 * (inversions % 2)


def cube_corners(n):
    """The corners of [-1,1]^n in sorted order, as a (2^n, n) array of
    +-1: corner k has +1 on axis a iff bit n-1-a of k is set."""
    return 2 * (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1) & 1) - 1


@lru_cache(maxsize=8)
def _cube_boundary(n):
    """The triangulated boundary of [-1,1]^n, built once per n: the sorted
    corners, the cells and face places as _close gives them, and each top
    cell's coefficient in the fundamental cycle.

    The facet {x_axis = side} holds one top cell per order perm of its
    free axes (Freudenthal): the walk from its lowest corner raising them
    in that order.  Raising axis a adds 2^(n-1-a) to a corner's index, so
    the walk is a sorted row.  Its sign is that of perm times side *
    (-1)**axis, the facet's sign in the boundary; the first top cell's is +1.
    """
    corners = sorted(itertools.product((-1, 1), repeat=n))
    perms = np.array(list(itertools.permutations(range(n - 1))), dtype=np.intp)
    bit = 1 << np.arange(n - 1, -1, -1)
    free = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    shape = (n, 2, len(perms))                                 # (axis, side, perm)
    start = np.broadcast_to(np.outer(bit, (0, 1))[:, :, None, None], shape + (1,))
    raised = np.broadcast_to(bit[free[:, perms]][:, None], shape + (n - 1,))
    tops = np.concatenate([start, raised], axis=3).cumsum(axis=3).reshape(-1, n)
    signs = (np.outer((-1) ** np.arange(n), (-1, 1))[:, :, None]
             * _permutation_signs(perms)).reshape(-1)
    coeffs = signs[np.lexsort(tops.T[::-1])]                   # in sorted row order
    cells, places = _close([np.empty((0, d + 1), dtype=np.intp) for d in range(n - 1)] + [tops], 2 ** n)
    return tuple(corners), cells, places, tuple((coeffs[0] * coeffs).tolist())


def cube_boundary_protocol(gap: GapComplex, corner_weights):
    """The disjoint union of boundary-of-cube protocols, one cube and one
    part per row of corner_weights: per level p..q, an array (cubes,
    2^(q-p+1), n_cells) of each cube's corner weights, corner k being row
    k of cube_corners.

    A cube is the boundary of [-1,1]^(q-p+1) as _cube_boundary makes it,
    offset per cube: cube i's vertices are numbered from i * 2^(q-p+1),
    with the id prefix "i." when there are several, and its corners'
    weights are rows of level_weights from there on.  The fundamental
    cycle is the sum of the cubes' cycles (part_cycles() parts them)."""
    n = gap.q - gap.p + 1
    corners, cube_cells, cube_places, coeffs = _cube_boundary(n)
    weights = [np.asarray(w, dtype=float) for w in corner_weights]
    cubes = len(weights[0]) if weights else 0
    if not cubes:
        raise ValueError("no cube to build: an empty sequence of cubes (top cells)")
    if [w.shape for w in weights] != [(cubes, len(corners), gap.parent.n_cells(j))
                                      for j in range(gap.p, gap.q + 1)]:
        raise LevelMismatch("corner weights do not match the gap's levels")
    if not all(np.isfinite(w).all() for w in weights):
        raise LevelMismatch("non-finite weight entry")
    ids = ["c" + "".join("p" if s > 0 else "m" for s in c) for c in corners]
    if cubes > 1:
        ids = [f"{i}.{cid}" for i in range(cubes) for cid in ids]
    cube = np.arange(cubes, dtype=np.intp)[:, None, None]
    index = _cell_index([(cube * len(corners) + c).reshape(-1, c.shape[1]) for c in cube_cells])
    places = [(cube * len(lower) + f).reshape(-1, f.shape[1])
              for lower, f in zip(cube_cells, cube_places)]
    cycle = dict(zip(index.keys[index.offsets[-2]:], coeffs * cubes))
    return _protocol(gap, ids, [w.reshape(-1, w.shape[2]) for w in weights], index, places,
                     cycle, cycle, parts=cubes)


def cube_protocol(gap: GapComplex, signs=None):
    """Boundary-of-cube protocol for a gap with two cells per level: the
    cube coordinate x_j drives the first cell of level p+j (times
    signs[j]), the second cell stays at weight zero."""
    n = gap.q - gap.p + 1
    if any(gap.parent.n_cells(j) != 2 for j in range(gap.p, gap.q + 1)):
        raise ValueError("cube protocol needs exactly two cells per gap level")
    weights = np.zeros((n, 1, 2 ** n, 2))
    weights[:, 0, :, 0] = (cube_corners(n) * (1 if signs is None else np.asarray(signs))).T
    return cube_boundary_protocol(gap, weights)


def cube_sphere_protocol(q):
    """The boundary-of-cube protocol over the two-cell q-sphere."""
    return cube_protocol(gap_complex(sphere_complex(q), 0, q))


def square_protocol():
    """The square-boundary protocol over the circle, with the level-1
    weight flipped so the top edge prefers the first 1-cell."""
    gap = gap_complex(sphere_complex(1), 0, 1)
    return cube_protocol(gap, signs=[1, -1])


# the largest q of a builtin protocol or complex (cube_sphere:7 has 1 637 504
# cells; q = 9 needs 554 MiB of rows)
_BUILTIN_Q_MAX = 7


def builtin_protocol(kind, q):
    """The builtin protocol named kind: "cube_sphere" or "cube_wedge" at
    top level q (at most _BUILTIN_Q_MAX), or "square" (which ignores q)."""
    if kind in ("cube_sphere", "cube_wedge") and q > _BUILTIN_Q_MAX:
        raise ParseError(f"builtin {kind} takes q at most {_BUILTIN_Q_MAX}, got {q}")
    if kind == "cube_sphere":
        return cube_sphere_protocol(q)
    if kind == "cube_wedge":
        return cube_protocol(gap_complex(sphere_wedge_complex(q), 0, q))
    if kind == "square":
        return square_protocol()
    raise ParseError(f"unknown builtin protocol {kind!r}")
