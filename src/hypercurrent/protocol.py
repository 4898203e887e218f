"""Parameter spaces and piecewise-affine weight protocols.

A protocol assigns real weights, one per cell of each gap level, to
every vertex of an oriented simplicial parameter space and interpolates
affinely over simplices.  Because the data is affine per simplex,
injectivity of a level over a closed simplex is decided exactly by
strict sign agreement of pairwise differences at vertices; no sampling
is involved.  The weights are level_weights, one (n_vertices, n_cells)
float array per level: a document lists a vertex's rows, and weights_at
returns one row per level.

Smallness and the exact lift read a parameter domain only through
dim_of and part_of, which name a failing cell, its cached certificate
and lift, and three array views: cell_index, the cells by dimension with
their vertices as one index array; face_rows, each dimension's faces as
rows of the dimension below with their signs; and level_weights, which
smallness alone reads.  Both hold cells as cell_index rows: the
certificate numbers each cell's order type at its least level, which
fixes the cell's tree, and the lift reads a key only to name a cell.
The tests also run them on a regular-CW cube domain.

A protocol's cells are one array of sorted vertex rows per dimension,
closed under faces by its builder, simplicial_protocol or
cube_boundary_protocol.  One np.unique pass over row codes closes a
dimension under faces and places every face (_cells_and_faces): it
closes a document's simplices and, once per cube dimension, the
Freudenthal triangulation of the cube's boundary.

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
from dataclasses import dataclass
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
    "SimplicialProtocol",
    "simplicial_protocol",
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


def simplex_faces(key):
    """Codimension-one faces of a sorted vertex tuple with their signs: the
    face without vertex m has sign (-1)**m."""
    faces = list(itertools.combinations(key, len(key) - 1))
    faces.reverse()     # combinations leave out the last vertex first
    return list(zip(itertools.cycle((1, -1)), faces))


def _codes(rows, base):
    """Rows of entries below base as numbers in base base, in the rows'
    lexicographic order; Python ints where int64 could overflow."""
    width = rows.shape[1]
    place = np.array([base ** e for e in range(width - 1, -1, -1)],
                     dtype=np.int64 if base ** width < 2 ** 63 else object)
    return rows @ place


def _cells_and_faces(lower, upper, base):
    """One np.unique pass over the codes of the rows lower and of the faces
    of the rows upper, one column wider, face m of a row dropping its
    column m: the sorted distinct rows, the place among them of each row
    of lower, and of each face as an array (rows of upper, faces)."""
    n, width = upper.shape
    drop = np.nonzero(~np.eye(width, dtype=bool))[1].reshape(width, width - 1)
    rows = np.concatenate([lower, upper[:, drop].reshape(n * width, width - 1)])
    _, first, places = np.unique(_codes(rows, base), return_index=True, return_inverse=True)
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
    """Oriented simplicial parameter space with one row of weights per
    vertex and level, over cells closed under faces: simplicial_protocol
    and cube_boundary_protocol build it.  cell_index holds the cells by
    dimension, each dimension sorted; a cell's vertices are its key's
    entries, which index level_weights' rows.  face_rows holds per
    dimension d (rows, signs) of shape (d-cells, d + 1): the m-th face,
    in boundary_of order, of the i-th d-cell is the (d-1)-cell in place
    rows[i, m], with sign signs[i, m] (a read-only view).  Protocols
    compare by identity: their weights are arrays."""

    gap: GapComplex
    vertex_ids: tuple            # vertex index -> id string
    level_weights: tuple         # per level p..q, (n_vertices, n_cells) float array
    cell_index: CellIndex
    face_rows: tuple             # per dimension, (rows, signs)
    orientation: dict            # top key -> +-1
    fundamental_cycle: dict      # key -> int coeff
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

    # -- conveniences --

    @property
    def dim(self):
        return len(self.cell_index.offsets) - 2

    def simplices_of_dim(self, k):
        index = self.cell_index
        return list(index.keys[index.offsets[k]:index.offsets[k + 1]]) if 0 <= k <= self.dim else []

    def part_cycles(self):
        """The fundamental cycle cut into one cycle per part, in part order."""
        size = len(self.vertex_ids) // self.parts
        out = [{} for _ in range(self.parts)]
        for key, coeff in self.fundamental_cycle.items():
            out[key[0] // size][key] = coeff
        return out


def simplicial_protocol(gap, vertex_ids, level_weights, simplices, orientation=(), cycle=()):
    """The protocol with the given level arrays over the closure under
    faces of the given strictly sorted vertex tuples and every vertex,
    once its cycle is checked.  orientation maps top keys to +-1 and
    cycle keys to integer coefficients; both are empty by default."""
    groups = _by_dim(simplices)
    groups[0] = np.concatenate([groups[0], np.arange(len(vertex_ids))[:, None]])
    cells, places = _close(groups, len(vertex_ids))
    index = _cell_index(cells)
    for key in cycle:
        if key not in index.position:
            raise NotACycle(f"cycle names simplex {','.join(vertex_ids[v] for v in key)}, "
                            "which is not a simplex of the protocol")
    return SimplicialProtocol(gap, tuple(vertex_ids), tuple(level_weights), index,
                              _face_rows(index, places), dict(orientation), dict(cycle))


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
    """A JSON list of numbers, none of them a bool, as a tuple of floats."""
    for v in _typed(values, list, what):
        if type(v) not in (int, float):
            raise ParseError(f"{what} must hold JSON numbers, got {v!r}")
    try:
        return tuple(map(float, values))
    except OverflowError as exc:
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
    naming it.  A weight entry is a JSON number and an integer field a
    JSON integer, neither of them a bool."""
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
        ids, rows = [], []
        for v in _typed(doc["vertices"], list, "protocol field vertices"):
            v = _typed(v, dict, "a protocol vertex")
            ids.append(v["id"])
            w = _typed(v["weights"], dict, f"the weights of vertex {v['id']!r}")
            rows.append([_floats(w[str(j)], f"level {j} of vertex {v['id']!r}")
                         for j in range(p, q + 1)])
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
    bad = next((s for s in simplices if len(set(s)) < len(s)), None)
    if bad is not None:
        raise ParseError(f"simplex {bad} is not a strictly sorted vertex tuple")
    if any(sign not in (1, -1) for sign in orientation.values()):
        raise ParseError("orientation signs must be +-1")
    sizes = [gap.parent.n_cells(j) for j in range(p, q + 1)]
    for levels in rows:     # the first fault in vertex, then level order
        for j, row, size in zip(range(p, q + 1), levels, sizes):
            if len(row) != size:
                raise LevelMismatch(f"level {j} weight vector has length {len(row)}, expected {size}")
            if not all(map(math.isfinite, row)):
                raise LevelMismatch("non-finite weight entry")
    weights = [np.array([levels[k] for levels in rows], dtype=float).reshape(len(rows), size)
               for k, size in enumerate(sizes)]
    return simplicial_protocol(gap, ids, weights, simplices, orientation, cycle)


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
    gap, top = proto.gap, proto.dim
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
                    str(j): proto.level_weights[j - gap.p][k].tolist()
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
            for s in proto.simplices_of_dim(top)
        ],
        "cycle": {
            ",".join(proto.vertex_ids[v] for v in key): coeff
            for key, coeff in proto.fundamental_cycle.items()
        },
    }
    return json.dumps(doc, indent=1, sort_keys=True)


# --- evaluation and smallness ------------------------------------------------


def weights_at(proto: SimplicialProtocol, simplex, coords):
    """The weights at barycentric coordinates of a simplex of the protocol,
    one float array per level p..q, affine in the vertices' rows."""
    key = tuple(simplex)
    if key not in proto.cell_index.position:
        raise BadCoordinates(f"{key} is not a simplex of the protocol")
    coords = [float(c) for c in coords]
    if len(coords) != len(key):
        raise BadCoordinates("coordinate count does not match the simplex")
    if not all(map(math.isfinite, coords)):
        raise BadCoordinates(f"barycentric coordinates must be finite, got {coords}")
    if any(c < -1e-12 for c in coords) or abs(sum(coords) - 1.0) > 1e-9:
        raise BadCoordinates("barycentric coordinates must be nonnegative and sum to 1")
    return tuple(sum(c * w[v] for c, v in zip(coords, key)) for w in proto.level_weights)


@dataclass(frozen=True, eq=False)
class SmallnessCertificate:
    """Per cell, in cell_index order: levels[i, k - p] is whether level k
    is injective on the whole closed cell i, least[i] the least such level
    and order[i] its order type's number, both -1 where there is none.
    rankings[k - p] holds level k's distinct strict rankings, sorted: row
    order[i] of rankings[least[i] - p] ranks that level's cells on cell i."""

    levels: np.ndarray    # bool (cells, q - p + 1)
    least: np.ndarray     # int (cells,)
    order: np.ndarray     # int (cells,)
    rankings: tuple       # per level p..q, int (rankings, n_cells)


def smallness(domain) -> SmallnessCertificate:
    """Exact stratification certificate for a protocol or CW domain.

    A level is certified on a cell iff every pairwise weight difference
    has one strict sign at all vertices of the closure; affine functions
    on convex cells attain extrema at vertices, so this is not a
    sampling test.  That holds iff every vertex of the cell ranks the
    level's cells strictly (no ties) and all of them rank them alike: a
    vertex's stable argsort of a level is numbered by its row code among
    the level's distinct strict rankings (lexicographic order), -1 where
    it ties, and a cell is certified iff its vertices carry one number
    >= 0, read in one gather through their vertex index array (whose
    padding repeats a vertex).
    """
    rankings, numbers = [], []
    for w in domain.level_weights:
        rank = np.argsort(w, axis=1, kind="stable")
        strict = (np.diff(np.sort(w, axis=1), axis=1) > 0).all(axis=1)
        numbers.append(np.full(len(w), -1))
        _, first, numbers[-1][strict] = np.unique(_codes(rank[strict], w.shape[1]),
                                                  return_index=True, return_inverse=True)
        rankings.append(rank[strict][first])
    at = np.stack(numbers, axis=1)[domain.cell_index.vertices]     # (cells, vertices, levels)
    ok = (at == at[:, :1]).all(axis=1) & (at[:, 0] >= 0)
    col = ok.argmax(axis=1)
    order = np.where(ok.any(axis=1), at[np.arange(len(ok)), 0, col], -1)
    return SmallnessCertificate(ok, np.where(order >= 0, col + domain.gap.p, -1), order, tuple(rankings))


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
    return SimplicialProtocol(gap, tuple(ids), tuple(w.reshape(-1, w.shape[2]) for w in weights), index,
                              _face_rows(index, places), cycle, dict(cycle), cubes)


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
