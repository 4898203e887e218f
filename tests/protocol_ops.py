"""Operations on protocols that only the tests use: midpoint subdivision
and scaling of all weights.  Both keep a protocol's order types, so the
exact lift must not change under them; the tests check that it does not.
The certificate as it was made one level and one whole ranking at a
time (smallness_by_level), the reference for the certificate's order
type numbers, and seeded protocols whose vertices tie or swap a pair of
cells (tied_protocol).  Also points as level arrays and a vertex's rows
of them (levels_of, vertex_levels), a certificate's least levels by
cell, the face closure
one face at a time, the oracle for the library's closure over index
arrays, a document whose stored cycle leaves the protocol, and one
cycle's pairing with the one degree-p class read as lists, and a
protocol's document listed out of order (shuffled_doc).

The earlier build of a protocol is kept here as the oracle for the
array build: the closure over vertex tuples (_closure), the cube's
triangulation signed one simplex at a time (_freudenthal_facet,
_perm_sign, _ordered_to_sorted, _cube_boundary), and the arrays
oracle_validate_protocol hands the protocol: a cell_index sorted by
length and bisected (oracle_cell_index), face_rows found by a
searchsorted over base-vertex-count row codes (oracle_face_rows), and
the orientation and cycle placed through a dict of every cell's key.
The library's removed conveniences are kept here as oracles too: the
padded vertex index array the certificate gathered through
(padded_vertices), and the fundamental cycle cut into its parts'
cycles (part_cycles); no_keys stands in for CellIndex.keys where a
route must not read a cell key.  A cell's faces and vertices by key
(simplex_faces, boundary_of, vertices_of) are read here, by the oracles,
and not by the library, which reads face_rows and cell_index rows.
"""

import dataclasses
import itertools
import json
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from hypercurrent.ana_hyper import _check_beta
from hypercurrent.errors import NotACycle, NotClosedUnderFaces, ParseError
from hypercurrent.ratlin import QMat
from hypercurrent.topo_hyper import hypercurrent_homology
from hypercurrent.protocol import (
    CellIndex,
    SimplicialProtocol,
    dumps_protocol,
    simplicial_protocol,
    square_protocol,
)


def levels_of(points):
    """Points, each its weights as one row per level p..q, as a protocol's
    level_weights: per level, one float array with a row per point."""
    return tuple(np.array([point[k] for point in points], dtype=float)
                 for k in range(len(points[0])))


def vertex_levels(domain, vertex):
    """A vertex's weights, one row per level p..q: the rows of the
    domain's level_weights at the vertex's place among its 0-cells."""
    row = domain.place_of(vertex)
    return tuple(w[row] for w in domain.level_weights)


def least_levels(domain, cert):
    """A certificate's least levels by cell: a cell key -> its least
    certified level, or None where it has none."""
    return {key: None if k < 0 else k for key, k in zip(domain.cell_index.keys, cert.least.tolist())}


def smallness_by_level(domain):
    """The certificate's levels and least levels as the library made them
    before it numbered order types: per level, every vertex's whole
    ranking gathered over each cell's vertices, an array (cells, vertices,
    cells of the level), compared, with a tie check per vertex."""
    gap = domain.gap
    vertices = padded_vertices(domain.cell_index)
    ok = np.empty((len(vertices), gap.q - gap.p + 1), dtype=bool)
    for col, w in enumerate(domain.level_weights):
        rank = np.argsort(w, axis=1)
        ranked = np.sort(w, axis=1)
        strict = (ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        ranks = rank[vertices]
        ok[:, col] = (ranks == ranks[:, :1]).all(axis=(1, 2)) & strict[vertices].all(axis=1)
    return ok, np.where(ok.any(axis=1), ok.argmax(axis=1) + gap.p, -1)


def tied_protocol(domain, gap, seed):
    """domain's cells and cycle over gap, whose levels' cell counts may
    differ from domain's: each level has one seeded ranking of its cells,
    as weights 0, 1, ..., at every vertex but those that, seeded, swap or
    tie (the later takes the earlier's weight) one pair of cells adjacent
    in it."""
    rng = np.random.default_rng(seed)
    nv = len(domain.vertex_ids)
    levels = []
    for j in range(gap.p, gap.q + 1):
        n = gap.parent.n_cells(j)
        w = np.tile(rng.permutation(n).astype(float), (nv, 1))
        for v, change, r in zip(range(nv), rng.integers(3, size=nv), rng.integers(max(n - 1, 1), size=nv)):
            a, b = np.flatnonzero(w[v] == r)[0], np.flatnonzero(w[v] == r + 1)
            if change and len(b):
                w[v, a], w[v, b[0]] = (r + 1, r) if change == 1 else (r, r)
        levels.append(w)
    return dataclasses.replace(domain, gap=gap, level_weights=tuple(levels))


def closure_by_faces(simplices):
    """Every face of the given sorted vertex tuples, themselves included,
    found by walking codimension-one faces; sorted by (length, tuple)."""
    seen = set()
    stack = [tuple(s) for s in simplices]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        if len(s) > 1:
            for _, f in simplex_faces(s):
                stack.append(f)
    return sorted(seen, key=lambda s: (len(s), s))


def _closure(simplices):
    """Every face of the given sorted vertex tuples, themselves included,
    sorted by (length, tuple): one set of simplices per length, whose
    faces one length down are their sub-tuples of that length."""
    by_len = {}
    for s in simplices:
        by_len.setdefault(len(s), []).append(tuple(s))
    closed = []
    level = set()
    for n in range(max(by_len, default=0), 0, -1):
        level.update(by_len.get(n, ()))
        closed.append(sorted(level))
        level = set(itertools.chain.from_iterable(map(itertools.combinations, level,
                                                      itertools.repeat(n - 1))))
    return list(itertools.chain.from_iterable(reversed(closed)))


def oracle_cell_index(keys, parts=1):
    """The earlier cell_index of closed simplices in parts equal parts:
    sorted by length, each dimension's rows found by bisection."""
    keys = tuple(sorted(keys, key=len))
    sizes = list(map(len, keys))
    offsets = [bisect_left(sizes, n) for n in range(1, (sizes[-1] if sizes else 0) + 2)]
    return CellIndex((np.array(keys[a:b], dtype=np.intp).reshape(b - a, n)
                      for n, (a, b) in enumerate(zip(offsets, offsets[1:]), start=1)), parts)


def padded_vertices(cells):
    """Every cell's vertex row in cell_index order, padded to the widest
    cell with the cell's first vertex: the one index array the
    certificate gathered through before it gathered per dimension."""
    width = max(rows.shape[1] for rows in cells.rows)
    return np.concatenate([np.concatenate([rows, np.repeat(rows[:, :1], width - rows.shape[1], axis=1)],
                                          axis=1) for rows in cells.rows])


def simplex_faces(key):
    """Codimension-one faces of a sorted vertex tuple with their signs: the
    face without vertex m has sign (-1)**m."""
    faces = list(itertools.combinations(key, len(key) - 1))
    faces.reverse()     # combinations leave out the last vertex first
    return list(zip(itertools.cycle((1, -1)), faces))


def boundary_of(domain, key):
    """A cell's codimension-one faces with their signs, in face_rows
    order: a CW domain's own, else the simplex's (a vertex has none)."""
    if hasattr(domain, "boundary_of"):
        return domain.boundary_of(key)
    return simplex_faces(key) if len(key) > 1 else []


def vertices_of(domain, key):
    """A cell's vertices, as 0-cell keys: a CW domain's own corners, else
    the simplex's vertices as 1-tuples."""
    if hasattr(domain, "vertices_of"):
        return domain.vertices_of(key)
    return [(v,) for v in key]


def no_keys(cells):
    """A CellIndex.keys that refuses to be read: patched in, it shows that
    a route reads cells by their rows only."""
    raise AssertionError("a cell key was read")


def part_cycles(proto):
    """The fundamental cycle cut into one cycle per part, in part order."""
    size = len(proto.vertex_ids) // proto.cell_index.parts
    out = [{} for _ in range(proto.cell_index.parts)]
    for key, coeff in proto.fundamental_cycle.items():
        out[key[0] // size][key] = coeff
    return out


def oracle_face_rows(cells, base):
    """The earlier face_rows of a cell_index over base vertices: each
    face found by a searchsorted over base-vertex-count row codes.  A
    face outside the cells raises."""
    out = [(np.zeros((cells.offsets[1], 0), dtype=np.intp),) * 2]
    for d in range(1, len(cells.offsets) - 1):
        lo, a, b = cells.offsets[d - 1:d + 2]
        # a vertex row as one number, in base the vertex count
        place = np.array([base ** e for e in range(d - 1, -1, -1)],
                         dtype=np.int64 if base ** d < 2 ** 63 else object)
        codes = cells.rows[d - 1] @ place
        order = np.argsort(codes, kind="stable").astype(np.int32)
        faces = [np.delete(cells.rows[d], m, axis=1) for m in range(d + 1)]
        wanted = np.stack([face @ place for face in faces], axis=1)
        rows = order[np.minimum(np.searchsorted(codes, wanted, sorter=order), a - lo - 1)]
        if (codes[rows] != wanted).any():
            i, m = np.argwhere(codes[rows] != wanted)[0]
            raise NotClosedUnderFaces(f"face {tuple(faces[m][i].tolist())} of simplex "
                                      f"{cells.keys[a + i]} is not in the protocol")
        out.append((rows, np.broadcast_to((-1) ** np.arange(d + 1), rows.shape)))
    return tuple(out)


def oracle_validate_protocol(gap, vertex_ids, points, simplices, orientation, cycle, parts=1):
    """The protocol of the given vertices, each point its weights as one
    row per level, closed under faces one simplex length at a time, with
    the earlier cell_index and face_rows."""
    nv = len(vertex_ids)
    for s in simplices:
        for v in s:
            if not (0 <= v < nv):
                raise NotClosedUnderFaces(f"simplex {s} references unknown vertex {v}")
        if list(s) != sorted(set(s)):
            raise ParseError(f"simplex {s} is not a strictly sorted vertex tuple")
    cells = oracle_cell_index(_closure(list(simplices) + [(v,) for v in range(nv)]), parts)
    position = dict(zip(cells.keys, itertools.count()))
    for sign in orientation.values():
        if sign not in (1, -1):
            raise ParseError("orientation signs must be +-1")
    for key in cycle:
        if key not in position:
            raise NotACycle(f"cycle names simplex {','.join(vertex_ids[v] for v in key)}, "
                            "which is not a simplex of the protocol")
    return SimplicialProtocol(gap, tuple(vertex_ids), levels_of(points), cells, oracle_face_rows(cells, nv),
                              ([position[k] for k in orientation], list(orientation.values())),
                              ([position[k] for k in cycle], list(cycle.values())))


def _perm_sign(perm):
    """Sign of the permutation that sorts a sequence of distinct items:
    -1 to the number of inversions."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def _ordered_to_sorted(chain):
    """Convert ordered-simplex chains [(coeff, ordered_tuple)] to a dict
    over sorted tuples with permutation signs."""
    out = {}
    for coeff, ordered in chain:
        srt = tuple(sorted(ordered))
        out[srt] = out.get(srt, 0) + coeff * _perm_sign(ordered)
    return {k: v for k, v in out.items() if v}


def _freudenthal_facet(axis, side, naxes):
    """Ordered-simplex triangulation of the cube facet {x_axis = side}.

    Yields (sign, ordered corner tuple); corners are +-1 vectors of length
    naxes.  The chain walks from the facet's lowest corner raising the free
    axes in the order perm, so its edges span the facet with the sign of
    perm, and the facet sits in the cube's boundary with the sign of
    side * (-1)**axis.
    """
    free = [a for a in range(naxes) if a != axis]
    for perm in itertools.permutations(free):
        corner = [-1] * naxes
        corner[axis] = side
        chain = [tuple(corner)]
        for a in perm:
            corner[a] = 1
            chain.append(tuple(corner))
        yield side * (-1) ** axis * _perm_sign(perm), tuple(chain)


@lru_cache(maxsize=8)
def _cube_boundary(n):
    """The triangulated boundary of [-1,1]^n, built once per n: the
    corners in sorted order, the top simplices as an array of sorted
    corner-index rows, and each top simplex's coefficient in the
    fundamental cycle."""
    corners = sorted(itertools.product((-1, 1), repeat=n))
    corner_index = {c: i for i, c in enumerate(corners)}
    signed = _ordered_to_sorted(
        (sign, tuple(corner_index[c] for c in chain))
        for axis in range(n)
        for side in (-1, 1)
        for sign, chain in _freudenthal_facet(axis, side, n)
    )
    tops = sorted(signed)
    coeffs = tuple(signed[tops[0]] * signed[t] for t in tops)
    return tuple(corners), np.array(tops, dtype=np.intp).reshape(len(tops), n), coeffs


def oracle_cube_boundary_protocol(gap, corner_weight):
    """Boundary-of-cube protocol with an arbitrary corner-to-weights map.

    The parameter space is the boundary of [-1,1]^(q-p+1), each facet
    triangulated into (q-p)! ordered simplices; corner_weight maps a
    +-1 corner tuple to its weights, one row per level p..q.  The fundamental cycle is the sum
    of the simplices, each signed as part of the cube's boundary and
    then as a sorted vertex tuple; the overall sign makes the first
    simplex +1.

    corner_weight may also be a sequence of such maps, one per cube.
    The protocol is then the disjoint union of the cubes, one part each
    (parts == number of maps): cube i's vertices are numbered from
    i * 2^(q-p+1), its vertex ids carry the prefix "i." when there are
    several, and the fundamental cycle is the sum of the cubes' cycles
    (part_cycles gives them one by one).  The cube's triangulation is
    built once per dimension and offset per cube.
    """
    n = gap.q - gap.p + 1
    corners, tops, coeffs = _cube_boundary(n)
    maps = [corner_weight] if callable(corner_weight) else list(corner_weight)
    if not maps:
        raise ValueError("no cube to build: an empty sequence of corner maps (top cells)")
    ids = ["c" + "".join("p" if s > 0 else "m" for s in c) for c in corners]
    if len(maps) > 1:
        ids = [f"{i}.{cid}" for i in range(len(maps)) for cid in ids]
    weights = [cw(c) for cw in maps for c in corners]
    offsets = np.arange(len(maps), dtype=np.intp) * len(corners)
    keys = list(map(tuple, (offsets[:, None, None] + tops).reshape(-1, n).tolist()))
    cycle = dict(zip(keys, coeffs * len(maps)))
    return oracle_validate_protocol(gap, ids, weights, keys, cycle, cycle, parts=len(maps))


def scale(proto: SimplicialProtocol, beta):
    """Pointwise scalar multiple of all weights; order types unchanged."""
    _check_beta(beta)
    return dataclasses.replace(proto, level_weights=tuple(w * float(beta) for w in proto.level_weights))


def subdivide(proto: SimplicialProtocol):
    """Midpoint (edgewise) subdivision for parameter spaces of dimension
    at most two; weights interpolate affinely, the fundamental cycle is
    carried along."""
    if proto.dim > 2:
        raise NotImplementedError("subdivision implemented through dimension 2")
    ids = list(proto.vertex_ids)
    weights = [tuple(w[v] for w in proto.level_weights) for v in range(len(ids))]
    mid = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            ids.append(f"m({ids[key[0]]},{ids[key[1]]})")
            weights.append(tuple(0.5 * a + 0.5 * b for a, b in zip(weights[key[0]], weights[key[1]])))
            mid[key] = len(ids) - 1
        return mid[key]

    def children(key):
        if len(key) == 1:
            return [(1, key)]
        if len(key) == 2:
            a, b = key
            m = midpoint(a, b)
            return [(1, (a, m)), (1, (m, b))]
        a, b, c = key
        mab, mac, mbc = midpoint(a, b), midpoint(a, c), midpoint(b, c)
        return [
            (1, (a, mab, mac)),
            (1, (mab, b, mbc)),
            (1, (mac, mbc, c)),
            (1, (mbc, mac, mab)),
        ]

    new_tops = []
    new_cycle = {}
    new_orient = {}
    top_dim = proto.dim
    for key in proto.simplices_of_dim(top_dim):
        ch = children(key)
        signed = _ordered_to_sorted(ch)
        for skey, sgn in signed.items():
            new_tops.append(skey)
            if key in proto.fundamental_cycle:
                new_cycle[skey] = new_cycle.get(skey, 0) + proto.fundamental_cycle[key] * sgn
            if key in proto.orientation:
                new_orient[skey] = proto.orientation[key] * sgn
    return simplicial_protocol(proto.gap, ids, levels_of(weights), new_tops, new_orient, new_cycle)


def square_doc_without_last_edge():
    """The square protocol's document with its last edge dropped and its
    stored cycle kept, and the dropped edge's name as the cycle writes it."""
    doc = json.loads(dumps_protocol(square_protocol()))
    dropped = doc["simplices"].pop()
    name = ",".join(dropped["vertices"])
    assert name in doc["cycle"]
    return doc, name


def shuffled_doc(proto, seed):
    """proto's document with its simplices and its cycle's entries listed
    in a seeded order, out of cell_index order."""
    doc = json.loads(dumps_protocol(proto))
    rng = np.random.default_rng(seed)
    doc["simplices"] = [doc["simplices"][i] for i in rng.permutation(len(doc["simplices"]))]
    items = list(doc["cycle"].items())
    doc["cycle"] = dict(items[i] for i in rng.permutation(len(items)))
    return doc


def pair_one(domain, cycle):
    """One cycle of the domain paired with the one degree-p class (b_p must
    be 1): its coordinates and its chain, each a list of Fractions."""
    [(coords, chain)] = hypercurrent_homology(domain, [cycle], QMat.identity(1))
    return [c for (c,) in coords.to_rows()], [v for (v,) in chain.to_rows()]
