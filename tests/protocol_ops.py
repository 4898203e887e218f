"""Operations on protocols that only the tests use: midpoint subdivision
and scaling of all weights.  Both keep a protocol's order types, so the
exact lift must not change under them; the tests check that it does not.
Also the face closure one face at a time, the oracle for the library's
closure over index arrays, and a document whose stored cycle leaves the
protocol.
"""

import json

from hypercurrent.ana_hyper import _check_beta
from hypercurrent.protocol import (
    SimplicialProtocol,
    WeightPoint,
    _ordered_to_sorted,
    _validate_protocol,
    dumps_protocol,
    simplex_faces,
    square_protocol,
)


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


def _combine(a: WeightPoint, b: WeightPoint, t):
    """Affine combination (1-t)*a + t*b."""
    vals = tuple(
        tuple((1 - t) * x + t * y for x, y in zip(va, vb))
        for va, vb in zip(a.values, b.values)
    )
    return WeightPoint(a.p, a.q, vals)


def _scaled(wp: WeightPoint, c):
    return WeightPoint(wp.p, wp.q, tuple(tuple(c * v for v in row) for row in wp.values))


def scale(proto: SimplicialProtocol, beta):
    """Pointwise scalar multiple of all weights; order types unchanged."""
    _check_beta(beta)
    return SimplicialProtocol(
        gap=proto.gap,
        vertex_ids=proto.vertex_ids,
        vertex_weights=tuple(_scaled(wp, float(beta)) for wp in proto.vertex_weights),
        simplices=proto.simplices,
        orientation=dict(proto.orientation),
        fundamental_cycle=dict(proto.fundamental_cycle),
    )


def subdivide(proto: SimplicialProtocol):
    """Midpoint (edgewise) subdivision for parameter spaces of dimension
    at most two; weights interpolate affinely, the fundamental cycle is
    carried along."""
    if proto.dim > 2:
        raise NotImplementedError("subdivision implemented through dimension 2")
    ids = list(proto.vertex_ids)
    weights = list(proto.vertex_weights)
    mid = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            ids.append(f"m({ids[key[0]]},{ids[key[1]]})")
            weights.append(_combine(weights[key[0]], weights[key[1]], 0.5))
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
    return _validate_protocol(proto.gap, ids, weights, new_tops, new_orient, new_cycle)


def square_doc_without_last_edge():
    """The square protocol's document with its last edge dropped and its
    stored cycle kept, and the dropped edge's name as the cycle writes it."""
    doc = json.loads(dumps_protocol(square_protocol()))
    dropped = doc["simplices"].pop()
    name = ",".join(dropped["vertices"])
    assert name in doc["cycle"]
    return doc, name
