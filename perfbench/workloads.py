"""The four workloads: seeded op generation and per-op output checks.

An op is one ``hcl`` invocation.  Each workload has an op set of fixed
composition; the seed varies parameters and order, never the mix, and
parameters are drawn from ranges where an op's cost is nearly flat.  A
run repeats its op set in passes, so it measures the same blend of work
whatever the seed.  The mix is chosen so that the median and the tail
rank of the op latencies fall inside one class of op, not between two.
Inputs are written at set-up.
"""

import csv
import json
import math
import random
import re

# seconds one pass over the op set takes at the baseline commit on a
# 2-core Intel Xeon at its usual speed; a run makes the number of passes
# that fills --seconds there, fixed by --seconds alone so that every run
# of a given length measures the same calls
PASS_S = {"quantize": 7.0, "exact": 4.67, "weightspace": 9.33, "pointwise": 5.6}

# the pointwise op set repeats one evolve per graph and one axioms check
# per builtin this many times
POINTWISE_ROUNDS = 6

# beta grids; every grid point has a recorded reference class
Q1_BETAS = [2.0 + 0.5 * i for i in range(56)]          # 2 .. 29.5, plus 30 on every op
Q2_LOW_BETAS = [2.0 + 0.5 * i for i in range(5)]       # 2 .. 4
Q2_MID_BETAS = [10.0 + 0.5 * i for i in range(11)]     # 10 .. 15
Q3_BETAS = [2.0, 2.5]          # 3 and 3.5 take 2.6x as long, 4 a sixth less: the quadrature adapts
Q3_TOL = "1e-4"     # the default 1e-8 costs ~7 s per q=3 op, a third of a run
PROBE_BETAS = [100.0, 150.0, 200.0, 300.0, 500.0, 1000.0, 2000.0, 3000.0]
DEFAULT_TOL = "1e-08"

FLOAT_REF_TOL = 1e-6     # analytical class vs recorded reference, at the default tol
CONVERGED_TOL = 1e-3     # analytical vs exact class for beta >= 30
RESIDUAL_TOL = 1e-6      # chain-map residual
DYN_TOL = 1e-9           # mass drift and negativity of a trajectory

WORKLOADS = ("quantize", "exact", "weightspace", "pointwise")

def ref_tol(tol):
    return max(FLOAT_REF_TOL, 10.0 * float(tol))


def beta_key(beta):
    return repr(float(beta))


def fmt_betas(betas):
    return ",".join(repr(float(b)) for b in betas)


def signs_key(signs):
    return "".join("+" if s > 0 else "-" for s in signs)


# --- generated inputs ------------------------------------------------------------


def graph_doc(name, nverts, edges, rng):
    """A graph complex with seeded vertex names, edge order and orientations."""
    vnames = [f"v{i}" for i in range(nverts)]
    rng.shuffle(vnames)
    edges = list(edges)
    rng.shuffle(edges)
    enames = [f"e{k}" for k in range(len(edges))]
    bnd = [[0] * len(edges) for _ in range(nverts)]
    for k, (a, b) in enumerate(edges):
        if rng.random() < 0.5:
            a, b = b, a
        bnd[a][k] = -1
        bnd[b][k] = 1
    return {"name": name, "cells": [vnames, enames], "boundary": [bnd]}


GRAPHS = {
    "path3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star4": (4, [(0, 1), (0, 2), (0, 3)]),
}


def cube_file_doc(template, kind, q, signs, rng):
    """A cube protocol file over the sphere or wedge with seeded level signs
    and order-preserving weight perturbations; the cycle is stored."""
    vertices = []
    for vid in template["ids"]:
        corner = [1 if ch == "p" else -1 for ch in vid[1:]]
        weights = {}
        for j in range(q + 1):
            lead = signs[j] * corner[j] * rng.uniform(0.5, 2.0)
            weights[str(j)] = [lead, rng.uniform(-0.25, 0.25)]
        vertices.append({"id": vid, "weights": weights})
    return {
        "complex": {"builtin": kind, "q": q},
        "p": 0,
        "q": q,
        "vertices": vertices,
        "simplices": [{"vertices": s["vertices"], "orientation": s["orientation"]}
                      for s in template["simplices"]],
        "cycle": template["cycle"],
    }


def dyn_docs(rng, name):
    """A graph protocol on a path time domain, and an initial distribution."""
    nverts, edges = GRAPHS[name]
    graph = graph_doc(name, nverts, edges, rng)
    segments = rng.randint(2, 4)
    vertices = [
        {
            "id": f"t{i}",
            "weights": {
                "0": [rng.uniform(-1.0, 1.0) for _ in range(nverts)],
                "1": [rng.uniform(-0.5, 1.5) for _ in range(len(edges))],
            },
        }
        for i in range(segments + 1)
    ]
    proto = {
        "complex": {"inline": graph},
        "p": 0,
        "q": 1,
        "vertices": vertices,
        "simplices": [{"vertices": [f"t{i}", f"t{i + 1}"]} for i in range(segments)],
    }
    raw = [rng.random() + 0.05 for _ in range(nverts)]
    p0 = [x / sum(raw) for x in raw]
    p0[-1] = 1.0 - sum(p0[:-1])
    return proto, p0


# --- op sets -------------------------------------------------------------------------


class Op:
    """One CLI call plus what its check needs."""

    __slots__ = ("kind", "argv", "spec", "outfile")

    def __init__(self, kind, argv, spec=None, outfile=None):
        self.kind = kind
        self.argv = argv
        self.spec = spec or {}
        self.outfile = outfile


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def _quantize_ops(rng, refs, wd):
    ops = []

    def sweep(kind, spec, betas, tol=DEFAULT_TOL, residuals=False):
        out = str(wd / f"q{len(ops)}.csv")
        argv = ["quantize", f"builtin:{spec}", "--betas", fmt_betas(betas), "--out", out]
        if tol != DEFAULT_TOL:
            argv += ["--tol", tol]
        if residuals:
            argv.append("--residuals")
        ops.append(Op(kind, argv, {"spec": spec, "tol": tol, "betas": betas,
                                   "residuals": residuals}, out))

    # 5 of the 20 ops pass --residuals
    counts = [1, 2, 3]
    rng.shuffle(counts)
    for spec, k in zip(("square", "cube_sphere:1", "cube_wedge:1"), counts):
        sweep("quantize.q1", spec, sorted(rng.sample(Q1_BETAS, k - 1)) + [30.0],
              residuals=spec == "square")
    for spec, residuals in (("cube_sphere:2", True), ("cube_wedge:2", True),
                            ("cube_sphere:2", False), ("cube_wedge:2", False),
                            ("cube_wedge:2", False)) * 2:
        sweep("quantize.q2low", spec, sorted(rng.sample(Q2_LOW_BETAS, 2)), residuals=residuals)
    sweep("quantize.q2mid", "cube_sphere:2", [rng.choice(Q2_MID_BETAS)])
    for _ in range(3):
        sweep("quantize.q3", "cube_sphere:3", [rng.choice(Q3_BETAS)], tol=Q3_TOL)
    sweep("quantize.probe", "square", [rng.choice(PROBE_BETAS)])
    sweep("quantize.probe", "cube_sphere:1", [rng.choice(PROBE_BETAS)])
    sweep("quantize.probe", "cube_sphere:2", [200.0])
    return ops


def _exact_ops(rng, refs, wd):
    ops = []
    builtins = ["cube_sphere:1", "cube_wedge:1", "cube_sphere:2", "cube_wedge:2"] * 2
    builtins += ["cube_sphere:3", "cube_wedge:3"]
    for spec in builtins:
        ops.append(Op("exact.builtin", ["topo", "current", f"builtin:{spec}"], {"spec": spec}))
    kinds = ("sphere", "sphere_wedge")
    # the q=4 file keeps the builtin's level signs: its cost varies 2x with the signs
    files = [(rng.choice(kinds), 2, None) for _ in range(10)]
    files += [(rng.choice(kinds), 3, None) for _ in range(4)]
    files += [(rng.choice(kinds), 4, [1] * 5)]
    for kind, q, signs in files:
        signs = signs or [rng.choice((1, -1)) for _ in range(q + 1)]
        doc = cube_file_doc(refs["cube_templates"][str(q)], kind, q, signs, rng)
        path = _write(wd / f"x{len(ops)}.json", doc)
        ops.append(Op(f"exact.file.q{q}", ["topo", "current", path],
                      {"kind": kind, "q": q, "signs": signs_key(signs)}))
    return ops


def _weightspace_ops(rng, refs, wd):
    ops = []
    # one 216-cell tree, six 30-cell triangles, fourteen 6-cell paths
    for name in (rng.choice(("path4", "star4")),) + ("triangle",) * 6 + ("path3",) * 14:
        nverts, edges = GRAPHS[name]
        path = _write(wd / f"w{len(ops)}.json", graph_doc(name, nverts, edges, rng))
        ops.append(Op("weightspace.graph", ["weightspace", "report", path, "--p", "0", "--q", "1"],
                      {"graph": name}))
    for name in ("sphere1", "sphere2", "wedge1", "wedge2"):
        path = _write(wd / f"w{len(ops)}.json", refs["complexes"][name])
        ops.append(Op("weightspace.cx", ["weightspace", "report", path, "--p", "0",
                                         "--q", name[-1]], {"complex": name}))
    return ops


def _pointwise_ops(rng, refs, wd):
    ops = []
    for _ in range(POINTWISE_ROUNDS):
        for name in sorted(GRAPHS):
            proto, p0 = dyn_docs(rng, name)
            ppath = _write(wd / f"d{len(ops)}.json", proto)
            p0path = _write(wd / f"d{len(ops)}_p0.json", p0)
            out = str(wd / f"d{len(ops)}.csv")
            t1 = rng.uniform(2.0, 8.0)
            ops.append(Op("pointwise.evolve", ["dyn", "evolve", ppath, "--p0", p0path, "--t1",
                                               repr(t1), "--steps", "200", "--out", out],
                          {}, out))
        for spec in ("square", "cube_sphere:2", "cube_sphere:3"):
            beta = round(rng.uniform(2.0, 10.0), 3)
            ops.append(Op("pointwise.axioms", ["ana", "axioms", f"builtin:{spec}", "--beta",
                                               repr(beta), "--tol", "1e-5", "--samples", "10",
                                               "--seed", str(rng.randrange(1 << 30))]))
    return ops


OP_SET_MAKERS = {
    "quantize": _quantize_ops,
    "exact": _exact_ops,
    "weightspace": _weightspace_ops,
    "pointwise": _pointwise_ops,
}


def passes(workload, seconds):
    return max(1, round(seconds / PASS_S[workload]))


def make_op_set(workload, seed, refs, workdir):
    """The ops of one pass, in a seeded order, with their input files written to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    ops = OP_SET_MAKERS[workload](rng, refs, workdir)
    rng.shuffle(ops)
    return ops


# --- checks ----------------------------------------------------------------------------


def read_output(op):
    if op.outfile is None:
        return None
    try:
        with open(op.outfile, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def check(op, res, filetext, refs):
    """None when the op's output is right, else (reason, defect id).

    The defect id names one of the seed commit's known defects
    (``known_defects`` in predictions.json) when the failure is that
    defect, and is None for any other failure."""
    if res.rc != 0:
        reason = f"exit {res.rc}: {res.stderr.strip()[:200]}"
        known = op.kind == "quantize.probe" and "QuadratureNoConvergence" in res.stderr
        return reason, "3a" if known else None
    family = op.kind.split(".")[0]
    try:
        return _CHECKS[family](op, res.stdout, filetext, refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", None


def _check_quantize(op, stdout, filetext, refs):
    spec = op.spec["spec"]
    summary = json.loads(stdout)
    if summary["topological"] != refs["topological"][spec]:
        return f"exact class {summary['topological']} != {refs['topological'][spec]}", None
    rows = list(csv.reader(filetext.splitlines()))[1:]
    if len(rows) != len(op.spec["betas"]):
        return "sweep has the wrong number of rows", None
    table = refs["classes"].get(f"{spec}|{op.spec['tol']}", {})
    for row, beta in zip(rows, op.spec["betas"]):
        coords = [float(v) for v in row[1:-2]]
        distance = float(row[-2])
        ref = table.get(beta_key(beta))
        if op.kind != "quantize.probe":
            if ref is None or len(ref) != len(coords):
                return f"no reference class of this shape for beta {beta}", None
            err = max(abs(a - b) for a, b in zip(coords, ref))
            if err > ref_tol(op.spec["tol"]):
                return f"beta {beta}: class {coords} is {err:.3g} from reference {ref}", None
        if beta >= 30.0 and not distance <= CONVERGED_TOL:
            known = "3a" if op.kind == "quantize.probe" else None
            return f"beta {beta}: distance {distance:.3g} to the exact class", known
        if op.spec["residuals"] and not float(row[-1]) <= RESIDUAL_TOL:
            return f"beta {beta}: chain-map residual {row[-1]} > {RESIDUAL_TOL}", None
    return None


def _check_exact(op, stdout, filetext, refs):
    if op.kind == "exact.builtin":
        spec = op.spec["spec"]
        if stdout != refs["topo_builtin"][spec]:
            return f"report differs from the reference for {spec}", None
        report = json.loads(stdout)
        sphere = spec.startswith("cube_sphere")
    else:
        report = json.loads(stdout)
        exact = json.dumps({"chain": report["chain"], "class": report["class"]}, sort_keys=True)
        key = f"{op.spec['kind']}:{op.spec['q']}"
        if exact != refs["topo_generated"][key][op.spec["signs"]]:
            return f"pairing differs from the reference for {key} signs {op.spec['signs']}", None
        sphere = op.spec["kind"] == "sphere"
    # known answers: spheres pair onto a generator, wedges to zero
    if sphere and report["class"] not in (["1/1"], ["-1/1"]):
        return f"sphere class {report['class']} is not a generator", None
    if not sphere and (report["chain"] or any(c != "0/1" for c in report["class"])):
        return "wedge pairing is not zero", None
    return None


def _discriminant_cells(sizes):
    return math.prod(math.comb(n, 2) * math.factorial(n - 1) for n in sizes)


def _check_weightspace(op, stdout, filetext, refs):
    report = json.loads(stdout)
    if op.kind == "weightspace.graph":
        nverts, edges = GRAPHS[op.spec["graph"]]
        sizes = [nverts, len(edges)]
    else:
        doc = refs["complexes"][op.spec["complex"]]
        sizes = [len(doc["cells"][0]), len(doc["cells"][-1])]
    summands = math.prod(math.factorial(n) - 1 for n in sizes)
    if report["summands"] != summands or report["contractible"]:
        return f"summands {report['summands']} != {summands}", None
    cells = _discriminant_cells(sizes)
    if len(report["cells"]) != cells:
        return f"{len(report['cells'])} discriminant cells, expected {cells}", None
    robust = report["robust_summands"]
    if op.kind == "weightspace.cx":
        want = 1 if op.spec["complex"].startswith("sphere") else 0
        if robust != want:
            return f"robust summands {robust} != {want}", None
    if robust < 0:
        return f"robust summands {robust} < 0", "3b"
    return None


_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


def _check_pointwise(op, stdout, filetext, refs):
    report = json.loads(stdout)
    if op.kind == "pointwise.axioms":
        if report["violations"] != 0:
            return f"{report['violations']} axiom violations at tol 1e-5", None
        return None
    if not report["mass_drift"] <= DYN_TOL:
        return f"mass drift {report['mass_drift']:.3g} > {DYN_TOL}", None
    rows = list(csv.reader(filetext.splitlines()))[1:]
    if not rows:
        return "empty trajectory", None
    cells = [v for row in rows for v in row[1:]]
    wrapped = [_NP_FLOAT.match(v) for v in cells]
    values = [float(m.group(1) if m else v) for m, v in zip(wrapped, cells)]
    low = min(values)
    if low < -DYN_TOL:
        return f"negative probability {low:.3g}", None
    if any(wrapped):
        return "trajectory cells are written as np.float64(x), not numbers", "dyn-csv"
    return None


_CHECKS = {
    "quantize": _check_quantize,
    "exact": _check_exact,
    "weightspace": _check_weightspace,
    "pointwise": _check_pointwise,
}
