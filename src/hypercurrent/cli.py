"""Command-line entry point (installed as ``hcl``).

Every report is JSON (or CSV for sweeps and trajectories) and carries
the resolved configuration plus a content hash of the input files, so
identical invocations produce identical outputs.  Validation problems
exit with status 2, internal errors with 1.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complex_core import betti, gap_complex, load_complex
from .errors import HclError
from .forests import enumerate_dtrees, greedy_dtree
from .protocol import builtin_protocol, cube_protocol, is_good, load_protocol
from .ratlin import QMat
from .topo_hyper import cochain_chain_map_defect, hypercurrent_homology
from .ana_hyper import axioms_check, interior_samples, jan_cochain, quantization_sweep
from .weight_space import classify_top_cells
from .graph_dynamics import evolve


@dataclass
class RunConfig:
    subcommand: str
    inputs: list = field(default_factory=list)
    p: int = None
    q: int = None
    betas: list = field(default_factory=list)
    tol: float = 1e-8
    quad_depth: int = 8
    out: str = None
    seed: int = 0

    def validate(self):
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise HclError(f"tolerances must be finite and positive, got {self.tol}")
        if self.quad_depth is not None and self.quad_depth < 0:
            raise HclError(f"quadrature depth must be non-negative, got {self.quad_depth}")
        if self.betas:
            if any(not math.isfinite(b) for b in self.betas):
                raise HclError("beta values must be finite")
            if any(not b > 0 for b in self.betas):
                raise HclError("beta values must be positive")
            if list(self.betas) != sorted(self.betas):
                raise HclError("beta values must be ascending")
        return self

    def as_dict(self):
        return {
            "subcommand": self.subcommand,
            "inputs": list(self.inputs),
            "p": self.p,
            "q": self.q,
            "betas": list(self.betas),
            "tol": self.tol,
            "quad_depth": self.quad_depth,
            # the library runs on one thread; reports keep the key they always carried
            "workers": 1,
            "seed": self.seed,
        }


def _hash_inputs(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _rat(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _emit(report, out):
    # a report is a tree the command builds, never circular: skipping the
    # check halves the encoding of a weightspace report's cell rows
    text = json.dumps(report, indent=1, sort_keys=True, check_circular=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_protocol_arg(path):
    if path.startswith("builtin:"):
        kind, _, qs = path.split(":", 1)[1].partition(":")
        return builtin_protocol(kind, int(qs) if qs else 2)
    return load_protocol(path)


def _side_file(path, read, shape):
    """The JSON document of a side file as read(doc) converts it; a
    document read rejects, by raising, is a validation error naming the
    expected shape."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return read(doc)
    except (AttributeError, TypeError, ValueError, OverflowError):
        raise HclError(f"{path} must hold {shape}") from None


def _listed(doc):
    """doc, which must be a JSON list."""
    if not isinstance(doc, list):
        raise TypeError(f"not a JSON list: {doc!r}")
    return doc


def _hash_or_builtin(paths):
    real = [p for p in paths if not p.startswith("builtin:")]
    if real:
        return _hash_inputs(real)
    return hashlib.sha256(",".join(paths).encode()).hexdigest()


# --- subcommands ----------------------------------------------------------------


def cmd_complex(args):
    cfg = RunConfig("complex." + args.action, inputs=[args.file], out=args.out).validate()
    x = load_complex(args.file)
    report = {"config": cfg.as_dict(), "input_hash": _hash_inputs([args.file]), "name": x.name}
    if args.action == "validate":
        report["cells"] = [len(c) for c in x.cells]
        report["valid"] = True
    else:
        report["betti"] = [betti(x, j) for j in range(x.dim + 1)]
    _emit(report, args.out)
    return 0


def cmd_trees(args):
    cfg = RunConfig(
        "trees." + args.action, inputs=[args.file], p=args.p, q=args.q, out=args.out
    ).validate()
    x = load_complex(args.file)
    gap = gap_complex(x, args.p, args.q)
    report = {"config": cfg.as_dict(), "input_hash": _hash_inputs([args.file])}
    if args.action == "enumerate":
        report["trees"] = [
            {"cells": list(t.cells), "torsion": t.torsion}
            for t in enumerate_dtrees(gap, args.level)
        ]
    else:
        if args.weights is None:
            raise HclError("trees greedy needs --weights")
        weights = _side_file(args.weights, lambda d: {k: float(v) for k, v in d.items()},
                             "a JSON object of numbers keyed by cell name")
        t = greedy_dtree(gap, args.level, weights)
        report["tree"] = {
            "cells": list(t.cells),
            "torsion": t.torsion,
            "total_weight": sum(weights[nm] for nm in t.cells),
        }
        cfg.inputs.append(args.weights)
        report["input_hash"] = _hash_inputs([args.file, args.weights])
    _emit(report, args.out)
    return 0


def cmd_protocol(args):
    cfg = RunConfig("protocol." + args.action, inputs=[args.file], out=args.out).validate()
    proto = _load_protocol_arg(args.file)
    cert = proto.certificate
    report = {"config": cfg.as_dict(), "input_hash": _hash_or_builtin([args.file])}
    good, offender = is_good(proto)
    report["good"] = good
    if offender is not None:
        report["first_offender"] = list(offender)
    if args.action == "strata":
        p = proto.gap.p
        report["simplices"] = [
            {
                "vertices": [proto.vertex_ids[v] for v in key],
                "levels": (np.flatnonzero(ok) + p).tolist(),
                "k": None if k < 0 else k,
            }
            for key, ok, k in zip(proto.cell_index.keys, cert.levels, cert.least.tolist())
        ]
    _emit(report, args.out)
    return 0


def cmd_topo(args):
    cfg = RunConfig("topo.current", inputs=[args.file], out=args.out).validate()
    proto = _load_protocol_arg(args.file)
    gap = proto.gap
    if args.cycle == "fundamental":
        cycle = proto.fundamental_cycle
        if not cycle:
            raise HclError("protocol has no stored fundamental cycle")
    else:
        raise HclError(f"unknown cycle choice {args.cycle!r}")
    if args.class_file:
        class_p = _side_file(args.class_file, lambda d: [[Fraction(v)] for v in _listed(d)],
                             "a JSON list of finite numbers or rational strings")
    else:
        class_p = [[1]] + [[0]] * (gap.parent_hp.betti - 1)
    [(coords, chain)] = hypercurrent_homology(proto, [cycle],
                                              QMat.from_rows(class_p, (len(class_p), 1)))
    report = {
        "config": cfg.as_dict(),
        "input_hash": _hash_or_builtin([args.file]),
        "chain": {
            gap.cells_at(gap.top)[i]: _rat(v) for i, (v,) in enumerate(chain.to_rows()) if v
        },
        "class": [_rat(c) for (c,) in coords.to_rows()],
    }
    _emit(report, args.out)
    return 0


def cmd_ana(args):
    cfg = RunConfig(
        "ana." + args.action,
        inputs=[args.file],
        betas=[args.beta],
        tol=args.tol,
        quad_depth=args.quad_depth,
        out=args.out,
        seed=args.seed,
    ).validate()
    proto = _load_protocol_arg(args.file)
    report = {"config": cfg.as_dict(), "input_hash": _hash_or_builtin([args.file])}
    if args.action == "integrate":
        coch = jan_cochain(proto, args.beta, tol=args.tol, max_depth=args.quad_depth)
        report["residual"] = cochain_chain_map_defect(coch)
        report["simplices"] = [
            {"vertices": [proto.vertex_ids[v] for v in key], "block": coch.block(key).tolist()}
            for key in sorted(proto.cell_index.keys[:sum(map(len, coch.stacks))],
                              key=lambda key: (len(key), key))
        ]
    else:
        if args.samples < 1:
            raise HclError(f"samples must be at least 1, got {args.samples}")
        rng = np.random.default_rng(args.seed)
        samples = interior_samples(proto, args.samples, rng)
        rep = axioms_check(proto, args.beta, samples, fd_step=args.fd_step, tol=args.tol)
        report["samples"] = rep.samples
        report["continuity"] = rep.continuity
        report["orthogonality"] = rep.orthogonality
        report["initial_value"] = rep.initial_value
        report["zeta_independence"] = rep.zeta_independence
        report["violations"] = len(rep.violations)
    _emit(report, args.out)
    return 0


def _write_sweep_csv(path, sweep):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        ncoords = len(sweep.topological)
        writer.writerow(
            ["beta"]
            + [f"class_{i}" for i in range(ncoords)]
            + ["distance", "max_residual"]
        )
        for row in sweep.rows:
            resid = "" if row.residual is None else row.residual
            writer.writerow(
                [row.beta] + [f"{c!r}" for c in row.coords] + [row.distance, resid]
            )


def cmd_quantize(args):
    betas = [float(b) for b in args.betas.split(",")]
    cfg = RunConfig(
        "quantize",
        inputs=[args.file],
        betas=betas,
        tol=args.tol,
        quad_depth=args.quad_depth,
        out=args.out,
    ).validate()
    proto = _load_protocol_arg(args.file)
    sweep = quantization_sweep(
        proto,
        betas,
        proto.fundamental_cycle,
        [1] + [0] * (proto.gap.parent_hp.betti - 1),
        tol=args.tol,
        max_depth=args.quad_depth,
        residuals=args.residuals,
    )
    out = args.out or "sweep.csv"
    _write_sweep_csv(out, sweep)
    summary = {
        "config": cfg.as_dict(),
        "input_hash": _hash_or_builtin([args.file]),
        "topological": list(sweep.topological),
        "slope": sweep.slope,
        "csv": out,
    }
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


def cmd_weightspace(args):
    cfg = RunConfig(
        "weightspace.report", inputs=[args.file], p=args.p, q=args.q, out=args.out
    ).validate()
    robust = classify_top_cells(load_complex(args.file), args.p, args.q)
    report = {
        "config": cfg.as_dict(),
        "input_hash": _hash_inputs([args.file]),
        "summands": robust.summands,
        "contractible": robust.contractible,
    }
    if not robust.contractible:
        # cells of one current share its matrix, and so its rows of _rat
        distinct = {id(rep.current_matrix): rep.current_matrix for rep in robust.cells}
        rats = {i: [[_rat(v) for v in row] for row in m] for i, m in distinct.items()}
        report["cells"] = [
            {
                "height": rep.height.blocks,    # tuples, written as JSON arrays
                "dimension": rep.dimension,
                "essential": rep.essential,
                "current_matrix": rats[id(rep.current_matrix)],
            }
            for rep in robust.cells
        ]
        report["inessential"] = robust.inessential
        report["robust_summands"] = robust.robust_summands
    _emit(report, args.out)
    return 0


def cmd_dyn(args):
    cfg = RunConfig("dyn.evolve", inputs=[args.file, args.p0], tol=args.tol,
                    out=args.out).validate()
    proto = _load_protocol_arg(args.file)
    p0 = _side_file(args.p0, lambda d: [float(v) for v in _listed(d)],
                    "a JSON list of probabilities, one per state")
    times, traj = evolve(proto, p0, args.t0, args.t1, args.steps, tol=args.tol)
    out = args.out or "traj.csv"
    names = proto.gap.parent.cells[0]
    with open(out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t"] + list(names))
        # a float row as csv writes it: the reprs, comma separated, CRLF
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in np.column_stack([times, traj]).tolist())
    print(json.dumps({"config": cfg.as_dict(), "csv": out, "mass_drift":
                      float(np.max(np.abs(traj.sum(axis=1) - 1.0)))}, indent=1))
    return 0


def cmd_demo(args):
    from .complex_core import sphere_complex, sphere_wedge_complex

    betas = [float(b) for b in args.betas.split(",")]
    cfg = RunConfig("demo", q=args.q, betas=betas, tol=args.tol,
                    quad_depth=args.quad_depth, out=args.out).validate()
    q = args.q
    rows = []
    for name, x in [("sphere", sphere_complex(q)), ("wedge", sphere_wedge_complex(q))]:
        gap = gap_complex(x, 0, q)
        proto = cube_protocol(gap)
        [(coords, chain)] = hypercurrent_homology(proto, [proto.fundamental_cycle],
                                                  QMat.identity(1))
        sweep = quantization_sweep(
            proto, betas, proto.fundamental_cycle, [1], tol=args.tol,
            max_depth=args.quad_depth,
        )
        chain_desc = " + ".join(
            f"{_rat(v)}*{gap.cells_at(gap.top)[i]}" for i, (v,) in enumerate(chain.to_rows()) if v
        ) or "0"
        rows.append((name, chain_desc, [_rat(c) for (c,) in coords.to_rows()], sweep))
    print(f"degree-{q} comparison (identical cell counts, different attachments)")
    print(f"{'complex':<8} {'pairing chain':<24} class")
    for name, chain_desc, coords, _ in rows:
        print(f"{name:<8} {chain_desc:<24} {coords}")
    print()
    print(f"{'beta':>6}  " + "  ".join(f"{name + ' dist':>14}" for name, *_ in rows))
    for i, b in enumerate(betas):
        print(f"{b:>6.1f}  " + "  ".join(f"{r[3].rows[i].distance:>14.3e}" for r in rows))
    out = args.out or f"demo_q{q}.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "sphere_distance", "wedge_distance"])
        for i, b in enumerate(betas):
            writer.writerow([b, rows[0][3].rows[i].distance, rows[1][3].rows[i].distance])
    print(f"\nsweep written to {out}; sphere slope {rows[0][3].slope:.3f}")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(prog="hcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("complex", help="validate a complex or print Betti numbers")
    pc.add_argument("action", choices=["validate", "betti"])
    pc.add_argument("file")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_complex)

    pt = sub.add_parser("trees", help="enumerate or greedily select trees")
    pt.add_argument("action", choices=["enumerate", "greedy"])
    pt.add_argument("file")
    pt.add_argument("--p", type=int, required=True)
    pt.add_argument("--q", type=int, required=True)
    pt.add_argument("--level", type=int, required=True)
    pt.add_argument("--weights")
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_trees)

    pp = sub.add_parser("protocol", help="check goodness / print strata")
    pp.add_argument("action", choices=["check", "strata"])
    pp.add_argument("file")
    pp.add_argument("--out")
    pp.set_defaults(func=cmd_protocol)

    po = sub.add_parser("topo", help="exact pairing of the stored cycle")
    po.add_argument("action", choices=["current"])
    po.add_argument("file")
    po.add_argument("--cycle", default="fundamental")
    po.add_argument("--class", dest="class_file")
    po.add_argument("--out")
    po.set_defaults(func=cmd_topo)

    pa = sub.add_parser("ana", help="integrate the analytical cochain / check axioms")
    pa.add_argument("action", choices=["integrate", "axioms"])
    pa.add_argument("file")
    pa.add_argument("--beta", type=float, required=True)
    pa.add_argument("--samples", type=int, default=50)
    pa.add_argument("--fd-step", type=float, default=1e-5)
    pa.add_argument("--tol", type=float, default=1e-8)
    pa.add_argument("--quad-depth", type=int, default=8)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_ana)

    pq = sub.add_parser("quantize", help="analytical-vs-exact sweep over beta")
    pq.add_argument("file")
    pq.add_argument("--betas", required=True)
    pq.add_argument("--tol", type=float, default=1e-8)
    pq.add_argument("--quad-depth", type=int, default=8)
    pq.add_argument("--residuals", action="store_true")
    pq.add_argument("--out")
    pq.set_defaults(func=cmd_quantize)

    pw = sub.add_parser("weightspace", help="wedge counts and cell classification")
    pw.add_argument("action", choices=["report"])
    pw.add_argument("file")
    pw.add_argument("--p", type=int, required=True)
    pw.add_argument("--q", type=int, required=True)
    pw.add_argument("--out")
    pw.set_defaults(func=cmd_weightspace)

    pd = sub.add_parser("dyn", help="integrate the master equation")
    pd.add_argument("action", choices=["evolve"])
    pd.add_argument("file")
    pd.add_argument("--p0", required=True)
    pd.add_argument("--t0", type=float, default=0.0)
    pd.add_argument("--t1", type=float, default=1.0)
    pd.add_argument("--steps", type=int, default=100)
    pd.add_argument("--tol", type=float, default=1e-6)
    pd.add_argument("--out")
    pd.set_defaults(func=cmd_dyn)

    pm = sub.add_parser("demo", help="full sphere/wedge pipeline at one degree")
    pm.add_argument("--q", type=int, default=2)
    pm.add_argument("--betas", default="5,10,20,30")
    pm.add_argument("--tol", type=float, default=1e-8)
    pm.add_argument("--quad-depth", type=int, default=8)
    pm.add_argument("--out")
    pm.set_defaults(func=cmd_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HclError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        # a ValueError, but numpy failing on validated input is an internal fault
        print(f"internal error: InvariantBroken: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
