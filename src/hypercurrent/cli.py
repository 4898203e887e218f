"""Command-line entry point (installed as ``hcl``).

Every report is JSON (or CSV for sweeps and trajectories, with a JSON
summary on stdout).  Each JSON report and summary carries the resolved
configuration, whose ``inputs`` lists every file the command reads in
the order it reads them, side files and a complex file that a protocol
file references included, and ``input_hash``, the SHA-256 of
those inputs in that order: a file's bytes, or a ``builtin:`` argument's
text.  Identical invocations produce identical outputs.  Validation
problems exit with status 2, internal errors with 1; a command whose
stdout closes early (``hcl ... | head``) stops without a message and
exits with 1, as Python does on EPIPE.
"""

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .complex_core import betti, gap_complex, load_complex
from .errors import HclError, ParseError
from .forests import enumerate_dtrees, greedy_dtree
from .protocol import builtin_protocol, is_good, load_protocol
from .ratlin import QMat
from .topo_hyper import cochain_chain_map_defect, hypercurrent_homology
from .ana_hyper import axioms_check, interior_samples, jan_cochain, quantization_sweep
from .weight_space import classify_top_cells
from .graph_dynamics import evolve


def _config(subcommand, inputs, p=None, q=None, betas=(), tol=1e-8, quad_depth=8, seed=0):
    """A report's config: the settings, checked (a bad one raises an
    HclError), and inputs, the files the command reads in the order it
    reads them."""
    if not (math.isfinite(tol) and tol > 0):
        raise HclError(f"tolerances must be finite and positive, got {tol}")
    if quad_depth < 0:
        raise HclError(f"quadrature depth must be non-negative, got {quad_depth}")
    if any(not math.isfinite(b) for b in betas):
        raise HclError("beta values must be finite")
    if any(not b > 0 for b in betas):
        raise HclError("beta values must be positive")
    if list(betas) != sorted(betas):
        raise HclError("beta values must be ascending")
    return {
        "subcommand": subcommand,
        "inputs": list(inputs),
        "p": p,
        "q": q,
        "betas": list(betas),
        "tol": tol,
        "quad_depth": quad_depth,
        # the library runs on one thread; reports keep the key they always carried
        "workers": 1,
        "seed": seed,
    }


def _input_hash(inputs):
    """The SHA-256 of the inputs in order: a file's bytes, or the text of
    a builtin: argument."""
    h = hashlib.sha256()
    for arg in inputs:
        if arg.startswith("builtin:"):
            h.update(arg.encode())
        else:
            with open(arg, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _rat(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _emit(config, report, out=None):
    """Write report as sorted JSON to out, or to stdout, under its header:
    config and the hash of the inputs config lists, read after the
    command has read them."""
    report = {"config": config, "input_hash": _input_hash(config["inputs"]), **report}
    # a report is a tree the command builds, never circular: skipping the
    # check halves the encoding of a weightspace report's cell rows
    text = json.dumps(report, indent=1, sort_keys=True, check_circular=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_protocol_arg(path, inputs):
    """The protocol a builtin: argument names or a file holds; a complex
    file the protocol file references goes into inputs, the run's input
    paths, right after it."""
    if path.startswith("builtin:"):
        kind, _, qs = path.split(":", 1)[1].partition(":")
        if qs and not (qs.isascii() and qs.isdigit()):
            raise ParseError(f"{path}: the Q of builtin:KIND:Q must be ASCII decimal digits")
        return builtin_protocol(kind, int(qs) if qs else 2)
    read = []
    proto = load_protocol(path, read)
    at = inputs.index(path) + 1
    inputs[at:at] = read
    return proto


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


def _no_bool(value):
    """value, which must not be a JSON boolean: Python counts true as 1."""
    if isinstance(value, bool):
        raise TypeError(f"a JSON boolean, not a number: {value!r}")
    return value


def _number(value):
    """value as a float, which must be a JSON number, as in a protocol
    document: float() also reads strings, and Python counts true as 1."""
    if type(value) not in (int, float):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


# --- subcommands ----------------------------------------------------------------


def cmd_complex(args):
    cfg = _config("complex." + args.action, [args.file])
    x = load_complex(args.file)
    report = {"name": x.name}
    if args.action == "validate":
        report["cells"] = [len(c) for c in x.cells]
        report["valid"] = True
    else:
        report["betti"] = [betti(x, j) for j in range(x.dim + 1)]
    _emit(cfg, report, args.out)
    return 0


def cmd_trees(args):
    greedy = args.action == "greedy"
    inputs = [args.file, args.weights] if greedy else [args.file]
    cfg = _config("trees." + args.action, inputs, p=args.p, q=args.q)
    x = load_complex(args.file)
    gap = gap_complex(x, args.p, args.q)
    report = {}
    if not greedy:
        report["trees"] = [
            {"cells": list(t.cells), "torsion": t.torsion}
            for t in enumerate_dtrees(gap, args.level)
        ]
    else:
        if args.weights is None:
            raise HclError("trees greedy needs --weights")
        weights = _side_file(args.weights, lambda d: {k: _number(v) for k, v in d.items()},
                             "a JSON object of numbers keyed by cell name")
        t = greedy_dtree(gap, args.level, weights)
        report["tree"] = {
            "cells": list(t.cells),
            "torsion": t.torsion,
            "total_weight": sum(weights[nm] for nm in t.cells),
        }
    _emit(cfg, report, args.out)
    return 0


def cmd_protocol(args):
    cfg = _config("protocol." + args.action, [args.file])
    proto = _load_protocol_arg(args.file, cfg["inputs"])
    cert = proto.certificate
    good, offender = is_good(proto)
    report = {"good": good}
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
    _emit(cfg, report, args.out)
    return 0


def cmd_topo(args):
    cfg = _config("topo.current", filter(None, [args.file, args.class_file]))
    proto = _load_protocol_arg(args.file, cfg["inputs"])
    gap = proto.gap
    if not len(proto.cycle_by_place[0]):
        raise HclError("protocol has no stored fundamental cycle")
    if args.class_file:
        class_p = _side_file(args.class_file,
                             lambda d: [[Fraction(_no_bool(v))] for v in _listed(d)],
                             "a JSON list of finite numbers or rational strings")
    else:
        class_p = [[1]] + [[0]] * (gap.parent_hp.betti - 1)
    [(coords, chain)] = hypercurrent_homology(proto, [proto.cycle_by_place],
                                              QMat.from_rows(class_p, (len(class_p), 1)))
    report = {
        "chain": {
            gap.cells_at(gap.top)[i]: _rat(v) for i, (v,) in enumerate(chain.to_rows()) if v
        },
        "class": [_rat(c) for (c,) in coords.to_rows()],
    }
    _emit(cfg, report, args.out)
    return 0


def cmd_ana(args):
    cfg = _config("ana." + args.action, [args.file], betas=[args.beta], tol=args.tol,
                  quad_depth=args.quad_depth, seed=args.seed)
    proto = _load_protocol_arg(args.file, cfg["inputs"])
    report = {}
    if args.action == "integrate":
        coch = jan_cochain(proto, args.beta, tol=args.tol, max_depth=args.quad_depth)
        report["residual"] = cochain_chain_map_defect(coch)
        report["simplices"] = [
            {"vertices": [proto.vertex_ids[v] for v in key], "block": block.tolist()}
            for key, block in zip(proto.cell_index.keys, (b for stack in coch.stacks for b in stack))
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
    _emit(cfg, report, args.out)
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
    cfg = _config("quantize", [args.file], betas=betas, tol=args.tol, quad_depth=args.quad_depth)
    proto = _load_protocol_arg(args.file, cfg["inputs"])
    sweep = quantization_sweep(
        proto,
        betas,
        proto.cycle_by_place,
        [1] + [0] * (proto.gap.parent_hp.betti - 1),
        tol=args.tol,
        max_depth=args.quad_depth,
        residuals=args.residuals,
    )
    out = args.out or "sweep.csv"
    _write_sweep_csv(out, sweep)
    _emit(cfg, {"topological": list(sweep.topological), "slope": sweep.slope, "csv": out})
    return 0


def cmd_weightspace(args):
    cfg = _config("weightspace.report", [args.file], p=args.p, q=args.q)
    robust = classify_top_cells(load_complex(args.file), args.p, args.q)
    report = {"summands": robust.summands, "contractible": robust.contractible}
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
    _emit(cfg, report, args.out)
    return 0


def cmd_dyn(args):
    cfg = _config("dyn.evolve", [args.file, args.p0], tol=args.tol)
    proto = _load_protocol_arg(args.file, cfg["inputs"])
    p0 = _side_file(args.p0, lambda d: [_number(v) for v in _listed(d)],
                    "a JSON list of probabilities, one per state")
    times, traj = evolve(proto, p0, args.t0, args.t1, args.steps, tol=args.tol)
    out = args.out or "traj.csv"
    names = proto.gap.parent.cells[0]
    with open(out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t"] + list(names))
        # a float row as csv writes it: the reprs, comma separated, CRLF
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in np.column_stack([times, traj]).tolist())
    _emit(cfg, {"csv": out, "mass_drift": float(np.max(np.abs(traj.sum(axis=1) - 1.0)))})
    return 0


def cmd_demo(args):
    betas = [float(b) for b in args.betas.split(",")]
    _config("demo", [], q=args.q, betas=betas, tol=args.tol, quad_depth=args.quad_depth)
    q = args.q
    rows = []
    for name, kind in [("sphere", "cube_sphere"), ("wedge", "cube_wedge")]:
        proto = builtin_protocol(kind, q)
        [(coords, chain)] = hypercurrent_homology(proto, [proto.cycle_by_place], QMat.identity(1))
        sweep = quantization_sweep(
            proto, betas, proto.cycle_by_place, [1], tol=args.tol,
            max_depth=args.quad_depth,
        )
        chain_desc = " + ".join(
            f"{_rat(v)}*{proto.gap.cells_at(q)[i]}" for i, (v,) in enumerate(chain.to_rows()) if v
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


QUAD_DEPTH_HELP = ("the deepest quadrature level: a simplex of dimension 2 or more is split "
                   "into at most 2^depth pieces along each edge, and an edge's mesh, cut at its "
                   "ties and graded toward them, is halved at most depth times (default 8)")


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
    pa.add_argument("--quad-depth", type=int, default=8, help=QUAD_DEPTH_HELP)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_ana)

    pq = sub.add_parser("quantize", help="analytical-vs-exact sweep over beta")
    pq.add_argument("file")
    pq.add_argument("--betas", required=True)
    pq.add_argument("--tol", type=float, default=1e-8)
    pq.add_argument("--quad-depth", type=int, default=8, help=QUAD_DEPTH_HELP)
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
    pm.add_argument("--quad-depth", type=int, default=8, help=QUAD_DEPTH_HELP)
    pm.add_argument("--out")
    pm.set_defaults(func=cmd_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout left (hcl ... | head): Python's SIGPIPE
        # idiom, no message, and the flush at exit sent to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
