"""hcl benchmark: closed-loop, in-process ``hypercurrent.cli.main`` calls.

    python3 perfbench/run.py --workload quantize --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

One caller in one process issues ops (one ``hcl`` invocation each) one
after another, with the library's defaults (``--workers 1``) and no more
BLAS threads than CPUs.  Each workload has an op set of fixed
composition (see ``workloads.py``); the loop repeats the whole set for
the number of passes that fills ``--seconds`` on the reference host.
Every op's output is checked after the loop.

A shared host can change speed by 1.5x over minutes as other tenants
come and go, and every timing moves with it.  So a fixed pure-Python
kernel is timed after every op, and the reported times are in seconds
at the reference speed: each measured time is scaled by REF_KERNEL_S
over the run's median kernel time.  The measured times and the scale
are in the report under ``run``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
library's public functions (``tracer.py``) and reports per-layer
metrics, then replays the first ops untraced (at least REPLAY_SHARE of
the traced op time) to check their outputs are identical and to measure
the tracing overhead.  Spans and a full report
with provenance go to ``.perfbench_out/``.  The last line of standard
output is the JSON result.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness
import workloads as W

SETUP_SAMPLES = 5
REPLAY_SHARE = 0.4
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60
REF_LOOP = 60000
# median time of reference_kernel() on the reference host (2-core Intel
# Xeon, Python 3.11) at its usual speed; 4.2 to 6.3 ms were seen
REF_KERNEL_S = 0.005
OUT_DIR = harness.ROOT / ".perfbench_out"
WORK_ROOT = harness.ROOT / ".perfbench_work"
SPEC = json.loads((harness.BENCH_DIR / "predictions.json").read_text())
PER_LAYER = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["per_layer"]


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def limit_blas_threads():
    """At most one BLAS thread per CPU; must run before numpy is imported."""
    ncpu = cpu_count()
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", ncpu))
    except ValueError:
        wanted = ncpu
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, ncpu)))


def setup(workload, seed, workdir):
    """Import the library and write the seeded inputs: what a run pays before its first op."""
    hc = harness.import_library()
    refs = json.loads((harness.BENCH_DIR / "data" / "refs.json").read_text())
    workdir.mkdir(parents=True, exist_ok=True)
    ops = W.make_op_set(workload, seed, refs, workdir)
    return hc, refs, ops


def measure_setups(workload, seed):
    """Set-up time of fresh processes, from spawn to ready, SETUP_SAMPLES times."""
    samples = []
    for k in range(SETUP_SAMPLES):
        workdir = WORK_ROOT / f"setup-{os.getpid()}-{k}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or "ready" not in proc.stdout:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        samples.append(elapsed)
    return samples


def reference_kernel():
    """Fixed work that measures the host's speed; it calls nothing of the library."""
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    return s


def run_passes(cli, ops, passes, tracer=None):
    """`passes` passes over the op set, timing reference_kernel() after each op.

    Returns (records in call order, kernel times, wall seconds)."""
    records = []
    kernel = []
    start = time.perf_counter()
    for _ in range(passes):
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            res = harness.call_cli(cli, op.argv)
            records.append((op, res, W.read_output(op)))
            k0 = time.perf_counter()
            reference_kernel()
            kernel.append(time.perf_counter() - k0)
    return records, kernel, time.perf_counter() - start


def digest(res, filetext):
    h = hashlib.sha256()
    h.update(str(res.rc).encode())
    h.update(res.stdout.encode())
    h.update((filetext or "").encode())
    return h.hexdigest()


def check_all(records, refs):
    """Per-op verdicts; a failure outside the known defects makes the run incorrect."""
    failures = []
    for i, (op, res, filetext) in enumerate(records):
        verdict = W.check(op, res, filetext, refs)
        if verdict is not None:
            reason, defect = verdict
            failures.append({"op": i, "kind": op.kind, "argv": op.argv, "reason": reason,
                             "known_defect": defect})
    return failures


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def per_kind(records):
    out = {}
    for op, res, _ in records:
        entry = out.setdefault(op.kind, {"samples": 0, "latencies": []})
        entry["samples"] += 1
        entry["latencies"].append(res.seconds)
    return {k: {"samples": v["samples"], "median_s": statistics.median(v["latencies"])}
            for k, v in sorted(out.items())}


def provenance(seed, workload):
    import numpy as np

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        **harness.source_id(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, kernel, passes, wall_s, setup_samples, failures):
    """The end-to-end metrics, in seconds at the reference speed."""
    latencies = [res.seconds for _, res, _ in records]
    tail_s, tail_pct = tail(latencies)
    kind_of = {res.seconds: op.kind for op, res, _ in records}
    ordered = sorted(latencies)
    scale = REF_KERNEL_S / statistics.median(kernel)
    measured = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
    }
    metrics = {
        "setup_s": metric(measured["setup_s"] * scale, "s"),
        "ops_per_s": metric(measured["ops_per_s"] / scale, "1/s"),
        "op_p50_s": metric(measured["op_p50_s"] * scale, "s"),
        "op_tail_s": metric(measured["op_tail_s"] * scale, "s"),
        "ok_frac": metric((len(records) - len(failures)) / len(records), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # the op class whose latencies set the median and the tail
    return metrics, {"tail_percentile": tail_pct, "samples": len(latencies), "passes": passes,
                     "p50_kind": kind_of[ordered[(len(ordered) - 1) // 2]],
                     "tail_kind": kind_of[tail_s],
                     "kernel_median_s": statistics.median(kernel), "scale": scale,
                     "measured": measured, "setup_samples_s": setup_samples, "wall_s": wall_s}


def per_layer(tracer, overhead_s, untraced_s, spans):
    stats = tracer.stats()
    stats["trace.spans"] = spans
    stats["trace.overhead_s"] = overhead_s
    stats["trace.overhead_frac"] = overhead_s / untraced_s
    return {m["name"]: metric(stats[m["name"]], m["unit"]) for m in PER_LAYER}, stats


def reach_misses(stats, workload):
    return [name for name, wls in SPEC["reach"].items()
            if workload in wls and stats[f"{name}.calls"] == 0]


def run_traced(cli, ops, args, stem, notes):
    """Traced passes, then an untraced replay of the first calls."""
    from tracer import Tracer

    tracer = Tracer(SPEC["reach"])
    tracer.install()
    try:
        passes = W.passes(args.workload, args.seconds)
        records, _, wall_s = run_passes(cli, ops, passes, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(OUT_DIR / f"{stem}-spans.jsonl.gz")
    spans = len(tracer.spans)
    tracer.spans.clear()
    gc.collect()
    # outputs must match the traced ones; the difference in op time is the overhead
    budget = REPLAY_SHARE * sum(res.seconds for _, res, _ in records)
    traced_s = untraced_s = 0.0
    replayed = 0
    mismatched = []
    for op, traced, traced_file in records:
        if traced_s >= budget:
            break
        res = harness.call_cli(cli, op.argv)
        if digest(res, W.read_output(op)) != digest(traced, traced_file):
            mismatched.append(replayed)
        traced_s += traced.seconds
        untraced_s += res.seconds
        replayed += 1
    if mismatched:
        notes.append(f"traced and untraced outputs differ on ops {mismatched[:10]}")
    metrics, stats = per_layer(tracer, traced_s - untraced_s, untraced_s, spans)
    misses = reach_misses(stats, args.workload)
    if misses:
        notes.append(f"functions meant for this workload were never called: {misses}")
    info = {"samples": len(records), "passes": passes, "wall_s": wall_s, "replayed": replayed,
            "replayed_traced_s": traced_s, "replayed_untraced_s": untraced_s,
            "all_layer_stats": stats}
    return records, metrics, info


def run_one(args):
    workdir = WORK_ROOT / str(os.getpid())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_samples = [] if args.trace else measure_setups(args.workload, args.seed)
    try:
        hc, refs, ops = setup(args.workload, args.seed, workdir)
        OUT_DIR.mkdir(exist_ok=True)
        notes = []
        if args.trace:
            records, metrics, info = run_traced(hc.cli, ops, args, stem, notes)
            failures = check_all(records, refs)
        else:
            passes = W.passes(args.workload, args.seconds)
            records, kernel, wall_s = run_passes(hc.cli, ops, passes)
            failures = check_all(records, refs)
            metrics, info = end_to_end(records, kernel, passes, wall_s, setup_samples, failures)
        unexpected = [f for f in failures if not f["known_defect"]]
        if unexpected:
            notes.append(f"{len(unexpected)} ops failed outside the known defects")
        correct = not notes
        report = {
            "provenance": provenance(args.seed, args.workload),
            "correct": correct,
            "notes": notes,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": metrics,
            "run": info,
            "per_kind": per_kind(records),
            "failures": failures,
        }
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
        print_summary(report)
        print(json.dumps({"correct": correct, "attempted": len(records),
                          "failed": len(failures), "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def print_summary(report):
    prov = report["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  commit {prov['commit']}  "
          f"src {prov['src_sha256'][:12]}")
    print(f"  {prov['cpu_model']}, nproc {prov['nproc']}, Python {prov['python']}, "
          f"numpy {prov['numpy']}, {prov['blas']}, BLAS threads {prov['blas_threads']}")
    run = report["run"]
    if "tail_percentile" in run:
        print(f"  {run['samples']} ops in {run['passes']} passes, {run['wall_s']:.2f} s; "
              f"op_tail_s is p{run['tail_percentile']:.2f} of {run['samples']} samples "
              f"({run['tail_kind']}); op_p50_s is {run['p50_kind']}")
        print(f"  reference kernel median {run['kernel_median_s'] * 1000:.3f} ms: times below are "
              f"measured times x {run['scale']:.4f}; measured: "
              + ", ".join(f"{k} {v:.6g}" for k, v in run["measured"].items()))
    else:
        print(f"  {run['samples']} ops traced in {run['passes']} passes; the first "
              f"{run['replayed']} took {run['replayed_traced_s']:.3f} s traced, "
              f"{run['replayed_untraced_s']:.3f} s untraced")
    for kind, entry in report["per_kind"].items():
        print(f"  {kind:<20} {entry['samples']:>5} ops, median {entry['median_s']:.4f} s")
    for name, m in report["metrics"].items():
        print(f"  {name:<45} {m['value']:.6g} {m['unit']}")
    print(f"  {report['failed']} of {report['attempted']} ops failed "
          f"({sum(not f['known_defect'] for f in report['failures'])} outside the known defects)")
    for note in report["notes"]:
        print(f"  CHECK FAILED: {note}")


def run_all(args):
    """Every workload in its own process, then one table."""
    results = {}
    for workload in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    names = list(results[W.WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':<14}" + "".join(f"{w:>14}" for w in W.WORKLOADS) + "  unit")
    for name in names:
        unit = results[W.WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:<14}" + "".join(f"{results[w]['metrics'][name]['value']:>14.6g}"
                                      for w in W.WORKLOADS) + f"  {unit}")
    for key in ("correct", "attempted", "failed"):
        print(f"{key:<14}" + "".join(f"{str(results[w][key]):>14}" for w in W.WORKLOADS))
    print(json.dumps(results))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not harness.PACKAGE_INIT.is_file():
        raise harness.missing_source("no library source under src/hypercurrent")
    limit_blas_threads()
    if args.setup_only:
        setup(args.workload, args.seed, harness.Path(args.workdir))
        print("ready", flush=True)
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
