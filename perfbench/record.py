"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs the library of this checkout and writes ``perfbench/data/refs.json``:
exact reports and pairings (compared byte for byte), analytical classes
on every beta grid point the workloads draw from, the cube protocol
templates (triangulation and stored cycle) used to generate protocol
files, and the complex documents the weight-space ops read.  Run it
only to re-baseline; the file is checked in.
"""

import csv
import json
import random
import sys
from itertools import product
from pathlib import Path

import harness
import workloads as W


def main():
    harness.import_library()
    from hypercurrent import cli
    from hypercurrent.complex_core import dumps_complex, sphere_complex, sphere_wedge_complex
    from hypercurrent.protocol import cube_sphere_protocol, dumps_protocol

    tmp = harness.ROOT / ".perfbench_work" / "record"
    tmp.mkdir(parents=True, exist_ok=True)

    def run(argv):
        res = harness.call_cli(cli, argv)
        if res.rc != 0:
            raise RuntimeError(f"{argv}: exit {res.rc}: {res.stderr}")
        return res.stdout

    refs = {"source": harness.source_id()}
    refs["complexes"] = {
        f"{name}{q}": json.loads(dumps_complex(make(q)))
        for q in (1, 2)
        for name, make in (("sphere", sphere_complex), ("wedge", sphere_wedge_complex))
    }
    templates = {}
    for q in (2, 3, 4):
        doc = json.loads(dumps_protocol(cube_sphere_protocol(q), complex_ref={"builtin": "sphere", "q": q}))
        templates[str(q)] = {
            "ids": [v["id"] for v in doc["vertices"]],
            "simplices": doc["simplices"],
            "cycle": doc["cycle"],
        }
    refs["cube_templates"] = templates
    refs["topo_builtin"] = {
        spec: run(["topo", "current", f"builtin:{spec}"])
        for q in (1, 2, 3)
        for spec in (f"cube_sphere:{q}", f"cube_wedge:{q}")
    }

    class Fixed(random.Random):
        """Unperturbed weights: leading cell at +-1, second cell at 0."""

        def uniform(self, a, b):
            return 1.0 if a > 0 else 0.0

    def pairing(doc):
        path = tmp / "p.json"
        path.write_text(json.dumps(doc))
        report = json.loads(run(["topo", "current", str(path)]))
        return json.dumps({"chain": report["chain"], "class": report["class"]}, sort_keys=True)

    generated = {}
    rng = random.Random(0)
    for q in (2, 3, 4):
        for kind in ("sphere", "sphere_wedge"):
            table = {}
            for signs in product((1, -1), repeat=q + 1):
                key = W.signs_key(signs)
                table[key] = pairing(W.cube_file_doc(templates[str(q)], kind, q, signs, Fixed()))
                # order-preserving perturbations must not change the exact pairing
                if q < 4 or rng.random() < 0.15:
                    for _ in range(2):
                        doc = W.cube_file_doc(templates[str(q)], kind, q, signs, rng)
                        if pairing(doc) != table[key]:
                            raise RuntimeError(f"perturbation changed the pairing: {kind} {q} {key}")
            generated[f"{kind}:{q}"] = table
            print(f"recorded {kind}:{q}", file=sys.stderr)
    refs["topo_generated"] = generated

    sweeps = [(spec, W.DEFAULT_TOL, W.Q1_BETAS + [30.0])
              for spec in ("square", "cube_sphere:1", "cube_wedge:1")]
    sweeps += [(spec, W.DEFAULT_TOL, W.Q2_LOW_BETAS + W.Q2_MID_BETAS)
               for spec in ("cube_sphere:2", "cube_wedge:2")]
    sweeps.append(("cube_sphere:3", W.Q3_TOL, W.Q3_BETAS))
    refs["topological"] = {}
    refs["classes"] = {}
    for spec, tol, betas in sweeps:
        out = tmp / "s.csv"
        summary = json.loads(run(["quantize", f"builtin:{spec}", "--betas", W.fmt_betas(betas),
                                  "--tol", tol, "--out", str(out)]))
        refs["topological"][spec] = summary["topological"]
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        refs["classes"][f"{spec}|{tol}"] = {
            W.beta_key(row[0]): [float(v) for v in row[1:-2]] for row in rows
        }
        print(f"recorded {spec} at tol {tol}", file=sys.stderr)

    for path in tmp.iterdir():
        path.unlink()
    tmp.rmdir()
    dest = harness.BENCH_DIR / "data" / "refs.json"
    dest.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"wrote {dest.relative_to(harness.ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
