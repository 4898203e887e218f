import ast
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from hypercurrent import cli, complex_core, ratlin, topo_hyper
from hypercurrent.cli import main
from hypercurrent.complex_core import dumps_complex, gap_complex, sphere_complex, torsion_complex
from hypercurrent.ana_hyper import jan_cochain
from hypercurrent.graph_dynamics import evolve
from hypercurrent.protocol import builtin_protocol, cube_protocol, cube_sphere_protocol, \
    dumps_protocol, load_protocol

from exact_cochain import chain_map_defect_oracle
from protocol_ops import shuffled_doc, square_doc_without_last_edge

REFS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "data" / "refs.json"


@pytest.fixture
def sphere1_file(tmp_path):
    path = tmp_path / "sphere1.json"
    path.write_text(dumps_complex(sphere_complex(1)))
    return str(path)


@pytest.fixture
def tor_file(tmp_path):
    path = tmp_path / "tor.json"
    path.write_text(dumps_complex(torsion_complex()))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"name": "triangle", "cells": [["a", "b", "c"], ["ab", "bc", "ac"]],
                                "boundary": [[[-1, 0, -1], [1, -1, 0], [0, 1, 1]]]}))
    return str(path)


def test_complex_validate(sphere1_file, capsys):
    assert main(["complex", "validate", sphere1_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] and report["cells"] == [2, 2]
    assert "input_hash" in report and "config" in report


def test_complex_betti(tor_file, capsys):
    assert main(["complex", "betti", tor_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["betti"] == [1, 0, 1]


def test_complex_validate_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "cells": [["v", "w"], ["a"], ["f"]],
                "boundary": [[[1], [-1]], [[1]]],
            }
        )
    )
    assert main(["complex", "validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_is_validation_error(capsys):
    assert main(["complex", "validate", "/nonexistent.json"]) == 2


def test_trees_enumerate(tor_file, capsys):
    assert main(["trees", "enumerate", tor_file, "--p", "0", "--q", "2", "--level", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trees"] == [
        {"cells": ["u"], "torsion": 2},
        {"cells": ["w"], "torsion": 3},
    ]


def test_trees_greedy(tor_file, tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"u": 5.0, "w": 1.0}))
    assert main(
        ["trees", "greedy", tor_file, "--p", "0", "--q", "2", "--level", "2",
         "--weights", str(wfile)]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tree"]["cells"] == ["w"]
    assert report["tree"]["total_weight"] == 1.0


def test_trees_greedy_without_weights_is_validation_error(triangle_file, capsys):
    assert main(["trees", "greedy", triangle_file, "--p", "0", "--q", "1", "--level", "1"]) == 2
    captured = capsys.readouterr()
    assert "trees greedy needs --weights" in captured.err and captured.out == ""


def test_trees_greedy_weights_missing_a_cell_is_validation_error(triangle_file, tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"ab": 1.0, "bc": 2.0}))
    assert main(["trees", "greedy", triangle_file, "--p", "0", "--q", "1", "--level", "1",
                 "--weights", str(wfile)]) == 2
    captured = capsys.readouterr()
    assert "no weight for cell 'ac' on level 1" in captured.err and captured.out == ""


def test_trees_greedy_nonfinite_weight_is_validation_error(triangle_file, tmp_path, capsys):
    # the report would print "total_weight": NaN, which is not JSON
    wfile = tmp_path / "w.json"
    wfile.write_text('{"ab": NaN, "bc": 2.0, "ac": 3.0}')
    assert main(["trees", "greedy", triangle_file, "--p", "0", "--q", "1", "--level", "1",
                 "--weights", str(wfile)]) == 2
    captured = capsys.readouterr()
    assert "of cell 'ab' on level 1 is not finite" in captured.err and captured.out == ""


@pytest.mark.parametrize("level", ["-1", "2"])
@pytest.mark.parametrize("action", ["enumerate", "greedy"])
def test_trees_level_outside_the_gap_is_validation_error(action, level, triangle_file, tmp_path,
                                                          capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"a": 1.0, "b": 2.0, "c": 3.0, "ab": 1.0, "bc": 2.0, "ac": 3.0}))
    assert main(["trees", action, triangle_file, "--p", "0", "--q", "1", f"--level={level}",
                 "--weights", str(wfile)]) == 2
    captured = capsys.readouterr()
    assert "level outside the gap" in captured.err and captured.out == ""


def test_protocol_check_builtin(capsys):
    assert main(["protocol", "check", "builtin:square"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["good"] is True


def test_protocol_certified_once(monkeypatch, capsys):
    from hypercurrent import protocol

    calls = []
    real = protocol.smallness
    monkeypatch.setattr(protocol, "smallness", lambda dom: calls.append(dom) or real(dom))
    assert main(["protocol", "strata", "builtin:cube_sphere:2"]) == 0
    assert len(calls) == 1


def test_protocol_strata(capsys):
    assert main(["protocol", "strata", "builtin:cube_sphere:2"]) == 0
    report = json.loads(capsys.readouterr().out)
    ks = [s["k"] for s in report["simplices"] if len(s["vertices"]) == 3]
    assert len(ks) == 12 and all(k in (0, 1, 2) for k in ks)


def test_topo_current_square(capsys):
    assert main(["topo", "current", "builtin:square"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report["chain"]) == ["e1+", "e1-"]
    vals = set(report["chain"].values())
    assert vals in ({"1/1"}, {"-1/1"})
    assert report["class"] in (["1/1"], ["-1/1"])


def test_topo_current_matches_library(capsys):
    from hypercurrent.protocol import cube_sphere_protocol
    from hypercurrent.topo_hyper import hypercurrent_homology

    assert main(["topo", "current", "builtin:cube_sphere:2"]) == 0
    report = json.loads(capsys.readouterr().out)
    proto = cube_sphere_protocol(2)
    [(coords, chain)] = hypercurrent_homology(proto, [proto.fundamental_cycle],
                                              ratlin.QMat.identity(1))
    expected = {
        proto.gap.cells_at(2)[i]: f"{v.numerator}/{v.denominator}"
        for i, (v,) in enumerate(chain.to_rows())
        if v
    }
    assert report["chain"] == expected


@pytest.mark.parametrize("coords", [[1, 2], []])
def test_topo_current_class_of_wrong_length(coords, tmp_path, capsys):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(coords))
    assert main(["topo", "current", "builtin:cube_sphere:2", "--class", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"class has {len(coords)} coordinates, homology has dimension 1" in captured.err
    assert captured.out == ""


def _count_calls(monkeypatch, names):
    """Calls of each "module.function" in names, counted by rebinding the
    function under every name any hypercurrent module holds it by."""
    import sys

    calls = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items() if n.startswith("hypercurrent") and m]
    for name in names:
        module, func = name.split(".")
        original = getattr(sys.modules["hypercurrent." + module], func)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_topo_current_reaches_the_stacked_lift(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, ["topo_hyper.build_lift_cache", "topo_hyper.lift_simplex",
                                       "topo_hyper.tree_functor", "forests.greedy_dtree"])
    assert main(["topo", "current", "builtin:cube_sphere:2"]) == 0
    assert calls["topo_hyper.build_lift_cache"] == 1
    # one stacked pass per cell dimension above the vertices
    assert calls["topo_hyper.lift_simplex"] == 2
    assert calls["topo_hyper.tree_functor"] > 0 and calls["forests.greedy_dtree"] > 0


def test_topo_current_materialises_no_cell_qmat(monkeypatch, capsys):
    # the pairing contracts the top stack, so no cell's lowest-terms QMat is
    # built; an eager unpack would build one per cell and degree
    made = []
    real_init = ratlin.QMat.__init__

    def counted(self, num, den=1):
        made.append(num.shape)
        real_init(self, num, den)

    monkeypatch.setattr(ratlin.QMat, "__init__", counted)
    assert main(["topo", "current", "builtin:cube_sphere:3"]) == 0
    proto = builtin_protocol("cube_sphere", 3)
    assert len(made) < proto.cell_index.offsets[-1] * (proto.gap.top + 1)


def test_topo_current_cycle_outside_the_protocol_is_validation_error(tmp_path, capsys):
    doc, name = square_doc_without_last_edge()
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    assert main(["topo", "current", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"error: NotACycle: cycle names simplex {name}," in captured.err
    assert captured.out == ""


def test_quantize_reaches_tree_enumeration(monkeypatch, tmp_path, capsys):
    calls = _count_calls(monkeypatch, ["forests.enumerate_dtrees"])
    assert main(["quantize", "builtin:square", "--betas", "5", "--out", str(tmp_path / "q.csv")]) == 0
    assert calls["forests.enumerate_dtrees"] > 0


def test_ana_axioms(capsys):
    assert main(
        ["ana", "axioms", "builtin:square", "--beta", "3", "--samples", "5",
         "--tol", "1e-5"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == 0
    assert report["continuity"] <= 1e-5


def test_ana_axioms_reaches_jan_form(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, ["ana_hyper.jan_form", "ana_hyper.axioms_check"])
    assert main(["ana", "axioms", "builtin:square", "--beta", "3", "--samples", "4"]) == 0
    assert calls["ana_hyper.axioms_check"] == 1
    assert calls["ana_hyper.jan_form"] > 0


@pytest.mark.parametrize("step", ["0", "nan", "-1e-5"])
def test_ana_axioms_bad_fd_step_is_validation_error(step, capsys):
    # a zero or NaN step used to pass every axiom with zero residuals
    assert main(["ana", "axioms", "builtin:cube_sphere:2", "--beta", "5", "--tol", "1e-5",
                 f"--fd-step={step}"]) == 2
    captured = capsys.readouterr()
    assert "fd_step must be finite and positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_ana_axioms_samples_below_one_is_validation_error(samples, capsys):
    assert main(["ana", "axioms", "builtin:cube_sphere:2", "--beta", "5",
                 "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert f"samples must be at least 1, got {samples}" in captured.err
    assert captured.out == ""


def test_ana_integrate(capsys):
    assert main(["ana", "integrate", "builtin:square", "--beta", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual"] <= 1e-6
    assert any(len(s["vertices"]) == 2 for s in report["simplices"])


@pytest.mark.parametrize("spec", ["builtin:square", "builtin:cube_sphere:2", "shuffled"])
def test_integrate_lists_cells_in_cell_index_order(spec, tmp_path, capsys):
    # cell_index order is (length, key) order, even for a file that lists
    # its simplices out of order, so the report zips the keys with the
    # stacks: the rows of the keys sorted so, each with its block
    if spec == "shuffled":
        spec = str(tmp_path / "shuffled.json")
        pathlib.Path(spec).write_text(json.dumps(shuffled_doc(builtin_protocol("cube_sphere", 2), 5)))
    proto = cli._load_protocol_arg(spec, [spec])
    keys = proto.cell_index.keys
    assert list(keys) == sorted(keys, key=lambda key: (len(key), key))
    assert main(["ana", "integrate", spec, "--beta", "5"]) == 0
    coch = jan_cochain(proto, 5.0)

    def block(key):     # read from its dimension's stack by its place
        dim = proto.dim_of(key)
        return coch.stacks[dim][proto.place_of(key) - proto.cell_index.offsets[dim]]

    assert json.loads(capsys.readouterr().out)["simplices"] == [
        {"vertices": [proto.vertex_ids[v] for v in key], "block": block(key).tolist()}
        for key in sorted(keys[:sum(map(len, coch.stacks))], key=lambda key: (len(key), key))]


def test_broken_invariant_exits_1(monkeypatch, capsys):
    # numpy failing on valid input is an internal fault, not a validation
    # failure, though LinAlgError is a ValueError
    def singular(*args):
        return np.linalg.inv(np.zeros((2, 2)))

    monkeypatch.setattr("hypercurrent.ana_hyper.kirchhoff_pseudoinverse", singular)
    assert main(["ana", "integrate", "builtin:square", "--beta", "4"]) == 1
    err = capsys.readouterr().err
    assert "InvariantBroken" in err and "LinAlgError: Singular matrix" in err


def test_paired_non_cycle_is_broken_invariant(monkeypatch, capsys):
    # the lift is a chain map, so the chain the pairing reads is a cycle;
    # one corrupted entry of the data the pairing reads, a cycle cell's
    # degree-0 numerators, breaks that on valid input.  The cell gets a
    # signature of its own: corrupting a signature that cycle cells share
    # would cancel across their coefficients +-1
    original = topo_hyper.build_lift_cache

    def corrupted(proto):
        cache = original(proto)
        top = proto.gap.top
        at = proto.place_of(next(iter(proto.fundamental_cycle)))
        num, den = cache.blocks[top][0]
        row = num[cache.signatures[at]].copy()
        row[0, 0] += den
        cache.blocks[top] = [(np.concatenate([num, row[None]]), den)] + cache.blocks[top][1:]
        cache.signatures[at] = len(num)
        return cache

    monkeypatch.setattr(topo_hyper, "build_lift_cache", corrupted)
    assert main(["topo", "current", "builtin:cube_sphere:2"]) == 1
    captured = capsys.readouterr()
    assert "internal error: InvariantBroken" in captured.err and "not a cycle" in captured.err
    assert captured.out == ""


def test_unknown_builtin_is_validation_error(capsys):
    assert main(["topo", "current", "builtin:nonesuch:2"]) == 2


@pytest.mark.parametrize("arg", ["builtin:cube_sphere:0_2", "builtin:cube_sphere: 2",
                                 "builtin:cube_sphere:+2", "builtin:cube_sphere:\u0662"])
def test_builtin_degree_must_be_ascii_digits(arg, capsys):
    # int() reads each of these as 2
    assert main(["topo", "current", arg]) == 2
    captured = capsys.readouterr()
    assert f"error: ParseError: {arg}: the Q of builtin:KIND:Q must be ASCII decimal digits" \
        in captured.err
    assert captured.out == ""


def test_builtin_degree_defaults_to_2(capsys):
    assert main(["protocol", "strata", "builtin:cube_sphere:"]) == 0
    empty = capsys.readouterr().out
    assert main(["protocol", "strata", "builtin:cube_sphere:2"]) == 0
    two = json.loads(capsys.readouterr().out)
    assert json.loads(empty)["simplices"] == two["simplices"]


@pytest.mark.parametrize("argv", [["protocol", "check", "DOC"],
                                  ["topo", "current", "builtin:cube_sphere:8"]])
def test_builtin_degree_above_the_bound_exits_2_before_building(argv, tmp_path, monkeypatch,
                                                                 capsys):
    from hypercurrent import protocol
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"builtin": {"type": "cube_sphere", "q": 1000000000}}))

    def refused(*args):
        raise AssertionError("the bound is checked before anything is built")

    for name in ("sphere_complex", "gap_complex", "cube_boundary_protocol"):
        monkeypatch.setattr(protocol, name, refused)
    assert main([str(doc) if a == "DOC" else a for a in argv]) == 2
    assert "ParseError: builtin cube_sphere takes q at most 7" in capsys.readouterr().err


def test_quantize_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(
        ["quantize", "builtin:square", "--betas", "5,15", "--out", str(out)]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["csv"] == str(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("beta,class_0,distance")
    assert len(lines) == 3


def test_quantize_residuals_from_the_sweep(monkeypatch, tmp_path, capsys):
    # the residual column comes from the sweep's own cochain per beta, so
    # the command itself never builds one
    from hypercurrent import ana_hyper, cli

    built = []
    real = ana_hyper.jan_cochain
    monkeypatch.setattr(ana_hyper, "jan_cochain", lambda *a, **k: built.append(a[1]) or real(*a, **k))
    monkeypatch.setattr(cli, "jan_cochain", None)
    out = tmp_path / "sweep.csv"
    assert main(["quantize", "builtin:square", "--betas", "5,15", "--residuals",
                 "--out", str(out)]) == 0
    assert built == [5.0, 15.0]
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [5.0, 15.0]
    assert all(0.0 <= float(r[-1]) <= 1e-6 for r in rows)


@pytest.mark.parametrize("argv,defects", [
    (["ana", "integrate", "builtin:cube_sphere:2", "--beta", "10"], 1),
    (["quantize", "builtin:cube_wedge:2", "--betas", "2.5,4", "--residuals"], 2),
], ids=["integrate", "quantize"])
def test_residual_outputs_match_the_cell_by_cell_oracle(argv, defects, monkeypatch, tmp_path,
                                                        capsys):
    # the report and CSV bytes are those of the defect computed cell by cell
    from hypercurrent import ana_hyper, cli

    out = tmp_path / "out"
    written = []
    calls = []

    def oracle(coch):
        calls.append(1)
        return chain_map_defect_oracle(coch)

    for patched in (False, True):
        if patched:
            monkeypatch.setattr(cli, "cochain_chain_map_defect", oracle)
            monkeypatch.setattr(ana_hyper, "cochain_chain_map_defect", oracle)
        assert main(argv + ["--out", str(out)]) == 0
        written.append((out.read_bytes(), capsys.readouterr().out))
    assert len(calls) == defects
    assert written[0] == written[1]


def test_quantize_over_the_node_budget_exits_2(monkeypatch, tmp_path, capsys):
    # a depth whose batch would exceed the node budget is not built: the
    # sweep stops with a validation error naming the budget, at beta 2,
    # whose tie floor (depth 2) the budget admits, and at beta 12.5, whose
    # floor (depth 5) it does not, before any batch
    from hypercurrent import ana_hyper

    monkeypatch.setattr(ana_hyper, "_NODE_BUDGET", 700)
    out = tmp_path / "q.csv"
    assert main(["quantize", "builtin:cube_sphere:2", "--betas", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    [line] = captured.err.splitlines()
    assert line.startswith("error: QuadratureNoConvergence: simplex ")
    assert line.endswith(": no convergence within depth 3 at tol 1e-08: "
                         "depth 4 would exceed the budget of 700 nodes per simplex")
    assert main(["quantize", "builtin:cube_sphere:2", "--betas", "12.5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    [line] = captured.err.splitlines()
    assert line.startswith("error: QuadratureNoConvergence: simplex ")
    assert line.endswith(" at beta 12.5: tie layer needs depth 5, budget allows 3")


def test_quantize_rejects_descending_betas(capsys):
    assert main(["quantize", "builtin:square", "--betas", "10,5"]) == 2


@pytest.mark.parametrize("argv", [
    ["quantize", "builtin:square", "--betas", "inf"],
    ["quantize", "builtin:square", "--betas", "5,nan"],
    ["ana", "integrate", "builtin:square", "--beta", "inf"],
])
def test_nonfinite_beta_is_validation_error(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "beta values must be finite" in captured.err
    assert "NaN" not in captured.out and "Warning" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["quantize", "builtin:square", "--betas", "30"],
    ["ana", "integrate", "builtin:square", "--beta", "30"],
    ["ana", "axioms", "builtin:square", "--beta", "30"],
    ["demo", "--q", "1", "--betas", "30"],
])
def test_infinite_tolerance_is_validation_error(command, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(command + ["--tol", "inf", "--out", str(out)]) == 2
    assert "tolerances must be finite and positive, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["quantize", "builtin:square"], ["demo", "--q", "1"]])
def test_repeated_betas_give_one_row_each(command, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(command + ["--betas", "5,5", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 2 and rows[0] == rows[1]


@pytest.mark.parametrize("command", [["quantize", "builtin:square", "--betas", "5"],
                                     ["ana", "integrate", "builtin:square", "--beta", "5"]])
def test_negative_quad_depth_is_validation_error(command, tmp_path, capsys):
    assert main(command + ["--quad-depth", "-1", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "quadrature depth must be non-negative, got -1" in captured.err
    assert "NaN" not in captured.out
    assert not (tmp_path / "out").exists()


def test_quantize_has_no_workers_option(tmp_path, capsys):
    # argparse rejects the option before main's error handling runs
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["quantize", "builtin:square", "--betas", "5", "--workers", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["cube_sphere:1", "cube_sphere:2", "cube_sphere:3",
                                  "cube_wedge:1", "cube_wedge:2", "cube_wedge:3"])
def test_topo_current_builtin_report_bytes(spec, capsys):
    # the benchmark's recorded reports, config included, byte for byte
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    assert main(["topo", "current", f"builtin:{spec}"]) == 0
    assert capsys.readouterr().out == refs["topo_builtin"][spec]


def test_weightspace_report(sphere1_file, capsys):
    assert main(["weightspace", "report", sphere1_file, "--p", "0", "--q", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summands"] == 1
    assert report["inessential"] == 0
    assert report["robust_summands"] == 1
    assert report["cells"][0]["essential"] is True


def test_weightspace_report_reaches_the_stacked_lift(monkeypatch, tmp_path, capsys):
    # every name the benchmark's weightspace reach list traces is called, and
    # the six path3 cells share one lift
    spec = json.loads((REFS.parents[1] / "predictions.json").read_text(encoding="utf-8"))
    reach = [name for name, loads in spec["reach"].items()
             if "weightspace" in loads and name != "cli.main"]
    calls = _count_calls(monkeypatch, reach + ["topo_hyper.build_lift_cache"])
    path = tmp_path / "path3.json"
    path.write_text(json.dumps({"name": "path3", "cells": [["x", "y", "z"], ["xy", "yz"]],
                                "boundary": [[[-1, 0], [1, -1], [0, 1]]]}))
    assert main(["weightspace", "report", str(path), "--p", "0", "--q", "1"]) == 0
    assert len(reach) == 12 and not [name for name in reach if not calls[name]]
    assert calls["topo_hyper.build_lift_cache"] == 1


def test_weightspace_contractible(tor_file, capsys):
    assert main(["weightspace", "report", tor_file, "--p", "0", "--q", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["contractible"] is True and report["summands"] == 0


def test_weightspace_report_outside_a_gap_is_validation_error(triangle_file, capsys):
    # beta_1 = 1 inside [0, 3], and 3 is above the dimension
    assert main(["weightspace", "report", triangle_file, "--p", "0", "--q", "3"]) == 2
    captured = capsys.readouterr()
    assert "GapViolated" in captured.err and captured.out == ""


DYN_PROTOCOL = {
    "complex": {"builtin": "sphere", "q": 1},
    "p": 0,
    "q": 1,
    "vertices": [
        {"id": "t0", "weights": {"0": [0.0, 0.3], "1": [0.0, 0.0]}},
        {"id": "t1", "weights": {"0": [0.3, 0.0], "1": [0.0, 0.0]}},
    ],
    "simplices": [{"vertices": ["t0", "t1"]}],
}


def test_dyn_evolve(tmp_path, capsys):
    pfile = tmp_path / "proto.json"
    pfile.write_text(json.dumps(DYN_PROTOCOL))
    p0file = tmp_path / "p0.json"
    p0file.write_text(json.dumps([1.0, 0.0]))
    out = tmp_path / "traj.csv"
    assert main(
        ["dyn", "evolve", str(pfile), "--p0", str(p0file), "--t0", "0", "--t1", "2",
         "--steps", "50", "--tol", "1e-6", "--out", str(out)]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mass_drift"] <= 1e-9
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,e0+,e0-"
    assert len(lines) == 52
    # every cell is a plain number, not a numpy repr such as np.float64(x)
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)


def test_dyn_evolve_csv_cells_are_float_reprs(tmp_path):
    pfile = tmp_path / "proto.json"
    pfile.write_text(json.dumps(DYN_PROTOCOL))
    p0file = tmp_path / "p0.json"
    p0file.write_text(json.dumps([0.25, 0.75]))
    out = tmp_path / "traj.csv"
    # times of order 1e-5 print in exponent form
    assert main(["dyn", "evolve", str(pfile), "--p0", str(p0file), "--t0", "0", "--t1", "2e-5",
                 "--steps", "8", "--out", str(out)]) == 0
    times, traj = evolve(load_protocol(str(pfile)), [0.25, 0.75], 0.0, 2e-5, 8)
    rows = [",".join(repr(float(x)) for x in [t, *row]) for t, row in zip(times, traj)]
    assert out.read_bytes() == ("\r\n".join(["t,e0+,e0-"] + rows) + "\r\n").encode()
    assert "e-05" in rows[-1].split(",")[0]


def test_dyn_evolve_csv_is_what_csv_writer_writes(tmp_path):
    # the float rows are joined by hand; the header, whose names may need
    # quoting, still goes through csv.writer
    doc = dict(DYN_PROTOCOL, complex={"inline": {
        "name": "quoted", "cells": [["x,1", 'y"2'], ["e1+", "e1-"]],
        "boundary": [[[1, -1], [-1, 1]]]}})
    pfile = tmp_path / "proto.json"
    pfile.write_text(json.dumps(doc))
    p0file = tmp_path / "p0.json"
    p0file.write_text(json.dumps([0.25, 0.75]))
    out = tmp_path / "traj.csv"
    assert main(["dyn", "evolve", str(pfile), "--p0", str(p0file), "--steps", "20",
                 "--out", str(out)]) == 0
    times, traj = evolve(load_protocol(str(pfile)), [0.25, 0.75], 0.0, 1.0, 20, tol=1e-6)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "x,1", 'y"2'])
    writer.writerows([t] + row for t, row in zip(times.tolist(), traj.tolist()))
    assert out.read_bytes() == expected.getvalue().encode()
    assert out.read_bytes().startswith(b't,"x,1","y""2"\r\n')


@pytest.mark.parametrize(
    "command, option, doc, shape",
    [(["topo", "current", "builtin:cube_sphere:2"], "--class", "5", "a JSON list of finite numbers"),
     (["topo", "current", "builtin:cube_sphere:2"], "--class", "[null]",
      "a JSON list of finite numbers"),
     (["topo", "current", "builtin:cube_sphere:2"], "--class", "[1.5e400]",
      "a JSON list of finite numbers"),
     (["trees", "greedy", "TRIANGLE", "--p", "0", "--q", "1", "--level", "1"], "--weights",
      "[1, 2]", "a JSON object of numbers keyed by cell name"),
     (["trees", "greedy", "TRIANGLE", "--p", "0", "--q", "1", "--level", "1"], "--weights",
      '{"ab": null}', "a JSON object of numbers keyed by cell name"),
     (["dyn", "evolve", "DYN"], "--p0", '{"a": 1}', "a JSON list of probabilities")],
    ids=["class-number", "class-null", "class-overflow", "weights-list", "weights-null",
         "p0-object"])
def test_side_file_of_the_wrong_shape_is_validation_error(command, option, doc, shape,
                                                          triangle_file, tmp_path, capsys):
    pfile = tmp_path / "proto.json"
    pfile.write_text(json.dumps(DYN_PROTOCOL))
    side = tmp_path / "side.json"
    side.write_text(doc)
    argv = [{"TRIANGLE": triangle_file, "DYN": str(pfile)}.get(a, a) for a in command]
    out = tmp_path / "out"
    assert main(argv + [option, str(side), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: HclError: {side} must hold {shape}" in captured.err
    assert "internal error" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "p0, extra, energy, fault",
    [
        ([float("nan"), 1.0], [], 0.0, "NaN or infinite"),
        ([0.2, 0.3, 0.5], ["--steps", "0"], 0.0, "one entry per state"),
        ([1.0, 0.0], ["--t0", "2", "--t1", "1"], 0.0, "below t0"),
        ([1.0, 0.0], ["--t1", "inf"], 0.0, "must be finite"),
        ([1.0, 0.0], ["--steps", "-2"], 0.0, "steps must be at least 1"),
        ([1.0, 0.0], [], 800.0, "overflow"),
        ([1.0, 0.0], ["--tol", "inf"], 0.0, "tolerances must be finite and positive"),
    ],
)
def test_dyn_evolve_bad_input_exits_2(tmp_path, capsys, p0, extra, energy, fault):
    pfile = tmp_path / "proto.json"
    pfile.write_text(json.dumps({
        "complex": {"builtin": "sphere", "q": 1},
        "p": 0,
        "q": 1,
        "vertices": [{"id": "t0", "weights": {"0": [energy, 0.3], "1": [0.0, 0.0]}},
                     {"id": "t1", "weights": {"0": [0.3, 0.0], "1": [0.0, 0.0]}}],
        "simplices": [{"vertices": ["t0", "t1"]}],
    }))
    p0file = tmp_path / "p0.json"
    p0file.write_text(json.dumps(p0))
    out = tmp_path / "traj.csv"
    assert main(["dyn", "evolve", str(pfile), "--p0", str(p0file), "--out", str(out)]
                + extra) == 2
    captured = capsys.readouterr()
    assert "NaN" not in captured.out and "nan" not in captured.out
    assert fault in captured.err
    assert not out.exists()


def test_demo_beyond_the_builtin_bound_is_a_validation_error(tmp_path, capsys):
    # the demo builds the cube builtins, whose q is at most 7: q = 8 is
    # refused before any cube is built
    out = tmp_path / "demo.csv"
    assert main(["demo", "--q", "8", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "ParseError: builtin cube_sphere takes q at most 7, got 8" in captured.err
    assert captured.out == "" and not out.exists()


def test_demo_q1(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert main(["demo", "--q", "1", "--betas", "5,10", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "sphere" in text and "wedge" in text
    assert out.exists()


def test_a_closed_stdout_exits_1_without_a_message():
    # hcl ... | head: the reader leaves before the report is written; the
    # command stops as Python's SIGPIPE idiom has it, not with the
    # validation code 2 and an error line
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-m", "hypercurrent.cli", "protocol", "check",
                             "builtin:square"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()     # before the interpreter has started
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_reports_are_deterministic(sphere1_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["complex", "betti", sphere1_file, "--out", str(out1)])
    main(["complex", "betti", sphere1_file, "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_topo_current_eliminates_each_matrix_once(monkeypatch, capsys):
    # the tree tests, right inverses and contractions of one gap share their
    # eliminations: 29 rref calls on cube_sphere:2, where a call per use made 91
    calls = _count_calls(monkeypatch, ["ratlin.rref"])
    assert main(["topo", "current", "builtin:cube_sphere:2"]) == 0
    assert calls["ratlin.rref"] <= 32


def test_outputs_do_not_depend_on_the_shared_gaps(monkeypatch, tmp_path, capsys):
    # a sequence of ops run twice in one process, sharing gaps, and once per
    # op from no gaps gives the same bytes; 18 more complexes evict gaps
    # between the ops that share them
    gap = gap_complex(sphere_complex(2), 0, 2)
    for signs in ("++-", "-+-"):
        proto = cube_protocol(gap, signs=[1 if c == "+" else -1 for c in signs])
        (tmp_path / f"cube{signs}.json").write_text(dumps_protocol(proto))
    graphs = {"path3": ([["x", "y", "z"], ["xy", "yz"]], [[-1, 0], [1, -1], [0, 1]]),
              "sphere1": ([["e0+", "e0-"], ["e1+", "e1-"]], [[1, -1], [-1, 1]])}
    for name, (cells, d1) in graphs.items():
        doc = {"name": name, "cells": cells, "boundary": [d1]}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    for i in range(18):
        doc = json.loads(dumps_complex(sphere_complex(1)))
        (tmp_path / f"circle{i}.json").write_text(json.dumps(dict(doc, name=f"circle{i}")))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"e1+": 2.0, "e1-": 1.0}))
    out = str(tmp_path / "out")
    ops = [["topo", "current", f"builtin:{kind}:{q}"]
           for kind in ("cube_sphere", "cube_wedge") for q in (1, 2, 3)]
    ops += [["topo", "current", "builtin:square"]]
    ops += [["topo", "current", str(tmp_path / f"cube{signs}.json"), "--out", out]
            for signs in ("++-", "-+-")]
    ops += [["trees", "enumerate", str(tmp_path / f"circle{i}.json"), "--p", "0", "--q", "1",
             "--level", "1"] for i in range(9)]
    ops += [["quantize", f"builtin:{spec}", "--betas", "3,5", "--tol", "1e-4", "--residuals",
             "--out", out] for spec in ("square", "cube_sphere:2")]
    ops += [["ana", "axioms", "builtin:cube_sphere:2", "--beta", "3", "--samples", "5",
             "--tol", "1e-5"]]
    ops += [["trees", "greedy", str(tmp_path / f"circle{i}.json"), "--p", "0", "--q", "1",
             "--level", "1", "--weights", str(weights)] for i in range(9, 18)]
    ops += [["weightspace", "report", str(tmp_path / f"{name}.json"), "--p", "0", "--q", "1",
             "--out", out] for name in graphs]
    ops += [["topo", "current", "builtin:cube_sphere:2"],
            ["ana", "axioms", "builtin:cube_sphere:2", "--beta", "3", "--samples", "5",
             "--tol", "1e-5"]]

    def run(argv):
        pathlib.Path(out).unlink(missing_ok=True)
        assert main(argv) == 0, argv
        written = pathlib.Path(out).read_bytes() if "--out" in argv else None
        return capsys.readouterr().out, written

    complex_core._GAPS.clear()
    warm = [run(argv) for argv in ops * 2]
    assert len(complex_core._GAPS) == 16
    cold = []
    for argv in ops:
        complex_core._GAPS.clear()
        cold.append(run(argv))
    assert warm == cold * 2
    # a second topo current and a second ana axioms skip every elimination
    # and tree choice, the builtin complex's connectivity check included:
    # it is built once per process, and only a direct build checks again
    assert run(ops[-2]) == cold[-2]
    calls = _count_calls(monkeypatch, ["ratlin.rref", "forests.greedy_dtree",
                                       "forests.enumerate_dtrees"])
    sphere_complex(2)
    assert calls["ratlin.rref"] == 1
    assert run(ops[-2]) == cold[-2]
    assert calls == {"ratlin.rref": 1, "forests.greedy_dtree": 0, "forests.enumerate_dtrees": 0}
    assert run(ops[-1]) == cold[-1]
    assert calls == {"ratlin.rref": 1, "forests.greedy_dtree": 0, "forests.enumerate_dtrees": 0}


@pytest.mark.parametrize("kind", ["cube_sphere", "cube_wedge", "square"])
def test_a_second_builtin_load_runs_no_elimination(monkeypatch, kind):
    # the builtin complex is built and validated (an exact betti_0, one
    # rref) once per process; so is the gap over it
    first = builtin_protocol(kind, 3)
    calls = _count_calls(monkeypatch, ["ratlin.rref"])
    second = builtin_protocol(kind, 3)
    assert calls["ratlin.rref"] == 0
    assert second.gap is first.gap


def test_float_context_eliminates_no_more_than_a_call_per_use(monkeypatch):
    # the analytical route's context on K5's (0, 1) gap: 1221 rref calls when
    # every test and right inverse eliminated its own matrices
    from hypercurrent import ana_hyper
    from hypercurrent.complex_core import gap_complex

    from test_forests import complete_graph

    gap = gap_complex(complete_graph(5), 0, 1)
    calls = _count_calls(monkeypatch, ["ratlin.rref"])
    ana_hyper._context(gap)
    assert 0 < calls["ratlin.rref"] <= 1221


def test_protocol_check_of_a_simplex_repeating_a_vertex_is_validation_error(tmp_path, capsys):
    doc = json.loads(dumps_protocol(builtin_protocol("square", 1)))
    doc["simplices"].append({"vertices": ["cmm", "cmm"]})
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    assert main(["protocol", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error: ParseError: simplex (0, 0) is not a strictly sorted vertex tuple" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, option, doc",
    [(["topo", "current", "builtin:cube_sphere:2"], "--class", "[true]"),
     (["trees", "greedy", "TOR", "--p", "0", "--q", "2", "--level", "2"], "--weights",
      '{"u": true, "w": false}'),
     (["dyn", "evolve", "DYN"], "--p0", "[true, false]")],
    ids=["class", "weights", "p0"])
def test_a_side_file_boolean_is_no_number(command, option, doc, tor_file, tmp_path, capsys):
    # Python counts true as 1: the class paired as 1, the weights picked a
    # tree and p0 evolved, where protocol and complex documents refuse it
    pfile = tmp_path / "proto.json"
    pfile.write_text(json.dumps(DYN_PROTOCOL))
    side = tmp_path / "side.json"
    side.write_text(doc)
    argv = [{"TOR": tor_file, "DYN": str(pfile)}.get(a, a) for a in command]
    out = tmp_path / "out"
    assert main(argv + [option, str(side), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: HclError: {side} must hold " in captured.err and captured.out == ""
    assert not out.exists()


# every JSON-emitting command and the inputs it reads, in argument order:
# an upper-case argument names a file the test writes, OUT one the command
# writes, and a builtin: argument is read as its text
HEADER_COMMANDS = {
    "complex.validate": ["complex", "validate", "SPHERE1"],
    "complex.betti": ["complex", "betti", "TOR"],
    "trees.enumerate": ["trees", "enumerate", "TOR", "--p", "0", "--q", "2", "--level", "2"],
    "trees.greedy": ["trees", "greedy", "TOR", "--p", "0", "--q", "2", "--level", "2",
                     "--weights", "WEIGHTS"],
    "protocol.check": ["protocol", "check", "builtin:square"],
    "protocol.check.complex_path": ["protocol", "check", "REFPROTO"],
    "protocol.strata": ["protocol", "strata", "SQUARE"],
    "topo.current": ["topo", "current", "SQUARE"],
    "topo.current.class": ["topo", "current", "builtin:cube_sphere:2", "--class", "CLASS"],
    "ana.integrate": ["ana", "integrate", "builtin:square", "--beta", "5"],
    "ana.axioms": ["ana", "axioms", "SQUARE", "--beta", "3", "--samples", "3"],
    "quantize": ["quantize", "SQUARE", "--betas", "2,5", "--out", "OUT"],
    "weightspace.report": ["weightspace", "report", "TRIANGLE", "--p", "0", "--q", "1"],
    "dyn.evolve": ["dyn", "evolve", "DYN", "--p0", "P0", "--steps", "20", "--out", "OUT"],
}


# files an input document references, read right after it: REFPROTO names
# its complex by the relative path sphere1.json
REFERENCED = {"REFPROTO": ["SPHERE1"]}


@pytest.mark.parametrize("name", list(HEADER_COMMANDS))
def test_a_report_lists_and_hashes_exactly_the_inputs_it_reads(name, sphere1_file, tor_file,
                                                               triangle_file, tmp_path,
                                                               monkeypatch, capsys):
    files = {"SPHERE1": sphere1_file, "TOR": tor_file, "TRIANGLE": triangle_file}
    for key, text in [("WEIGHTS", json.dumps({"u": 5.0, "w": 1.0})), ("CLASS", "[7]"),
                      ("SQUARE", dumps_protocol(builtin_protocol("square", 1))),
                      ("DYN", json.dumps(DYN_PROTOCOL)), ("P0", "[1.0, 0.0]"),
                      ("REFPROTO", dumps_protocol(cube_sphere_protocol(1), "sphere1.json"))]:
        files[key] = str(tmp_path / f"{key.lower()}.json")
        pathlib.Path(files[key]).write_text(text)
    argv = [files.get(a, str(tmp_path / "out.csv") if a == "OUT" else a)
            for a in HEADER_COMMANDS[name]]
    inputs = [read for a in HEADER_COMMANDS[name] if a in files or a.startswith("builtin:")
              for read in [files.get(a, a)] + [files[r] for r in REFERENCED.get(a, [])]]
    opens, real_open = [], open

    def recording_open(file, mode="r", *args, **kwargs):
        opens.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    files_read = [a for a in inputs if not a.startswith("builtin:")]

    def header():
        opens.clear()
        assert main(argv) == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert text == json.dumps(report, indent=1, sort_keys=True) + "\n"
        # the command reads its inputs as text, then the hash reads them as
        # bytes, none before the command has
        reading = [(path, mode) for path, mode in opens if "r" in mode]
        assert reading == [(a, "r") for a in files_read] + [(a, "rb") for a in files_read]
        return report["config"]["inputs"], report["input_hash"]

    listed, digest = header()
    assert listed == inputs
    read = [a.encode() if a.startswith("builtin:") else pathlib.Path(a).read_bytes() for a in inputs]
    assert digest == hashlib.sha256(b"".join(read)).hexdigest()
    for path in listed:
        if not path.startswith("builtin:"):
            # the same document, one byte longer: a new hash
            with real_open(path, "a") as fh:
                fh.write("\n")
            listed_again, digest_again = header()
            assert listed_again == listed and digest_again != digest
            digest = digest_again


def test_json_is_written_by_emit_and_hashed_by_input_hash_alone():
    # one JSON writer and one hash: every use of json.dumps and of hashlib
    # in the module, by the function around it
    owners = {}

    def visit(node, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "json":
            owners.setdefault(f"json.{node.attr}", set()).add(owner)
        elif isinstance(node, ast.Name) and node.id == "hashlib":
            owners.setdefault("hashlib", set()).add(owner)
        elif isinstance(node, ast.ImportFrom):
            assert node.module not in ("json", "hashlib"), ast.unparse(node)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8")), None)
    assert owners["json.dumps"] == {"_emit"}
    assert owners["hashlib"] == {"_input_hash"}
