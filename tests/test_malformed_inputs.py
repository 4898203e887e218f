"""A seeded mutation fuzz of every input file the CLI reads: validation
failures exit 2 with one line naming what is wrong, never 1.

Each document is walked field by field, every list through its first
three entries and one more entry drawn from a fixed seed, and each field
in turn is replaced by each of sixteen JSON values of the wrong kind,
size or sign.  A run must exit 0 or 2; on 2, stderr is one line that
names a field of the input format (or the input file itself) and
stdout is empty.
"""

import contextlib
import io
import json
import random
import re

import pytest

from hypercurrent.cli import main
from hypercurrent.complex_core import dumps_complex, sphere_complex
from hypercurrent.protocol import builtin_protocol, dumps_protocol

VALUES = [None, 0, 1, -1, 1.5, float("inf"), "x", "", [], {}, True, False, 2 ** 70, [None], [[]],
          {"x": 0}]

# field names of the complex and protocol formats, the boundary matrices
# D_j, beta_j(...) inside [p,q] (the gap the p and q fields give), and the
# side files' contents
FIELD = re.compile(r"\b(document|complex|names?|cells?|boundary|D_\d|beta_\d|p|q|vertex|vertices|"
                   r"ids?|simplex|simplices|orientation|cycle|weights?|level|class|state)\b")

DYN_PROTOCOL = {
    "complex": {"builtin": "sphere", "q": 1}, "p": 0, "q": 1,
    "vertices": [{"id": "t0", "weights": {"0": [0.0, 0.3], "1": [0.0, 0.0]}},
                 {"id": "t1", "weights": {"0": [0.3, 0.0], "1": [0.0, 0.0]}}],
    "simplices": [{"vertices": ["t0", "t1"]}],
}

# a document per file kind, and the commands reading it at FILE
KINDS = {
    "complex": (json.loads(dumps_complex(sphere_complex(2))), [["complex", "betti", "FILE"]]),
    "protocol": (json.loads(dumps_protocol(builtin_protocol("cube_sphere", 2))),
                 [["topo", "current", "FILE"], ["protocol", "check", "FILE"]]),
    "class": ([1], [["topo", "current", "builtin:cube_sphere:2", "--class", "FILE"]]),
    "weights": ({"e0+": 0.0, "e0-": 1.0},
                [["trees", "greedy", "SPHERE2", "--p", "0", "--q", "2", "--level", "0",
                  "--weights", "FILE"]]),
    "p0": ([1.0, 0.0], [["dyn", "evolve", "DYN", "--p0", "FILE", "--out", "OUT"]]),
    "dyn_protocol": (DYN_PROTOCOL, [["protocol", "check", "FILE"]]),
}


def fields(doc, rng, at=()):
    """The path of every field of doc, the document itself first."""
    yield at
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        keep = list(range(min(3, len(doc)))) + ([rng.randrange(3, len(doc))] if len(doc) > 3 else [])
        items = [(i, doc[i]) for i in keep]
    else:
        items = []
    for key, value in items:
        yield from fields(value, rng, at + (key,))


def mutated(doc, at, value):
    if not at:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = value
    return doc


@pytest.mark.parametrize("kind", list(KINDS))
def test_every_mutation_exits_0_or_2_naming_a_field(kind, tmp_path):
    doc, commands = KINDS[kind]
    sphere2 = tmp_path / "sphere2.json"
    sphere2.write_text(dumps_complex(sphere_complex(2)))
    dyn = tmp_path / "dyn.json"
    dyn.write_text(json.dumps(DYN_PROTOCOL))
    path = tmp_path / f"{kind}.json"
    names = {"FILE": str(path), "SPHERE2": str(sphere2), "DYN": str(dyn),
             "OUT": str(tmp_path / "out.csv")}
    runs = []
    for at in fields(doc, random.Random(f"fuzz:{kind}")):
        for value in VALUES:
            path.write_text(json.dumps(mutated(doc, at, value)))
            for command in commands:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([names.get(a, a) for a in command])
                runs.append(code)
                case = f"{command[:2]} with {at} = {value!r}: exit {code}, {err.getvalue()!r}"
                assert code in (0, 2), case
                if code == 2:
                    lines = err.getvalue().splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error: "), case
                    assert FIELD.search(lines[0]) or str(tmp_path) in lines[0], case
                    assert out.getvalue() == "", case
    # the fuzz reaches both outcomes
    assert 0 in runs and 2 in runs


SQUARE = json.loads(dumps_protocol(builtin_protocol("square", 1)))
FIRST_CYCLE_KEY = next(iter(SQUARE["cycle"]))

# one case per kind of integer field: a float, a bool or a numeric string
# there used to load as the integer int() reads from it.  Each case puts
# value at a path of the square's document and names the field and the
# wrong entry
INTEGER_FIELDS = {
    "p": (("p",), 0.0, "protocol field p", 0.0),
    "q_float": (("q",), 1.7, "protocol field q", 1.7),
    "q_bool": (("q",), True, "protocol field q", True),
    "q_string": (("q",), "1", "protocol field q", "1"),
    "builtin_complex": (("complex",), {"builtin": "sphere", "q": True}, "complex field q", True),
    "builtin_protocol": ((), {"builtin": {"type": "cube_sphere", "q": 2.5}}, "builtin field q", 2.5),
    "cycle": (("cycle", FIRST_CYCLE_KEY), 1.9, f"the cycle coefficient of {FIRST_CYCLE_KEY}", 1.9),
    "orientation": (("simplices", 0, "orientation"), 1.5, "a simplex's orientation", 1.5),
}


@pytest.mark.parametrize("case", list(INTEGER_FIELDS))
def test_an_integer_field_must_be_a_json_integer(case, tmp_path):
    at, value, named, bad = INTEGER_FIELDS[case]
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(mutated(SQUARE, at, value)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["protocol", "check", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: ParseError: {named} must be a JSON integer, got {bad!r}\n"


# side files read numbers by the rule protocol documents follow: a JSON
# string is no number, though float() reads it; a class file keeps its
# rational strings.  Each case: option, document, the shape its message
# names, and the exit code
SIDE_NUMBERS = {
    "weights": ("--weights", {"e0+": "5", "e0-": 1.0}, "a JSON object of numbers keyed by cell name", 2),
    "p0": ("--p0", ["1.0", 0.0], "a JSON list of probabilities, one per state", 2),
    "class": ("--class", ["-7/2"], None, 0),
}


@pytest.mark.parametrize("case", list(SIDE_NUMBERS))
def test_a_side_file_string_is_no_number(case, tmp_path):
    option, doc, shape, code = SIDE_NUMBERS[case]
    [command] = KINDS[case][1]
    sphere2 = tmp_path / "sphere2.json"
    sphere2.write_text(dumps_complex(sphere_complex(2)))
    dyn = tmp_path / "dyn.json"
    dyn.write_text(json.dumps(DYN_PROTOCOL))
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    names = {"FILE": str(path), "SPHERE2": str(sphere2), "DYN": str(dyn),
             "OUT": str(tmp_path / "out.csv")}
    assert option in command
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main([names.get(a, a) for a in command])
    assert got == code
    if code == 2:
        assert err.getvalue() == f"error: HclError: {path} must hold {shape}\n"
        assert out.getvalue() == ""
    else:
        assert json.loads(out.getvalue())["class"] == ["7/2"]
