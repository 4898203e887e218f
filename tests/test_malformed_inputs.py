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
