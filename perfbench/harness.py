"""Shared plumbing: locate the checkout, import the library from its
``src`` tree, and call ``hypercurrent.cli.main`` in-process."""

import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "hypercurrent" / "__init__.py"


def missing_source(msg):
    """Report that the benchmark cannot run here; raise the result."""
    print(f"perfbench: {msg}", file=sys.stderr)
    return SystemExit(2)


def import_library():
    """Import ``hypercurrent`` from this checkout's ``src`` and nowhere else."""
    if not PACKAGE_INIT.is_file():
        raise missing_source(f"no library source at {PACKAGE_INIT.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import hypercurrent
    import hypercurrent.cli

    if Path(hypercurrent.__file__).resolve() != PACKAGE_INIT.resolve():
        raise missing_source(f"imported hypercurrent from {hypercurrent.__file__}, not the checkout")
    return hypercurrent


class OpResult:
    __slots__ = ("rc", "seconds", "stdout", "stderr")

    def __init__(self, rc, seconds, stdout, stderr):
        self.rc = rc
        self.seconds = seconds
        self.stdout = stdout
        self.stderr = stderr


def call_cli(cli_module, argv):
    """One op: ``cli.main(argv)`` with its output captured and its wall time.

    ``main`` is looked up on the module at call time so a tracer that
    rebinds it is honoured.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli_module.main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # main maps errors to exit codes; anything else is a failure
        rc = None
        err.write(f"uncaught {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return OpResult(rc, seconds, out.getvalue(), err.getvalue())


def source_id():
    """The commit of the checkout (when it is a git work tree) and a digest
    of the library source, which identifies the code either way."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "hypercurrent").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.is_file():
                commit = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
        else:
            commit = text
    return {"commit": commit, "src_sha256": digest.hexdigest()}
