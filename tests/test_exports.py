import ast
import importlib
import json
import pathlib
import pkgutil

import hypercurrent

MODULES = [hypercurrent] + [importlib.import_module(f"hypercurrent.{info.name}")
                            for info in pkgutil.iter_modules(hypercurrent.__path__)]

# exported names without a caller in the package: the benchmark's input
# recorder writes protocol files with dumps_protocol
TEST_ONLY_FEATURES = {"dumps_protocol"}

# module.name of every function the benchmark traces, read and never edited
PREDICTIONS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "predictions.json"


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def _bound_in(func):
    """Parameters and assignment targets of one function, not counting the
    functions nested in it."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _reads(tree):
    """Every attribute read, and every name read where no enclosing function
    binds it as a parameter or assignment target: a local that happens to
    share a public name is not a use of it."""
    used = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _bound_in(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return used


def _package_reads():
    # definitions, imports and the __all__ strings themselves do not count
    used = set()
    for path in pathlib.Path(hypercurrent.__file__).parent.glob("*.py"):
        used |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_exported_name_has_a_caller_in_the_package():
    used = _package_reads()
    unused = sorted({f"{module.__name__}.{name}" for module in MODULES
                     for name in getattr(module, "__all__", ())
                     if name not in used and name not in TEST_ONLY_FEATURES})
    assert not unused, f"exported but never used in the package: {unused}"


def _public_definitions():
    """module.name of every public function and class defined at the top
    level of a module of the package."""
    src = pathlib.Path(hypercurrent.__file__).parent
    return {f"{path.stem}.{node.name}" for path in src.glob("*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def test_every_public_definition_has_a_caller_in_the_package():
    reach = set(json.loads(PREDICTIONS.read_text(encoding="utf-8"))["reach"])
    used = _package_reads()
    unused = sorted(name for name in _public_definitions() - reach
                    if name.split(".")[1] not in used | TEST_ONLY_FEATURES)
    assert not unused, f"defined but never used in the package: {unused}"


def test_no_stale_test_only_exemption():
    # an exemption stays only while its name is exported and has no caller
    exported = {name for module in MODULES for name in getattr(module, "__all__", ())}
    assert not TEST_ONLY_FEATURES - exported, "exempted but not exported"
    assert not TEST_ONLY_FEATURES & _package_reads(), "exempted but called in the package"


def test_a_shadowing_local_is_not_a_use():
    tree = ast.parse("def f(scale):\n    return scale\n"
                     "def g():\n    rank = 1\n    return rank + gap\n"
                     "def h():\n    return other.rank(nullspace)\n")
    assert _reads(tree) == {"gap", "other", "rank", "nullspace"}
