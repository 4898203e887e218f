import ast
import importlib
import pathlib
import pkgutil

import hypercurrent

MODULES = [hypercurrent] + [importlib.import_module(f"hypercurrent.{info.name}")
                            for info in pkgutil.iter_modules(hypercurrent.__path__)]

# documented features that only the tests call
TEST_ONLY_FEATURES = {
    "subdivide",
    "cube_cellular_cochain",
    "addendum_predicts_trivial",
    "dumps_protocol",
    "robust_counts",
    "boltzmann",
    "current_form",
}


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_every_exported_name_has_a_caller_in_the_package():
    # a use is a name or attribute read anywhere in the package source;
    # definitions, imports and the __all__ strings themselves do not count
    used = set()
    for path in pathlib.Path(hypercurrent.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted({f"{module.__name__}.{name}" for module in MODULES
                     for name in getattr(module, "__all__", ())
                     if name not in used and name not in TEST_ONLY_FEATURES})
    assert not unused, f"exported but never used in the package: {unused}"
