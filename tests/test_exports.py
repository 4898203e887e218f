import importlib
import pkgutil

import hypercurrent


def test_every_exported_name_resolves():
    modules = [hypercurrent] + [importlib.import_module(f"hypercurrent.{info.name}")
                                for info in pkgutil.iter_modules(hypercurrent.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
