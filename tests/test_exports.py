"""The package's public names: every name a module lists in __all__, and
every name the package __init__ imports, exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import almostchar

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(almostchar.__path__) if info.name != "__main__"
)


def test_every_name_in_all_resolves():
    assert {"halflaurent", "shapes", "symbols", "hecke", "almost", "cli", "config"} <= set(MODULES)
    for name in MODULES:
        module = importlib.import_module(f"almostchar.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], (name, missing)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(almostchar.__file__).read_text())
    imported = [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name, bound in imported:
        assert hasattr(importlib.import_module(f"almostchar.{module}"), name), (module, name)
        assert hasattr(almostchar, bound), bound
