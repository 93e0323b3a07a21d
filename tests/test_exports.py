"""The package's public names: every name a module lists in __all__, and
every name the package exports, exists and is its home module's object.
Also the package's process-wide caches, which the docs list by name, and
its imports, which stay within the standard library."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import almostchar

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(almostchar.__path__) if info.name != "__main__"
)

#: every name the package exports, by the module that defines it
EXPORTS = {
    "config": ["Config", "ResourceGuardError"],
    "halflaurent": ["ONE", "U", "ZERO", "HalfLaurent", "half_power", "hl_exact_div", "u_power"],
    "shapes": ["BiPartition", "SkewBiShape", "bipartition", "bipartitions_of", "conjugate",
               "delta", "delta_bar", "partition", "partitions_of"],
    "symbols": ["Family", "FamilyDecomposition", "Symbol", "bipartition_from_symbol",
                "enumerate_P_ab", "enumerate_symbols", "family_decompose", "family_members",
                "is_special", "m2_unipotent", "pairing", "rank_defect", "shift_canonicalize",
                "special_cuspidal", "symbol_from_bipartition"],
    "hecke": ["BrSequence", "MNContext", "TraceCache", "VerificationReport", "br_from_cycles",
              "centralizer_order_B", "class_reps", "l_prime", "mn_trace", "orthogonality_check",
              "st_bitableaux"],
    "almost": ["cuspidal_pair_sign", "delta_const", "d_swap_diagnostic", "f_ab",
               "f_cuspidal_via_rectangles", "f_lambda", "involution_check", "m2_check",
               "prop_cycles", "recursion_check", "verify_nonvanishing"],
}


def test_every_name_in_all_resolves():
    assert {"halflaurent", "shapes", "symbols", "hecke", "almost", "cli", "config"} <= set(MODULES)
    for name in MODULES:
        module = importlib.import_module(f"almostchar.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], (name, missing)


def test_every_name_the_package_imports_resolves():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 55
    assert sorted(almostchar.__all__) == sorted(names)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"almostchar.{module}")
        for name in names:
            assert getattr(almostchar, name) is getattr(home, name), (module, name)
    with pytest.raises(AttributeError):
        almostchar.no_such_name
    # the lazy table does not answer for a submodule, so `from almostchar
    # import <submodule>` falls back to importing it
    with pytest.raises(AttributeError):
        almostchar.__getattr__("hecke")
    from almostchar import hecke

    assert hecke is importlib.import_module("almostchar.hecke")


#: every module-level functools cache, by the module that defines it; the
#: README names the one, which interns strip values under small integer
#: keys.  No cache is keyed by a bipartition
CACHES = {
    "shapes": {"_delta_value"},
    "hecke": set(),
    "symbols": set(),
    "almost": set(),
    "halflaurent": set(),
}


def test_the_module_level_caches_are_the_listed_ones():
    for module, names in CACHES.items():
        home = importlib.import_module(f"almostchar.{module}")
        found = {
            name for name, value in vars(home).items()
            if hasattr(value, "cache_info") and value.__module__ == home.__name__
        }
        assert found == names, module
    # the source holds no other cache decorator, on a method or a nested
    # function either, where the scan of module attributes cannot see it
    for path in sorted(Path(almostchar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    assert node.name in CACHES.get(path.stem, set()), (path.name, node.name)


def test_only_hecke_sums_chains_and_applies_the_prefactor():
    # every trace sum goes through hecke._trace_sum, so no other module calls
    # chain_sum or reads prefactor, and within hecke only the sum and the
    # chain's own recursion call chain_sum
    def reads(node, function=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in ("chain_sum", "prefactor")):
            yield function, node.attr
        for child in ast.iter_child_nodes(node):
            yield from reads(child, function)

    found = {
        (path.stem, *read)
        for path in sorted(Path(almostchar.__file__).parent.glob("*.py"))
        for read in reads(ast.parse(path.read_text()))
    }
    assert found == {("hecke", "_trace_sum", "chain_sum"), ("hecke", "_trace_sum", "prefactor"),
                     ("hecke", "chain_sum", "chain_sum")}


def test_only_symbols_calls_symbol_from_label():
    # symbol_from_label checks a caller's own label; the package builds its
    # members through _label_symbol from a key that _family_key checked, so
    # no member goes back through the per-member check
    def callers(name):
        return {
            path.stem
            for path in sorted(Path(almostchar.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        }

    assert callers("symbol_from_label") <= {"symbols"}
    assert callers("_label_symbol") == {"almost", "cli", "symbols"}


def test_the_runtime_imports_only_the_standard_library():
    # every import in the package is relative or names a stdlib module,
    # whether it sits at module level or inside a function
    paths = sorted(Path(almostchar.__file__).parent.glob("*.py"))
    assert {"cli.py", "hecke.py", "shapes.py"} <= {path.name for path in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside = [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
            assert outside == [], (path.name, outside)
