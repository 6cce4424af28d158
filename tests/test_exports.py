import ast
import functools
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import qfrob

# Exported although no check calls it yet: the divided-power commutation
# formula gets a check of its own (ROADMAP open item 4), and until then the
# tests compare it with the oracle.
TEST_ONLY_EXCEPTIONS = {"qfrob.qgroup.commutation_formula_agrees"}

_METHOD_TYPES = (
    types.FunctionType,
    classmethod,
    staticmethod,
    property,
    functools.cached_property,
)


def _modules():
    return [importlib.import_module(f"qfrob.{m.name}") for m in pkgutil.iter_modules(qfrob.__path__)]


def test_every_exported_name_exists():
    modules = [qfrob] + _modules()
    missing = [f"{mod.__name__}.{n}" for mod in modules for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


def _loaded_names():
    """Every identifier that src/qfrob loads, as a Name or an Attribute."""
    out = set()
    for path in Path(qfrob.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def test_no_test_only_api():
    """Every exported name, and every public method of an exported class,
    is loaded somewhere in the package: an API that only the tests call
    belongs in tests/library_extras.py."""
    loaded = _loaded_names()
    unused = []
    for mod in _modules():
        for name in mod.__all__:
            if name not in loaded:
                unused.append(f"{mod.__name__}.{name}")
            obj = getattr(mod, name)
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                unused += [
                    f"{mod.__name__}.{name}.{attr}"
                    for attr, value in vars(obj).items()
                    if not attr.startswith("_")
                    and isinstance(value, _METHOD_TYPES)
                    and attr not in loaded
                ]
    found = sorted(set(unused) - TEST_ONLY_EXCEPTIONS)
    assert not found, found
