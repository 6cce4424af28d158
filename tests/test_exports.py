import ast
import functools
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import qfrob

# Kept although src/ never loads them.  commutation_formula_agrees is
# exported although no check calls it yet: the divided-power commutation
# formula gets a check of its own (ROADMAP open item 4), and until then the
# tests compare it with the oracle.  qgroup imports qbinom unused because
# perfbench/test_perfbench.py pins that every module's qbinom is the one
# cached function.
TEST_ONLY_EXCEPTIONS = {
    "qfrob.qgroup.commutation_formula_agrees",
    "qfrob.qgroup.qbinom",
}

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


def _trees():
    """{module name: its syntax tree} for every file of src/qfrob."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(qfrob.__file__).parent.glob("*.py"))
    }


def _loads(tree, kind):
    return {
        node.id if kind is ast.Name else node.attr
        for node in ast.walk(tree)
        if isinstance(node, kind) and isinstance(node.ctx, ast.Load)
    }


def _loaded_names():
    """Every identifier that src/qfrob loads, as a Name or an Attribute."""
    trees = _trees().values()
    return set().union(*(_loads(t, ast.Name) | _loads(t, ast.Attribute) for t in trees))


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


def test_no_unloaded_import_or_private_helper():
    """Every name a module of src/qfrob imports, and every private function
    and class it defines at module level, is loaded by src/: by the module
    itself, as an attribute, or through another module's import.  A helper
    that a deletion leaves behind fails here."""
    trees = _trees()
    attrs = set().union(*(_loads(t, ast.Attribute) for t in trees.values()))
    imported_from: dict[str, set] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported_from.setdefault(node.module, set()).update(a.name for a in node.names)
    unloaded = []
    for name, tree in trees.items():
        if name == "__init__":
            continue
        used = _loads(tree, ast.Name) | attrs | imported_from.get(name, set())
        defined = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        defined += [
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        ]
        unloaded += [f"qfrob.{name}.{n}" for n in defined if n not in used]
    found = sorted(set(unloaded) - TEST_ONLY_EXCEPTIONS)
    assert not found, found
