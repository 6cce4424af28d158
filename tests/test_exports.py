import importlib
import pkgutil

import qfrob


def test_every_exported_name_exists():
    modules = [qfrob] + [
        importlib.import_module(f"qfrob.{m.name}") for m in pkgutil.iter_modules(qfrob.__path__)
    ]
    missing = [f"{mod.__name__}.{n}" for mod in modules for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing
