"""The package's public surface: what ``shadowlab`` re-exports, each module declares."""

import ast
import importlib
import pkgutil
from pathlib import Path

import shadowlab


def test_every_package_export_is_in_its_module_all():
    tree = ast.parse(Path(shadowlab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"shadowlab.{node.module}")
        missing = sorted({alias.name for alias in node.names} - set(module.__all__))
        assert not missing, f"shadowlab.{node.module}.__all__ lacks {missing}"
    # and every name a module's __all__ declares exists, so a removal leaves no stale entry
    names = [info.name for info in pkgutil.iter_modules(shadowlab.__path__)]
    assert "cli" in names  # a module the package itself does not import
    for name in names:
        module = importlib.import_module(f"shadowlab.{name}")
        stale = sorted(n for n in module.__all__ if not hasattr(module, n))
        assert not stale, f"shadowlab.{name}.__all__ names {stale}, which it does not define"
