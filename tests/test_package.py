"""The package's public surface: what ``shadowlab`` re-exports, each module declares."""

import ast
import importlib
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
