"""The demos stay importable: every name they import from hitchinlab exists.

The demos are parsed, not run, so this costs milliseconds.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _hitchinlab_imports(path):
    """(module, name) for each ``from hitchinlab... import name`` and
    (module, None) for each ``import hitchinlab...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hitchinlab":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hitchinlab":
                    yield alias.name, None


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(demo):
    imports = list(_hitchinlab_imports(demo))
    assert imports, f"{demo.name} imports nothing from hitchinlab"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{demo.name}: {module} has no {name}"
