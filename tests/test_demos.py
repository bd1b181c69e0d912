"""The demos stay importable and run: every name they import from
hitchinlab exists, and each runs to its end in-process.
"""

import ast
import contextlib
import importlib
import io
import runpy
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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a demo may write files into the working directory
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue()
