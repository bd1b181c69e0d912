"""No module imports a name it never uses, and the package's import loads
only the scipy it needs and no thread pool.

Walks the AST of the package modules (except ``__init__.py``, which
re-exports), the demos and the tests.  A name counts as used when it is
referenced anywhere in the module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [p for p in (ROOT / "src" / "hitchinlab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


def _imported(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_files_found():
    assert len(FILES) > 10


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# the public scipy subpackages that ``import hitchinlab, hitchinlab.cli``
# loads; scipy's import is most of a cold command's time, and
# integrate, interpolate, optimize and sparse were each dropped from it
SCIPY_AT_IMPORT = {"linalg", "special", "version"}


def test_import_loads_only_the_scipy_it_needs():
    # a fresh process, so that no other test's import counts
    script = (
        "import sys\n"
        "import hitchinlab, hitchinlab.cli\n"
        "print(*{m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})\n"
        "print('concurrent.futures.thread' in sys.modules)\n"
    )
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    scipy_line, pool_line = done.stdout.splitlines()
    loaded = {name for name in scipy_line.split() if not name.startswith("_")}
    assert loaded <= SCIPY_AT_IMPORT, f"also loads scipy {sorted(loaded - SCIPY_AT_IMPORT)}"
    # every command runs its t values in order on the calling thread
    assert pool_line == "False", "loads concurrent.futures.thread"
