"""No module imports a name it never uses, every public function has a
consumer, and the package's import loads only the scipy it needs and no
thread pool.

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


PACKAGE = ROOT / "src" / "hitchinlab"
# what runs the package besides itself: the tools, the benchmark and the
# acceptance criteria; demos and the other tests do not count
CONSUMERS = sorted([*(ROOT / "tools").glob("*.py"), *(ROOT / "bench").glob("*.py"),
                    ROOT / "tests" / "test_acceptance.py"])
# public definitions with no consumer yet, each kept for the ROADMAP item
# that will give it one
KEPT = {
    "normal_form_at_zero": "item 14, two simple zeros in the plane",
    "limiting_pair": "item 6, Hitchin's equations without the radial ansatz",
    "curvature_rtheta": "item 6, Hitchin's equations without the radial ansatz",
}


def _references(tree, layers):
    """Names a tree refers to: names, attribute names, and the name of each
    ``"layer.name"`` string whose layer is a package module, as the
    benchmark's span tables spell the functions they wrap."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            layer, _, name = node.value.partition(".")
            if layer in layers and name.isidentifier():
                refs.add(name)
    return refs


def test_every_public_function_has_a_consumer():
    # every top-level public def and class of the package is reached from a
    # consumer: referenced by one, by a module-level statement of the
    # package, or by a definition so reached, in its own module or another.
    # A helper that only an unreached definition calls is unreached too.
    # KEPT lists the exceptions, and one that is reached must leave it.
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    roots = set().union(*(_references(ast.parse(p.read_text(encoding="utf-8")), modules)
                          for p in CONSUMERS))
    defs = {}
    for layer, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((layer, node))
            else:
                roots |= _references(node, modules)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, ()):
                todo.extend(_references(node, modules) - reached)
    unreached = {name: layer for name, nodes in defs.items() for layer, _ in nodes
                 if not name.startswith("_") and name not in reached}
    unkept = sorted(f"{layer}.{name}" for name, layer in unreached.items() if name not in KEPT)
    assert not unkept, f"public, but nothing runs them: {unkept}"
    consumed = sorted(set(KEPT) - set(unreached))
    assert not consumed, f"kept, but now consumed; drop them from KEPT: {consumed}"


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
