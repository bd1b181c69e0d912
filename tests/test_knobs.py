"""Every defaulted parameter of the package is passed by some caller.

Walks the AST of the package modules and collects each function parameter
that has a default.  Then it walks every call in the package, the tests, the
demos and the bench harness, and marks a parameter as used when some call to
a function of that name passes it, by keyword or by position.  A parameter
that no call passes is a constant in disguise and should be written as one.
Calls are matched by the callee's name, so a method and a function of the
same name share their callers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hitchinlab").glob("*.py"))
CALLERS = sorted(
    PACKAGE
    + [p for d in ("tests", "demos", "bench") for p in (ROOT / d).glob("*.py")]
)


def _defaulted(tree):
    """(function name, parameter name, positional index or None, is_method)."""
    methods = {
        id(item)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for index in range(first, len(positional)):
            yield node.name, positional[index].arg, index, id(node) in methods
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None, id(node) in methods


def _calls(tree):
    """(callee name, positional count, keywords, has star arguments)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name is None:
            continue
        star = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords)
        yield name, len(node.args), {k.arg for k in node.keywords}, star


def unused_parameters():
    calls = {}
    for path in CALLERS:
        for name, n_pos, keywords, star in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            calls.setdefault(name, []).append((n_pos, keywords, star))
    unused = []
    for path in PACKAGE:
        for func, param, index, method in _defaulted(ast.parse(path.read_text(encoding="utf-8"))):
            # a method called through its instance does not pass self
            slot = None if index is None else index - method
            passed = any(
                star or param in keywords or (slot is not None and n_pos > slot)
                for n_pos, keywords, star in calls.get(func, ())
            )
            if not passed:
                unused.append(f"{path.stem}.{func}({param})")
    return unused


def test_package_has_defaulted_parameters():
    assert sum(1 for p in PACKAGE for _ in _defaulted(ast.parse(p.read_text(encoding="utf-8")))) > 20


def test_every_defaulted_parameter_is_passed_somewhere():
    unused = unused_parameters()
    assert not unused, f"defaulted parameters that no call passes: {unused}"
