"""Every defaulted parameter of the package is passed by some caller, and by
some caller at another value than its default.

Walks the AST of the package modules and collects each function parameter
that has a default.  Then it walks every call in the package, the tests, the
demos and the bench harness, and marks a parameter as used when some call to
a function of that name passes it, by keyword or by position.  A parameter
that no call passes, or that every call passing it passes as the literal
default value, is a constant in disguise and should be written as one.
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
NOT_LITERAL = object()


def _literal(node):
    """The value of a literal expression, or NOT_LITERAL."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return NOT_LITERAL


def _defaulted(tree):
    """(function name, parameter name, positional index or None, is_method,
    default value or NOT_LITERAL)."""
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
        for index, default in zip(range(first, len(positional)), node.args.defaults):
            yield node.name, positional[index].arg, index, id(node) in methods, _literal(default)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None, id(node) in methods, _literal(default)


def _calls(tree):
    """(callee name, positional argument nodes, {keyword: value node}, has
    star arguments)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name is None:
            continue
        star = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords)
        yield name, node.args, {k.arg: k.value for k in node.keywords}, star


def _passed_values():
    """Each defaulted parameter of the package, as "module.function(param)",
    with its default and the literal value that each call passing it passes
    (NOT_LITERAL for an expression, or a call with star arguments)."""
    calls = {}
    for path in CALLERS:
        for name, args, keywords, star in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            calls.setdefault(name, []).append((args, keywords, star))
    for path in PACKAGE:
        for func, param, index, method, default in _defaulted(
                ast.parse(path.read_text(encoding="utf-8"))):
            # a method called through its instance does not pass self
            slot = None if index is None else index - method
            passed = []
            for args, keywords, star in calls.get(func, ()):
                if star:
                    passed.append(NOT_LITERAL)
                elif param in keywords:
                    passed.append(_literal(keywords[param]))
                elif slot is not None and len(args) > slot:
                    passed.append(_literal(args[slot]))
            yield f"{path.stem}.{func}({param})", default, passed


def unused_parameters():
    return [name for name, _, passed in _passed_values() if not passed]


def constant_parameters():
    """Parameters that some call passes, each call as the literal default."""
    return [
        name for name, default, passed in _passed_values()
        if passed and default is not NOT_LITERAL
        and all((type(v), v) == (type(default), default) for v in passed)
    ]


def test_package_has_defaulted_parameters():
    assert sum(1 for p in PACKAGE for _ in _defaulted(ast.parse(p.read_text(encoding="utf-8")))) > 20


def test_every_defaulted_parameter_is_passed_somewhere():
    unused = unused_parameters()
    assert not unused, f"defaulted parameters that no call passes: {unused}"


def test_no_defaulted_parameter_is_always_passed_its_default():
    constant = constant_parameters()
    assert not constant, f"defaulted parameters that every call passes at the default: {constant}"
