"""Every import in the library sits at module level, no check is an
``assert``, and every parameter is read.

A function-level import hides a dependency from the module header and lets
a lower layer reach into a higher one at call time, so the guard parses each
module of ``src/braidalg`` and rejects any import below the top level.

A library check must raise a ``BraidAlgError``: an ``assert`` vanishes under
``python -O`` and escapes the CLI's exit-code mapping, so a second guard
rejects any ``assert`` statement in the same modules.

A parameter that its function never reads is a promise the function does
not keep, and every caller must still supply it, so a third guard rejects
any parameter of a non-dunder function that its body does not read.  The
receiver ``self`` or ``cls`` is exempt: a method may ignore its instance.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "braidalg"
MODULES = sorted(PACKAGE.glob("*.py"))


def nested_imports(source: str) -> list[int]:
    """Line numbers of the imports that are not statements of the module body."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def test_package_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_function_level_import():
    source = "import os\n\ndef f():\n    from .gallery import exterior_line\n    return os\n"
    assert nested_imports(source) == [4]


def assert_lines(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0\n    return x\n"
    assert assert_lines(source) == [3]


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter of a non-dunder function in
    ``source`` that the function's body never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")]
        reads = {name.id for stmt in node.body for name in ast.walk(stmt)
                 if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        unread += [f"{node.name}.{p}" for p in params if p not in reads]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unread_parameter():
    source = ("class K:\n    def g(self, y):\n        return y\n\n"
              "def f(field, dim, *rest, **opts):\n    return dim, opts\n")
    assert unread_parameters(source) == ["f.field", "f.rest"]
