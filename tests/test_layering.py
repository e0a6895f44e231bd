"""Every import in the library sits at module level, and no check is an
``assert``.

A function-level import hides a dependency from the module header and lets
a lower layer reach into a higher one at call time, so the guard parses each
module of ``src/braidalg`` and rejects any import below the top level.

A library check must raise a ``BraidAlgError``: an ``assert`` vanishes under
``python -O`` and escapes the CLI's exit-code mapping, so a second guard
rejects any ``assert`` statement in the same modules.
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
