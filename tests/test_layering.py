"""Every import in the library sits at module level, no check is an
``assert``, every parameter is read, every error class is raised and
tested, and a field is known by its modulus alone.

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

An error class that no module raises is a branch that callers may catch but
never see, and one that no test names is raised where nobody has seen it
happen.  So a fourth guard requires each ``BraidAlgError`` subclass in
``errors.py`` to appear in some ``raise`` statement of the package and to be
named in some test module.

A field is its modulus ``p``, None for the rationals, and a second record
of which field it is would be a second fact to keep in step with the
first.  So a fifth guard rejects any read of an attribute named ``kind`` in
the same modules; the word stays only as a key of the field's JSON.

``check_J_compatibility`` compares the braided recursion with two closed
forms of a diagonal grid, the direct block transpositions and the quantum
unshuffle sums.  The comparison means something only while neither closed
form is built from what it is compared with, so a sixth guard rejects any
read of the tensor bialgebra, the exchange-block cache or the padding
kernels in either oracle, or in a function of ``transport.py`` they call.

A structure is its maps: the field and the dimension of a braided object,
an algebra or a bialgebra are read off its matrices, so that no label can
disagree with them.  A seventh guard rejects any dataclass that takes a
``field`` or a ``dim`` as an ``__init__`` argument; a derived one is an
``init=False`` field or a property.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "braidalg"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


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


def error_classes(source: str) -> list[str]:
    """The classes of ``source`` derived from ``BraidAlgError``, directly or not."""
    found = ["BraidAlgError"]
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in found for b in node.bases):
            found.append(node.name)
    return found[1:]


def raised_names(source: str) -> set[str]:
    """The names that the ``raise`` statements of ``source`` raise or call."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
    return out


def used_names(source: str) -> set[str]:
    """The names and attribute names that the code of ``source`` reads."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def unseen_errors(errors: str, library: list[str], tests: list[str]) -> list[str]:
    """The error classes of ``errors`` that no ``library`` source raises or
    that no ``tests`` source names."""
    raised = set().union(*map(raised_names, library))
    named = set().union(*map(used_names, tests))
    return [name for name in error_classes(errors) if name not in raised & named]


def test_every_error_class_is_raised_and_tested():
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert "ShapeError" in error_classes(errors)
    library = [p.read_text(encoding="utf-8") for p in MODULES]
    tests = [p.read_text(encoding="utf-8") for p in TESTS]
    assert unseen_errors(errors, library, tests) == []


def test_guard_sees_an_error_never_raised():
    errors = ("class BraidAlgError(Exception):\n    pass\n\nclass A(BraidAlgError):\n    pass\n\n"
              "class B(A):\n    pass\n\nclass C(ValueError):\n    pass\n")
    assert error_classes(errors) == ["A", "B"]
    library = "def f(x):\n    if x:\n        raise A(x)\n    try:\n        g()\n    except B:\n        raise\n"
    assert raised_names(library) == {"A"}
    assert unseen_errors(errors, [library], ["with raises(A):\n    f(1)\n"]) == ["B"]
    assert unseen_errors(errors, [library], ["x = 1\n"]) == ["A", "B"]
    assert unseen_errors(errors, [library, "raise B\n"], ["errors.A, errors.B\n"]) == []


def attribute_reads(source: str, name: str) -> list[int]:
    """Line numbers where ``source`` reads an attribute called ``name``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_field_kind_is_read(path):
    assert attribute_reads(path.read_text(encoding="utf-8"), "kind") == []


def test_guard_sees_a_kind_attribute():
    source = ("def f(field, kind):\n    if kind == 'prime':\n        return field.kind\n"
              "    return {'kind': kind}.get('kind')\n")
    assert attribute_reads(source, "kind") == [3]


ORACLES = ("direct_power_braiding", "classical_unshuffle_blocks")
RECURSION = {"build_truncated", "BraidRepCache", "coproduct_block", "braiding_block",
             "whisker", "whisker_chain"}


def names_reached(source: str, function: str) -> set[str]:
    """The names and attribute names that ``function`` of ``source`` reads,
    with those of the functions of ``source`` that it calls, at any depth."""
    defs = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    seen, todo, names = set(), [function], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        reads = ({n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
                 | {n.attr for n in ast.walk(defs[name]) if isinstance(n, ast.Attribute)})
        names |= reads
        todo += [n for n in reads if n in defs]
    return names


@pytest.mark.parametrize("oracle", ORACLES)
def test_closed_forms_read_no_recursion(oracle):
    source = (PACKAGE / "transport.py").read_text(encoding="utf-8")
    assert names_reached(source, oracle) & RECURSION == set()


def test_guard_sees_the_recursion_read():
    source = ("def direct(T, n):\n    return T.coproduct_block(1, n)\n\n"
              "def helper(V, x):\n    return whisker(1, V, 1, x)\n\n"
              "def indirect(V, x):\n    def inner():\n        return helper(V, x)\n    return inner()\n\n"
              "def clean(q):\n    return [row[:] for row in q]\n")
    assert names_reached(source, "direct") & RECURSION == {"coproduct_block"}
    assert names_reached(source, "indirect") & RECURSION == {"whisker"}
    assert names_reached(source, "clean") & RECURSION == set()


def derived_init_arguments(source: str) -> list[str]:
    """``Class.name`` for each field named ``field`` or ``dim`` of a dataclass
    in ``source`` that ``__init__`` takes, one not declared ``init=False``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or not any(
                ast.unparse(d.func if isinstance(d, ast.Call) else d).endswith("dataclass")
                for d in node.decorator_list):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "id", None) in ("field", "dim"):
                keywords = stmt.value.keywords if isinstance(stmt.value, ast.Call) else []
                if not any(k.arg == "init" and getattr(k.value, "value", True) is False for k in keywords):
                    out.append(f"{node.name}.{stmt.target.id}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_structure_takes_its_field_or_dim(path):
    assert derived_init_arguments(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_field_argument():
    source = ("@dataclass(frozen=True)\nclass A:\n    field: object\n    c: object\n\n"
              "@dataclass\nclass B:\n    c: object\n    dim: int = dc_field(init=False)\n\n"
              "    @property\n    def field(self):\n        return self.c.field\n\n"
              "class C:\n    dim: int\n\n"
              "@dataclasses.dataclass\nclass D(B):\n    dim: int = dc_field(init=True, default=2)\n")
    assert derived_init_arguments(source) == ["A.field", "D.dim"]
