"""Batch front door: JSON in, deterministic machine-readable reports out.

Each subcommand returns its payload and whether its checks passed; ``main``
writes the payload to stdout, and to ``--out`` when given, and sets the exit
status: 0 when every requested check passes, 1 on check failures, 2 on
schema or usage errors, an unwritable ``--out`` among them.  Identical
inputs and seed produce byte-identical output.  Every report embeds the tool
version and its ``config``, the parsed arguments less ``--out``; ``braidrep``
without ``--out`` prints the bare matrix.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .adjunctions import (
    AdjunctionWitness,
    check_triangles_T_Omega,
    check_triangles_Tbar_P,
    check_zeta_coalgebra,
)
from .braided import AxiomReport, CheckItem, check_braided_bialgebra, check_yang_baxter, compare
from .braidrep import BraidRepCache
from .errors import BraidAlgError, ShapeError, SpecViolation
from .fields import RATIONALS, FieldSpec, prime_field
from .gallery import parity_grid
from .matrix import ExactMatrix
from .primitives import primitives, primitives_of_tensor
from .serialize import (
    SchemaError,
    bialgebra_from_json,
    bialgebra_to_json,
    braiding_from_json,
    braiding_to_json,
    field_from_json,
    kind_of_input,
    matrix_from_json,
    matrix_to_json,
)
from .tensoralg import build_truncated, check_truncated_axioms
from .transport import (
    basis_change,
    check_J_compatibility,
    check_primfunct_square,
    scalar_twist,
    transport_bialgebra,
)


def _parse_field(text: str) -> FieldSpec:
    if text == "q":
        return RATIONALS
    if text.startswith("fp:"):
        try:
            return prime_field(int(text[3:]))
        except ValueError as exc:
            raise SchemaError(f"'--field': {exc}") from exc
    raise SchemaError(f"'--field' must be 'q' or 'fp:<p>', got {text!r}")


def _require_degree(value: int | None, minimum: int = 1) -> int:
    if value is None or value < minimum:
        raise SchemaError(f"'--degree' must be an integer >= {minimum}, got {value!r}")
    return value


# The largest tensor power ``dim ** degree`` a command may work on: every
# block it builds is at most that many rows and columns.  A dimension below
# 2 counts as 2, so the degree is bounded too.  The shipped demos, tests and
# benchmark jobs stay at 2^8 = 256 or below.
MAX_TENSOR_DIM = 1024


def _require_size(dim: int, degree: int, what: str = "'--degree'") -> None:
    base = max(dim, 2)
    if degree >= MAX_TENSOR_DIM.bit_length() or base ** degree > MAX_TENSOR_DIM:
        raise SchemaError(f"{what}: {dim}^{degree} is above the size bound {MAX_TENSOR_DIM}")


def _load_json(path: str, flag: str = "--input") -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"'{flag}': cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an integer too long, deep nesting
        raise SchemaError(f"'{flag}': {path} is not valid JSON: {exc}") from exc


def _checked(report: dict, rep: AxiomReport) -> tuple[dict, bool]:
    """``report`` with ``rep`` as its ``checks`` rows and ``passed`` flag."""
    report["checks"] = rep.items
    report["passed"] = rep.passed
    return report, rep.passed


_quote = json.encoder.encode_basestring_ascii  # the C escaper behind json.dumps


def _encode(value) -> list[str]:
    """The pieces of ``json.dumps(value, indent=2, sort_keys=True)``, byte for
    byte once joined, for the values a report holds: ``dict`` with ``str``
    keys, ``list``, ``str``, ``int``, ``bool`` and ``None``, no subclasses,
    and two library values.  An ``ExactMatrix`` is written as its
    ``matrix_to_json`` rows and a ``CheckItem`` as its ``detail`` (when
    set), ``name`` and ``passed``.  Anything else raises ``TypeError``.

    With ``indent`` set, ``json.dumps`` falls back to its pure-Python
    encoder; this one escapes in C.  A matrix takes one join per row and one
    for the whole: its cells are ``FieldSpec.format`` strings of digits,
    ``-`` and ``/``, which need no escape.  A list of strings is written the
    same way, each string escaped."""
    parts = []
    put = parts.append

    def matrix(rows, indent):
        if not rows:
            put("[]")
            return
        inner = indent + "  "
        cell = inner + "  "
        head, sep, tail = "[" + cell + '"', '",' + cell + '"', '"' + inner + "]"
        put("[" + inner + ("," + inner).join([head + sep.join(r) + tail if r else "[]" for r in rows])
            + indent + "]")

    def walk(x, indent):
        t = type(x)
        if t is str:
            put(_quote(x))
        elif t is int:
            put(repr(x))
        elif t is bool:
            put("true" if x else "false")
        elif x is None:
            put("null")
        elif t is ExactMatrix:
            matrix(matrix_to_json(x), indent)
        elif t is CheckItem:
            walk({"name": x.name, "passed": x.passed, **({"detail": x.detail} if x.detail else {})},
                 indent)
        elif t is list:
            if not x:
                put("[]")
                return
            inner = indent + "  "
            sep = "," + inner
            if set(map(type, x)) == {str}:  # a row of strings
                put("[" + inner + sep.join(map(_quote, x)) + indent + "]")
                return
            put("[")
            for i, v in enumerate(x):
                put(sep if i else inner)
                walk(v, inner)
            put(indent + "]")
        elif t is dict:
            if not x:
                put("{}")
                return
            if not all(type(k) is str for k in x):
                raise TypeError("report keys must be str")
            inner = indent + "  "
            sep = "," + inner
            put("{")
            for i, k in enumerate(sorted(x)):
                put(sep if i else inner)
                put(_quote(k) + ": ")
                walk(x[k], inner)
            put(indent + "}")
        else:
            raise TypeError(f"cannot encode {t.__name__} in a report")

    walk(value, "\n")
    return parts


def _emit(payload, out_path: str | None) -> None:
    """Encode the whole payload, then write it to ``out_path``, when given,
    and then to stdout: a payload that cannot be encoded writes nothing, and
    an unwritable ``out_path`` raises before stdout sees a byte."""
    pieces = _encode(payload)
    pieces.append("\n")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise SchemaError(f"'--out': cannot write {out_path}: {exc}") from exc
    sys.stdout.writelines(pieces)


def _base_report(args) -> dict:
    """The envelope of a report: ``config`` is the parsed arguments less ``--out``."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out", "command")}
    return {"tool": "braidalg", "version": __version__, "command": args.command, "config": config}


# -- subcommands -----------------------------------------------------------


def cmd_verify(args) -> tuple[dict, bool]:
    obj = _load_json(args.input)
    kind = kind_of_input(obj)
    report = _base_report(args)
    if kind == "braiding":
        V = braiding_from_json(obj)
        rep = check_yang_baxter(V)
        report["subject"] = "braiding"
        report["qybe"] = "pass" if all(i.passed for i in rep.items if i.name == "yang_baxter") else "fail"
        report["invertible"] = "pass" if all(
            i.passed for i in rep.items if i.name.startswith("invertible")) else "fail"
    elif kind == "bialgebra":
        B = bialgebra_from_json(obj)
        rep = check_braided_bialgebra(B)
        report["subject"] = "bialgebra"
    else:
        rep = _verify_build_dump(obj)
        report["subject"] = "build"
    return _checked(report, rep)


def _verify_build_dump(obj: dict) -> AxiomReport:
    """Re-parse a build dump, gate its braiding on Yang-Baxter as ``build``
    does, rebuild from it, compare every block bit-exactly, then re-run the
    blockwise axiom suite.  A stored block whose text is the rebuilt block's
    ``matrix_to_json`` passes unparsed; any other text is parsed and compared
    cell by cell, so an equal block spelled otherwise passes too.  A braiding
    that fails the gate is reported by the gate's items alone: at degree 2
    the suite has no hexagon to catch it."""
    V = braiding_from_json(obj)
    degree = obj.get("degree")
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise SchemaError("'degree' must be a positive integer")
    _require_size(V.dim, degree, "'degree'")
    blocks = obj.get("blocks")
    if not isinstance(blocks, dict):
        raise SchemaError("'blocks' must be an object")
    gate = check_yang_baxter(V)
    if not gate.passed:
        return gate
    T = build_truncated(V, degree)
    rep = AxiomReport()
    for key, block in T.named_blocks():
        if key not in blocks:
            raise SchemaError(f"missing key 'blocks.{key}'")
        if blocks[key] == matrix_to_json(block):  # the canonical text: nothing to parse
            rep.add(CheckItem(f"roundtrip[{key}]", True))
            continue
        stored = matrix_from_json(V.field, blocks[key], key, rows=block.rows, cols=block.cols)
        rep.add(compare(f"roundtrip[{key}]", stored, block))
    rep.extend(check_truncated_axioms(T))
    return rep


def cmd_build(args) -> tuple[dict, bool]:
    _require_degree(args.degree)
    V = braiding_from_json(_load_json(args.input))
    _require_size(V.dim, args.degree)
    gate = check_yang_baxter(V)
    if not gate.passed:
        return _checked(_base_report(args), gate)
    T = build_truncated(V, args.degree)
    dump = _base_report(args)
    del dump["command"]  # a dump is an input file for ``verify``, not a report
    dump.update(braiding_to_json(V), degree=args.degree, blocks=dict(T.named_blocks()))
    return dump, True


def cmd_primitives(args) -> tuple[dict, bool]:
    obj = _load_json(args.input)
    kind = kind_of_input(obj)
    report = _base_report(args)
    if kind == "bialgebra":
        B = bialgebra_from_json(obj)
        space = primitives(B)
        report["subject"] = "bialgebra"
        report["dim"] = space.dim
        report["inclusion"] = space.inclusion
        report["braiding"] = space.braiding
    elif kind == "braiding":
        _require_degree(args.degree)
        V = braiding_from_json(obj)
        _require_size(V.dim, args.degree)
        gate = check_yang_baxter(V)
        if not gate.passed:
            return _checked(report, gate)
        T = build_truncated(V, args.degree)
        bases = [primitives_of_tensor(T, n) for n in range(1, args.degree + 1)]
        report["subject"] = "graded"
        report["dims"] = [basis.cols for basis in bases]
        report["bases"] = {str(n): basis for n, basis in enumerate(bases, 1)}
    else:
        raise SchemaError("primitives expects a braiding or bialgebra input")
    return {**report, "passed": True}, True


def cmd_braidrep(args) -> tuple[dict | list, bool]:
    """Without ``--out`` the payload is the bare matrix, with no envelope."""
    if args.m < 0 or args.n < 0:
        raise SchemaError(f"'--m'/'--n' must be non-negative, got ({args.m},{args.n})")
    V = braiding_from_json(_load_json(args.input))
    _require_size(V.dim, args.m + args.n, "'--m' + '--n'")
    gate = check_yang_baxter(V)
    if not gate.passed:
        raise SpecViolation(f"input braiding fails {gate.failures()[0].name}")
    matrix = BraidRepCache(V).block(args.m, args.n)
    if not args.out:
        return matrix, True
    return {**_base_report(args), "matrix": matrix, "passed": True}, True


def cmd_transport(args) -> tuple[dict, bool]:
    B = bialgebra_from_json(_load_json(args.input))
    if (args.g is None) == (args.twist is None):
        raise SchemaError("exactly one of '--g' and '--twist' is required")
    if args.g is not None:
        gobj = _load_json(args.g, "--g")
        if not isinstance(gobj, dict):
            raise SchemaError("'--g' must hold a JSON object")
        field = field_from_json(gobj.get("field", B.field.to_json()))
        if field != B.field:
            raise SchemaError("'g' field must match the bialgebra's field")
        g = matrix_from_json(field, gobj.get("g"), "g", rows=B.dim, cols=B.dim)
        F = basis_change(g)
        fdesc = {"kind": "basis_change", "g": g}
    else:
        try:
            scale = B.field.element(args.twist)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"'--twist': {exc}") from exc
        F = scalar_twist(B.field, scale, B.dim)
        fdesc = {"kind": "scalar_twist", "scale": args.twist}
    out = transport_bialgebra(F, B)
    rep = check_braided_bialgebra(out)
    rep.add(CheckItem("primitive_square", check_primfunct_square(F, B)))
    report = _base_report(args)
    config = report["config"]
    del config["g"], config["twist"]
    config["functor"] = fdesc  # the resolved functor, in place of '--g' and '--twist'
    report["bialgebra"] = bialgebra_to_json(out)
    return _checked(report, rep)


def cmd_jcheck(args) -> tuple[dict, bool]:
    _require_degree(args.degree, minimum=2)
    if args.dim < 1:
        raise SchemaError(f"'--dim' must be an integer >= 1, got {args.dim}")
    _require_size(args.dim, args.degree)
    field = _parse_field(args.field)
    if args.base == "flip":
        if args.grading is not None:
            raise SchemaError("'--grading' applies only to the super base")
        grading = (0,) * args.dim  # the flip is the all-even super braiding
    else:
        if not args.grading:
            raise SchemaError("'--grading' is required for the super base")
        try:
            grading = tuple(int(x) for x in args.grading.split(","))
        except ValueError as exc:
            raise SchemaError(f"'--grading': {exc}") from exc
        if len(grading) != args.dim:
            raise SchemaError(f"'--grading' must list {args.dim} parities")
    try:
        grid = parity_grid(grading)
    except ShapeError as exc:
        raise SchemaError(f"'--grading': {exc}") from exc
    return _checked(_base_report(args), check_J_compatibility(field, grid, args.degree))


def cmd_adjunction_check(args) -> tuple[dict, bool]:
    _require_degree(args.degree, minimum=2)
    V = braiding_from_json(_load_json(args.braiding, "--braiding"))
    B = bialgebra_from_json(_load_json(args.bialgebra, "--bialgebra"))
    if V.field != B.field:
        raise SchemaError("'--braiding' and '--bialgebra' must share one field")
    _require_size(max(V.dim, B.dim), args.degree)
    rep = check_braided_bialgebra(B)
    if rep.passed:
        w = AdjunctionWitness(B, args.degree)
        rep = AxiomReport()
        rep.add(CheckItem("free_forgetful_triangles", check_triangles_T_Omega(B, args.degree)))
        rep.extend(check_zeta_coalgebra(w))
        rep.add(CheckItem("zeta_degree1_is_inclusion", w.zeta_blocks[1] == w.space.inclusion))
        rep.add(CheckItem("zeta_degree0_is_unit", w.zeta_blocks[0] == B.u))
        rep.add(CheckItem("tensor_primitive_triangles", check_triangles_Tbar_P(w)))
        rep.add(CheckItem("counit_kills_primitives_exact", (B.eps * w.space.inclusion).is_zero()))
    return _checked(_base_report(args), rep)


# -- argument parsing --------------------------------------------------------


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it
    unchanged, and building it costs more than a small command's work."""
    parser = argparse.ArgumentParser(
        prog="braidalg",
        description="Exact verification and construction of braided structures.",
    )
    parser.add_argument("--version", action="version", version=f"braidalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed recorded for reproducibility (default 0)")
        p.add_argument("--out", help="write the report to this path as well as stdout")

    p = sub.add_parser("verify", help="check a braiding, bialgebra, or build dump")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build", help="build the truncated tensor bialgebra blocks")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("primitives", help="primitive space of a bialgebra, or graded dims for a braiding")
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=int)
    common(p)
    p.set_defaults(func=cmd_primitives)

    p = sub.add_parser("braidrep", help="one exchange-operator block")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_braidrep)

    p = sub.add_parser("transport", help="transport a bialgebra along a functor")
    p.add_argument("--input", required=True)
    p.add_argument("--g", help="basis-change matrix file")
    p.add_argument("--twist", help="scalar for the twist functor")
    common(p)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("jcheck", help="base-symmetry compatibility checks")
    p.add_argument("--base", choices=["flip", "super"], required=True)
    p.add_argument("--grading", help="comma-separated parities (super)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--field", default="q", help="'q' or 'fp:<p>' (default q)")
    common(p)
    p.set_defaults(func=cmd_jcheck)

    p = sub.add_parser("adjunction-check", help="unit/counit identities for a braiding and a bialgebra")
    p.add_argument("--braiding", required=True)
    p.add_argument("--bialgebra", required=True)
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_adjunction_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        payload, passed = args.func(args)
        _emit(payload, args.out)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except BraidAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
