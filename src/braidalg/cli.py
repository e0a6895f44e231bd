"""Batch front door: JSON in, deterministic machine-readable reports out.

Exit status: 0 when every requested check passes, 1 on check failures,
2 on schema or usage errors.  Identical inputs and seed produce
byte-identical reports; every report embeds the tool version and the fully
resolved configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .adjunctions import (
    check_triangles_T_Omega,
    check_triangles_Tbar_P,
    check_zeta_coalgebra,
    primitive_counit_blocks,
)
from .braided import AxiomReport, check_braided_bialgebra, check_yang_baxter
from .errors import BraidAlgError
from .fields import RATIONALS, FieldSpec, prime_field
from .matrix import ExactMatrix
from .primitives import primitives, primitives_of_tensor
from .serialize import (
    SchemaError,
    bialgebra_from_json,
    braiding_from_json,
    field_from_json,
    kind_of_input,
    matrix_from_json,
    matrix_to_json,
)
from .tensoralg import build_truncated, check_truncated_axioms
from .transport import (
    FLIP,
    SUPER,
    BaseBraiding,
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


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"'--input': cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"'--input': {path} is not valid JSON: {exc}") from exc


def _report_checks(report: AxiomReport) -> list[dict]:
    return [
        {"name": item.name, "passed": item.passed, **({"detail": item.detail} if item.detail else {})}
        for item in report.items
    ]


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _base_report(command: str, config: dict) -> dict:
    return {"tool": "braidalg", "version": __version__, "command": command, "config": config}


# -- subcommands -----------------------------------------------------------


def cmd_verify(args) -> int:
    obj = _load_json(args.input)
    kind = kind_of_input(obj)
    report = _base_report("verify", {"input": args.input, "seed": args.seed})
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
        rep = _verify_build_dump(obj, report)
    report["checks"] = _report_checks(rep)
    report["passed"] = rep.passed
    _emit(report, args.out)
    return 0 if rep.passed else 1


def _verify_build_dump(obj: dict, report: dict) -> AxiomReport:
    """Re-parse a build dump, rebuild from its braiding, compare every block
    bit-exactly, then re-run the blockwise axiom suite."""
    from .braided import compare

    V = braiding_from_json(obj)
    degree = obj.get("degree")
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise SchemaError("'degree' must be a positive integer")
    _require_size(V.dim, degree, "'degree'")
    blocks = obj.get("blocks")
    if not isinstance(blocks, dict):
        raise SchemaError("'blocks' must be an object")
    T = build_truncated(V, degree)
    rep = AxiomReport()
    d = V.dim
    for n in range(degree + 1):
        for k in range(n + 1):
            key = f"delta/{k}_{n}"
            if key not in blocks:
                raise SchemaError(f"missing key 'blocks.{key}'")
            stored = matrix_from_json(V.field, blocks[key], key, rows=d ** n, cols=d ** n)
            rep.add(compare(f"roundtrip[{key}]", stored, T.coproduct_block(k, n)))
    for m in range(degree + 1):
        for n in range(degree + 1 - m):
            key = f"cT/{m}_{n}"
            if key not in blocks:
                raise SchemaError(f"missing key 'blocks.{key}'")
            stored = matrix_from_json(V.field, blocks[key], key,
                                      rows=d ** (m + n), cols=d ** (m + n))
            rep.add(compare(f"roundtrip[{key}]", stored, T.braiding_block(m, n)))
    for n in range(degree + 1):
        key = f"eps/{n}"
        if key not in blocks:
            raise SchemaError(f"missing key 'blocks.{key}'")
        stored = matrix_from_json(V.field, blocks[key], key, rows=1, cols=d ** n)
        rep.add(compare(f"roundtrip[{key}]", stored, T.counit_block(n)))
    report["subject"] = "build"
    rep.extend(check_truncated_axioms(T))
    return rep


def cmd_build(args) -> int:
    _require_degree(args.degree)
    obj = _load_json(args.input)
    V = braiding_from_json(obj)
    _require_size(V.dim, args.degree)
    gate = check_yang_baxter(V)
    if not gate.passed:
        report = _base_report("build", {"input": args.input, "degree": args.degree,
                                        "seed": args.seed})
        report["checks"] = _report_checks(gate)
        report["passed"] = False
        _emit(report, args.out)
        return 1
    T = build_truncated(V, args.degree)
    blocks: dict[str, list[list[str]]] = {}
    for n in range(args.degree + 1):
        for k in range(n + 1):
            blocks[f"delta/{k}_{n}"] = matrix_to_json(T.coproduct_block(k, n))
    for m in range(args.degree + 1):
        for n in range(args.degree + 1 - m):
            blocks[f"cT/{m}_{n}"] = matrix_to_json(T.braiding_block(m, n))
    for n in range(args.degree + 1):
        blocks[f"eps/{n}"] = matrix_to_json(T.counit_block(n))
    dump = {
        "tool": "braidalg",
        "version": __version__,
        "config": {"input": args.input, "degree": args.degree, "seed": args.seed},
        "field": V.field.to_json(),
        "dim": V.dim,
        "c": matrix_to_json(V.c),
        "degree": args.degree,
        "blocks": blocks,
    }
    _emit(dump, args.out)
    return 0


def cmd_primitives(args) -> int:
    obj = _load_json(args.input)
    kind = kind_of_input(obj)
    report = _base_report("primitives", {
        "input": args.input, "degree": args.degree, "seed": args.seed,
    })
    if kind == "bialgebra":
        B = bialgebra_from_json(obj)
        space = primitives(B)
        report["subject"] = "bialgebra"
        report["dim"] = space.dim
        report["inclusion"] = matrix_to_json(space.inclusion)
        report["braiding"] = matrix_to_json(space.braiding)
    elif kind == "braiding":
        _require_degree(args.degree)
        V = braiding_from_json(obj)
        _require_size(V.dim, args.degree)
        T = build_truncated(V, args.degree)
        dims = []
        bases = {}
        for n in range(1, args.degree + 1):
            basis = primitives_of_tensor(T, n)
            dims.append(basis.cols)
            bases[str(n)] = matrix_to_json(basis)
        report["subject"] = "graded"
        report["dims"] = dims
        report["bases"] = bases
    else:
        raise SchemaError("primitives expects a braiding or bialgebra input")
    report["passed"] = True
    _emit(report, args.out)
    return 0


def cmd_braidrep(args) -> int:
    if args.m < 0 or args.n < 0:
        raise SchemaError(f"'--m'/'--n' must be non-negative, got ({args.m},{args.n})")
    obj = _load_json(args.input)
    V = braiding_from_json(obj)
    _require_size(V.dim, args.m + args.n, "'--m' + '--n'")
    gate = check_yang_baxter(V)
    if not gate.passed:
        print(f"error: input braiding fails {gate.failures()[0].name}", file=sys.stderr)
        return 1
    from .braidrep import BraidRepCache

    block = BraidRepCache(V).block(args.m, args.n)
    matrix = matrix_to_json(block)
    if args.out:
        report = _base_report("braidrep", {
            "input": args.input, "m": args.m, "n": args.n, "seed": args.seed,
        })
        report["matrix"] = matrix
        report["passed"] = True
        _emit(report, args.out)
    else:
        sys.stdout.write(json.dumps(matrix, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_transport(args) -> int:
    obj = _load_json(args.input)
    B = bialgebra_from_json(obj)
    if (args.g is None) == (args.twist is None):
        raise SchemaError("exactly one of '--g' and '--twist' is required")
    if args.g is not None:
        gobj = _load_json(args.g)
        if not isinstance(gobj, dict):
            raise SchemaError("'--g' must hold a JSON object")
        field = field_from_json(gobj.get("field", B.field.to_json()))
        if field != B.field:
            raise SchemaError("'g' field must match the bialgebra's field")
        g = matrix_from_json(field, gobj.get("g") or gobj.get("matrix") or [], "g",
                             rows=B.dim, cols=B.dim)
        F = basis_change(g)
        fdesc = {"kind": "basis_change", "g": matrix_to_json(g)}
    else:
        try:
            scale = B.field.parse(args.twist)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"'--twist': {exc}") from exc
        F = scalar_twist(B.field, scale)
        fdesc = {"kind": "scalar_twist", "scale": args.twist}
    out = transport_bialgebra(F, B, check=False)
    rep = check_braided_bialgebra(out)
    square = check_primfunct_square(F, B)
    report = _base_report("transport", {
        "input": args.input, "functor": fdesc, "seed": args.seed,
    })
    report["bialgebra"] = {
        "field": out.field.to_json(), "dim": out.dim,
        "m": matrix_to_json(out.m), "u": matrix_to_json(out.u),
        "delta": matrix_to_json(out.delta), "eps": matrix_to_json(out.eps),
        "c": matrix_to_json(out.c),
    }
    report["checks"] = _report_checks(rep) + [
        {"name": "primitive_square", "passed": square},
    ]
    report["passed"] = rep.passed and square
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_jcheck(args) -> int:
    _require_degree(args.degree, minimum=2)
    if args.dim < 1:
        raise SchemaError(f"'--dim' must be an integer >= 1, got {args.dim}")
    _require_size(args.dim, args.degree)
    field = _parse_field(args.field)
    if args.base == FLIP:
        base = BaseBraiding(FLIP)
    else:
        if not args.grading:
            raise SchemaError("'--grading' is required for the super base")
        try:
            grading = tuple(int(x) for x in args.grading.split(","))
        except ValueError as exc:
            raise SchemaError(f"'--grading': {exc}") from exc
        if len(grading) != args.dim:
            raise SchemaError(f"'--grading' must list {args.dim} parities")
        base = BaseBraiding(SUPER, grading)
    rep = check_J_compatibility(base, args.dim, args.degree, field)
    report = _base_report("jcheck", {
        "base": args.base, "grading": args.grading, "dim": args.dim,
        "degree": args.degree, "field": args.field, "seed": args.seed,
    })
    report["checks"] = _report_checks(rep)
    report["passed"] = rep.passed
    _emit(report, args.out)
    return 0 if rep.passed else 1


def cmd_adjunction_check(args) -> int:
    _require_degree(args.degree, minimum=2)
    V = braiding_from_json(_load_json(args.braiding))
    B = bialgebra_from_json(_load_json(args.bialgebra))
    if V.field != B.field:
        raise SchemaError("'--braiding' and '--bialgebra' must share one field")
    _require_size(max(V.dim, B.dim), args.degree)
    gate = check_braided_bialgebra(B)
    rows: list[dict] = []
    if gate.passed:
        space = primitives(B, check=False)
        rows.append({"name": "free_forgetful_triangles", "passed": check_triangles_T_Omega(V, args.degree)})
        zeta_rep = check_zeta_coalgebra(B, args.degree, space)
        rows.extend(_report_checks(zeta_rep))
        zeta = primitive_counit_blocks(B, args.degree, space)
        rows.append({"name": "zeta_degree1_is_inclusion", "passed": zeta[1] == space.inclusion})
        rows.append({"name": "zeta_degree0_is_unit", "passed": zeta[0] == B.u})
        rows.append({
            "name": "tensor_primitive_triangles",
            "passed": check_triangles_Tbar_P(V, B, args.degree),
        })
        eps_xi = B.eps * space.inclusion
        rows.append({
            "name": "counit_kills_primitives_exact",
            "passed": eps_xi == ExactMatrix.zeros(B.field, 1, space.dim),
        })
    else:
        rows.extend(_report_checks(gate))
    passed = all(r["passed"] for r in rows)
    report = _base_report("adjunction-check", {
        "braiding": args.braiding, "bialgebra": args.bialgebra,
        "degree": args.degree, "seed": args.seed,
    })
    report["checks"] = rows
    report["passed"] = passed
    _emit(report, args.out)
    return 0 if passed else 1


# -- argument parsing --------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--base", choices=[FLIP, SUPER], required=True)
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
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except BraidAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
