"""JSON (de)serialization for the on-disk formats.

Matrices are row-major arrays of arrays of scalar strings ("a/b" or "a" over
the rationals, the residue string over a prime field); see docs/formats.md
for the file schemas.  Deserialization errors name the offending key.
"""

from __future__ import annotations

from .braided import BialgebraData, BraidedObject
from .fields import FieldSpec
from .matrix import ExactMatrix


class SchemaError(ValueError):
    """Input JSON does not match the documented schema; names the key."""


def matrix_to_json(m: ExactMatrix) -> list[list[str]]:
    return m.to_strings()


def matrix_from_json(field: FieldSpec, obj, key: str, rows: int, cols: int) -> ExactMatrix:
    """A ``rows x cols`` matrix; a wrong shape is refused by the constructor."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SchemaError(f"'{key}' must be an array of arrays of scalar strings")
    try:
        return ExactMatrix(field, obj, rows=rows, cols=cols)
    except Exception as exc:
        raise SchemaError(f"'{key}': {exc}") from exc


def field_from_json(obj) -> FieldSpec:
    if not isinstance(obj, dict):
        raise SchemaError("'field' must be an object")
    try:
        return FieldSpec.from_json(obj)
    except ValueError as exc:
        raise SchemaError(f"'field': {exc}") from exc


def _require(obj: dict, key: str):
    if not isinstance(obj, dict):
        raise SchemaError("input must be a JSON object")
    if key not in obj:
        raise SchemaError(f"missing key '{key}'")
    return obj[key]


def _dim_from_json(obj: dict) -> int:
    dim = _require(obj, "dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise SchemaError("'dim' must be a non-negative integer")
    return dim


def braiding_to_json(V: BraidedObject) -> dict:
    return {"field": V.field.to_json(), "dim": V.dim, "c": matrix_to_json(V.c)}


def braiding_from_json(obj: dict) -> BraidedObject:
    field = field_from_json(_require(obj, "field"))
    dim = _dim_from_json(obj)
    c = matrix_from_json(field, _require(obj, "c"), "c", rows=dim * dim, cols=dim * dim)
    return BraidedObject(field, dim, c)


def bialgebra_to_json(B: BialgebraData) -> dict:
    return {
        "field": B.field.to_json(),
        "dim": B.dim,
        "m": matrix_to_json(B.m),
        "u": matrix_to_json(B.u),
        "delta": matrix_to_json(B.delta),
        "eps": matrix_to_json(B.eps),
        "c": matrix_to_json(B.c),
    }


def bialgebra_from_json(obj: dict) -> BialgebraData:
    field = field_from_json(_require(obj, "field"))
    d = _dim_from_json(obj)
    return BialgebraData(
        field,
        d,
        m=matrix_from_json(field, _require(obj, "m"), "m", rows=d, cols=d * d),
        u=matrix_from_json(field, _require(obj, "u"), "u", rows=d, cols=1),
        delta=matrix_from_json(field, _require(obj, "delta"), "delta", rows=d * d, cols=d),
        eps=matrix_from_json(field, _require(obj, "eps"), "eps", rows=1, cols=d),
        c=matrix_from_json(field, _require(obj, "c"), "c", rows=d * d, cols=d * d),
    )


def kind_of_input(obj: dict) -> str:
    """Classify an input file: 'braiding', 'bialgebra', or 'build' dump."""
    if not isinstance(obj, dict):
        raise SchemaError("input must be a JSON object")
    if "blocks" in obj:
        return "build"
    if "m" in obj or "delta" in obj:
        return "bialgebra"
    if "c" in obj:
        return "braiding"
    raise SchemaError("missing key 'c' (not a braiding, bialgebra, or build dump)")
