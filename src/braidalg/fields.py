"""Exact scalars over the rationals or a prime field.

Scalars are plain Python values: ``fractions.Fraction`` (or ``int``) over the
rationals, ``int`` residues in ``[0, p)`` over a prime field.  A ``FieldSpec``
carries the element operations so the matrix layer stays field-generic.
There is no floating point anywhere; equality is exact.

Serialization: a rational prints as ``"a/b"`` (reduced, ``b > 0``) or ``"a"``;
a prime-field element prints as its residue string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, NotInvertible

RATIONALS_KIND = "rationals"
PRIME_KIND = "prime"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The base field: the rationals, or integers mod a prime ``p``."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == RATIONALS_KIND:
            if self.p is not None:
                raise ValueError("rationals take no modulus")
        elif self.kind == PRIME_KIND:
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"modulus must be prime, got {self.p!r}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- elements ------------------------------------------------------

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def element(self, x):
        """Coerce an int, Fraction, or string into a canonical scalar.

        ``bool`` is an ``int`` subclass but not a scalar, so it is refused.
        """
        if isinstance(x, bool):
            raise TypeError(f"cannot coerce {x!r} into {self}")
        if self.kind == PRIME_KIND:
            if isinstance(x, str):
                x = int(x)
            elif isinstance(x, Fraction):
                if x.denominator != 1:
                    x = x.numerator * pow(x.denominator, -1, self.p)
                else:
                    x = x.numerator
            elif not isinstance(x, int):
                raise TypeError(f"cannot coerce {x!r} into F_{self.p}")
            return x % self.p
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot coerce {x!r} into the rationals")
        return x

    def normalize(self, x):
        """Reduce a raw arithmetic result to canonical form (mod p if prime)."""
        if self.kind == PRIME_KIND:
            return x % self.p
        return x

    def neg(self, x):
        return self.normalize(-x)

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def inv(self, x):
        if self.kind == PRIME_KIND:
            x %= self.p
            if x == 0:
                raise NotInvertible("0 has no inverse")
            return pow(x, -1, self.p)
        if x == 0:
            raise NotInvertible("0 has no inverse")
        return self.element(Fraction(1, 1) / x)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, x) -> str:
        return str(x)

    def parse(self, s: str):
        return self.element(s)

    # -- (de)serialization of the field itself --------------------------

    def to_json(self) -> dict:
        if self.kind == PRIME_KIND:
            return {"kind": PRIME_KIND, "p": self.p}
        return {"kind": RATIONALS_KIND}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        kind = obj.get("kind")
        if kind == PRIME_KIND:
            return FieldSpec(PRIME_KIND, obj.get("p"))
        if kind == RATIONALS_KIND:
            return FieldSpec(RATIONALS_KIND)
        raise ValueError(f"unknown field kind {kind!r}")

    def __str__(self) -> str:
        return "Q" if self.kind == RATIONALS_KIND else f"F_{self.p}"


RATIONALS = FieldSpec(RATIONALS_KIND)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(PRIME_KIND, p)


def require_same_field(a: FieldSpec, b: FieldSpec) -> None:
    if a != b:
        raise FieldMismatch(f"field mismatch: {a} vs {b}")
