"""Exact scalars over the rationals or a prime field.

Scalars are plain Python values in one canonical form.  Over the rationals
an integral value is an ``int`` and any other is a ``fractions.Fraction``
with denominator > 1; over a prime field every value is an ``int`` residue
in ``[0, p)``.  ``element`` and every arithmetic op return that form, so a
cell's type follows from its value, never from how it was computed.  A
``FieldSpec`` carries the element operations so the matrix layer stays
field-generic.  There is no floating point anywhere; equality is exact.

Serialization: a rational prints as ``"a/b"`` (reduced, ``b > 0``) or ``"a"``;
a prime-field element prints as its residue string.  A string is read back
as ``"a"`` or ``"a/b"``, each part an integer string; an integer part beyond
Python's digit limit for ``str`` is refused on input and on output.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import log10

from .errors import BraidAlgError, FieldMismatch, NotInvertible

# Miller-Rabin with the first thirteen primes as bases is exact below this
# bound, psi_13, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).  The first twelve bases are not enough:
# psi_12 = 318665857834031151167461 is composite and passes them all.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for ``n < MR_BOUND``.

    Raises ``ValueError`` at or above the bound, where these bases are no
    longer known to be exact.
    """
    if n >= MR_BOUND:
        raise ValueError(f"modulus {n} is too large: primality is decided only below {MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for b in _MR_BASES:
        x = pow(b, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The base field, known by its modulus: None for the rationals, else a prime ``p``."""

    p: int | None = None

    zero = 0
    one = 1

    def __post_init__(self) -> None:
        if self.p is not None:
            if not isinstance(self.p, int) or isinstance(self.p, bool):
                raise ValueError(f"modulus must be an integer, got {self.p!r}")
            if not is_prime(self.p):
                raise ValueError(f"modulus must be prime, got {self.p!r}")

    # -- elements ------------------------------------------------------

    def element(self, x):
        """Coerce an int, Fraction, or string into a canonical scalar.

        ``bool`` is an ``int`` subclass but not a scalar, so it is refused.
        """
        if isinstance(x, bool):
            raise TypeError(f"cannot coerce {x!r} into {self}")
        if self.p is not None:
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
            # only "a" and "a/b": Fraction also reads decimals and exponents,
            # and "1e10000000" would cost time without bound
            if "." in x or "e" in x or "E" in x:
                raise ValueError(f"Invalid literal for Fraction: {x!r}")
            x = Fraction(x)
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot coerce {x!r} into the rationals")
        return x

    def normalize(self, x):
        """Reduce a raw arithmetic result to canonical form: mod ``p`` over a
        prime field, and over Q an integral ``Fraction`` becomes its ``int``
        numerator, so no cell is ever held as ``Fraction(k, 1)``."""
        if self.p is not None:
            return x % self.p
        if type(x) is Fraction and x.denominator == 1:
            return x.numerator
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
        if x == 0 or self.p is not None and x % self.p == 0:
            raise NotInvertible("0 has no inverse")
        if self.p is not None:
            return pow(x, -1, self.p)
        return self.element(Fraction(1, 1) / x)

    def format(self, x) -> str:
        try:
            return str(x)
        except ValueError as exc:  # an integer part beyond Python's str limit
            n = max(abs(x.numerator), x.denominator)
            k = int(n.bit_length() * log10(2))
            digits = k + 1 if n >= 10 ** k else k
            raise BraidAlgError(f"cannot print a scalar of {digits} digits: "
                                f"the limit is {sys.get_int_max_str_digits()}") from exc

    # -- (de)serialization of the field itself --------------------------

    def to_json(self) -> dict:
        if self.p is None:
            return {"kind": "rationals"}
        return {"kind": "prime", "p": self.p}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        kind, p = obj.get("kind"), obj.get("p")
        if kind == "prime":
            return prime_field(p)
        if kind != "rationals":
            raise ValueError(f"unknown field kind {kind!r}")
        if p is not None:
            raise ValueError("rationals take no modulus")
        return RATIONALS

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


RATIONALS = FieldSpec()


def prime_field(p: int) -> FieldSpec:
    if p is None:
        raise ValueError("modulus must be an integer, got None")
    return FieldSpec(p)


def require_same_field(a: FieldSpec, b: FieldSpec) -> None:
    if a is not b and a != b:
        raise FieldMismatch(f"field mismatch: {a} vs {b}")
