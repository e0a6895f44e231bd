"""Exact scalars over the rationals or a prime field.

Scalars are plain Python values in one canonical form.  Over the rationals
an integral value is an ``int`` and any other is a ``fractions.Fraction``
with denominator > 1; over a prime field every value is an ``int`` residue
in ``[0, p)``.  ``element`` and every arithmetic op return that form, so a
cell's type follows from its value, never from how it was computed.  A
``FieldSpec`` carries the element operations so the matrix layer stays
field-generic.  There is no floating point anywhere; equality is exact.

Serialization: a rational prints as ``"a/b"`` (reduced, ``b > 0``) or ``"a"``;
a prime-field element prints as its residue string.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, NotInvertible

RATIONALS_KIND = "rationals"
PRIME_KIND = "prime"


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
    """The base field: the rationals, or integers mod a prime ``p``."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == RATIONALS_KIND:
            if self.p is not None:
                raise ValueError("rationals take no modulus")
        elif self.kind == PRIME_KIND:
            if not isinstance(self.p, int) or isinstance(self.p, bool):
                raise ValueError(f"modulus must be an integer, got {self.p!r}")
            if not is_prime(self.p):
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
        """Reduce a raw arithmetic result to canonical form: mod ``p`` over a
        prime field, and over Q an integral ``Fraction`` becomes its ``int``
        numerator, so no cell is ever held as ``Fraction(k, 1)``."""
        if self.kind == PRIME_KIND:
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
            return FieldSpec(RATIONALS_KIND, obj.get("p"))
        raise ValueError(f"unknown field kind {kind!r}")

    def __str__(self) -> str:
        return "Q" if self.kind == RATIONALS_KIND else f"F_{self.p}"


RATIONALS = FieldSpec(RATIONALS_KIND)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(PRIME_KIND, p)


def require_same_field(a: FieldSpec, b: FieldSpec) -> None:
    if a != b:
        raise FieldMismatch(f"field mismatch: {a} vs {b}")
