"""Exchange operators between tensor powers, built from a single braiding.

For a braided object ``(V, c)`` there is a unique family
``c^{m,n}: V^m ⊗ V^n -> V^n ⊗ V^m`` compatible with stacking strands on
either side.  Two independent recursion schedules are provided:

* the production schedule peels one strand off the left block;
* the oracle schedule peels one strand off the right block.

Their agreement on every input is the uniqueness of the family made
executable, and it is asserted wholesale in the test suite.
"""

from __future__ import annotations

from .braided import BraidedObject, hexagon
from .errors import BadDegree
from .matrix import ExactMatrix, whisker, whisker_chain


class BraidRepCache:
    """Memoized table of the block exchange operators of one braided object.

    Recomputation across degrees would be quadratic in calls, so every
    constructed matrix is kept; inserts are idempotent (equal values), making
    concurrent reuse after a single-writer build benign.
    """

    def __init__(self, source: BraidedObject):
        self.source = source
        self.table: dict[tuple[int, int], ExactMatrix] = {}

    def block(self, m: int, n: int) -> ExactMatrix:
        """Left-peeling schedule: reduce the first index to 1, then walk the
        second index up one strand at a time."""
        if m < 0 or n < 0:
            raise BadDegree(f"block indices must be non-negative, got ({m},{n})")
        key = (m, n)
        hit = self.table.get(key)
        if hit is not None:
            return hit
        d = self.source.dim
        if m == 0 or n == 0:
            out = ExactMatrix.identity(self.source.field, d ** (m + n))
        elif m == 1 and n == 1:
            out = self.source.c
        elif m == 1:
            out = whisker_chain((d ** (n - 1), self.source.c, 1), (1, self.block(1, n - 1), d))
        else:
            out = whisker_chain((1, self.block(1, n), d ** (m - 1)), (d, self.block(m - 1, n), 1))
        self.table[key] = out
        return out


class OracleBraidRepCache:
    """Right-peeling schedule; intentionally a separate recursion and cache."""

    def __init__(self, source: BraidedObject):
        self.source = source
        self.table: dict[tuple[int, int], ExactMatrix] = {}

    def block(self, m: int, n: int) -> ExactMatrix:
        if m < 0 or n < 0:
            raise BadDegree(f"block indices must be non-negative, got ({m},{n})")
        key = (m, n)
        hit = self.table.get(key)
        if hit is not None:
            return hit
        d = self.source.dim
        if m == 0 or n == 0:
            out = ExactMatrix.identity(self.source.field, d ** (m + n))
        elif m == 1 and n == 1:
            out = self.source.c
        elif n == 1:
            out = whisker(1, self.block(m - 1, 1), d, whisker(d ** (m - 1), self.source.c, 1))
        else:
            out = whisker(d ** (n - 1), self.block(m, 1), 1, whisker(1, self.block(m, n - 1), d))
        self.table[key] = out
        return out


def check_hexagon(l: int, m: int, n: int, V: BraidedObject,
                  cache: BraidRepCache | None = None) -> bool:
    """The two ways of exchanging three stacked blocks agree:

    ``(1_n ⊗ c^{l,m})(c^{l,n} ⊗ 1_m)(1_l ⊗ c^{m,n})
      = (c^{m,n} ⊗ 1_l)(1_m ⊗ c^{l,n})(c^{l,m} ⊗ 1_n)``.
    """
    if cache is None:
        cache = BraidRepCache(V)
    lhs, rhs = hexagon(cache.block(l, m), cache.block(l, n), cache.block(m, n),
                       V.dim ** l, V.dim ** m, V.dim ** n)
    return lhs == rhs
