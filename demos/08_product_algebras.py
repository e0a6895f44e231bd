"""Twisted tensor products of algebras.

Two algebras with exchange operators between them multiply componentwise
after routing the middle factors through the exchange.  The construction
verifies its hypotheses (the exchange must respect products, units, and the
three-factor compatibility) before building anything, and the result is
again a braided algebra.
"""

from braidalg import (
    RATIONALS,
    BraidRepCache,
    ExactMatrix,
    ProductAlgebraSpec,
    SpecViolation,
    check_algebra,
    check_braided_algebra,
    check_yang_baxter,
    double_braiding,
    product_algebra,
)
from braidalg.braided import BraidedObject
from braidalg.gallery import exterior_line, scalar_braiding

B = exterior_line(RATIONALS)

# The square of the exterior line with the signed exchange: 4-dimensional,
# with (1 x x) * (x x 1) = -(x x x) showing up in the product matrix.
spec = ProductAlgebraSpec(B.algebra, B.algebra,
                          {(i, j): B.c for i in (1, 2) for j in (1, 2)})
square = product_algebra(spec)
print("square of the exterior line: dim", square.algebra.dim)
print("  associative and unital:", check_algebra(square.algebra).passed)
print("  braided algebra:", check_braided_algebra(square.algebra, square.c).passed)
col = 1 * 4 + 2  # (1 x x) times (x x 1)
print("  (1 x x)(x x 1) column:", [square.algebra.m[i, col] for i in range(4)],
      "(= -x x x)")

# The same data packaged as the doubling of a braided algebra; its braiding
# is the block c^{2,2} of the braided object.
dbl = double_braiding(B.algebra, B.c)
print("\ndoubling: braiding of A x A passes Yang-Baxter:",
      check_yang_baxter(BraidedObject.from_c(RATIONALS, 4, dbl.c)).passed)

# In dimension 1 the exchange blocks c^{2,1} (against A) and c^{2,2} (of
# A x A) collapse to scalar powers.
blocks = BraidRepCache(scalar_braiding(RATIONALS, 3))
print("scalar q=3: exchange against the square is q^2 =", blocks.block(2, 1)[0, 0],
      ", braiding of the square is q^4 =", blocks.block(2, 2)[0, 0])

# The hypotheses are really checked: the identity is not a valid exchange
# for a non-commutative-style interaction.
try:
    bad = ProductAlgebraSpec(B.algebra, B.algebra,
                             {(i, j): ExactMatrix.identity(RATIONALS, 4)
                              for i in (1, 2) for j in (1, 2)})
    product_algebra(bad)
except SpecViolation as exc:
    print("\nidentity exchange rejected:", exc)
