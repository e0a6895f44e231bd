"""Moving structures along monoidal functors, and symmetric base categories.

A change of basis conjugates every structure map; a scalar twist rescales
product against coproduct.  Both preserve all the axioms and all primitive
data, which is checked rather than assumed.
"""

import random

from braidalg import (
    ExactMatrix,
    NotInvertible,
    RATIONALS,
    basis_change,
    check_J_compatibility,
    check_braided_bialgebra,
    check_primfunct_square,
    prime_field,
    primitives,
    scalar_twist,
    transport_bialgebra,
)
from braidalg.gallery import exterior_line, parity_grid

F5 = prime_field(5)

# Mix the unit into the generator: an isomorphic but entrywise different
# braided bialgebra.
B = exterior_line(RATIONALS)
F = basis_change(ExactMatrix(RATIONALS, [[1, 0], [1, 1]]))
moved = transport_bialgebra(F, B)
print("transported product matrix:")
for row in moved.m.to_strings():
    print("  ", row)
print("axiom suite on the transport:", check_braided_bialgebra(moved).passed)
print("primitive square commutes:", check_primfunct_square(F, B))
print("primitive dim before/after:",
      primitives(B).dim, "/", primitives(moved).dim)

# A scalar twist trades product for coproduct.
tw = scalar_twist(RATIONALS, 2, B.dim)
twisted = transport_bialgebra(tw, B)
print("\ntwist by 2: product doubled:", twisted.m == B.m.scale(2),
      " coproduct halved:", twisted.delta == B.delta.scale("1/2"))

# Twenty random changes of basis over F_5.
rng = random.Random(0)
B5 = exterior_line(F5)
count = ok = 0
while count < 20:
    g = ExactMatrix(F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
    try:
        Fr = basis_change(g)
    except NotInvertible:
        continue
    count += 1
    ok += check_primfunct_square(Fr, B5)
print("\nrandom changes of basis over F_5 passing the primitive square:", ok, "/", count)

# Base-category symmetries: the braided machinery must reproduce the plain
# signed block permutations and classical unshuffles.
rep = check_J_compatibility(RATIONALS, parity_grid((0, 1)), 4)
print("\nsigned-swap base compatibility at truncation 4:", rep.passed,
      f"({len(rep.items)} identities)")
