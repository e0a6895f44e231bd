"""Unit/counit witnesses for the two free-construction adjunctions.

The free braided algebra on a braided object, and the braided tensor
bialgebra against the primitives functor: their triangle identities and the
coalgebra-map property of the counit extension are all plain matrix
identities here, checked degree by degree.
"""

from braidalg import (
    RATIONALS,
    ExactMatrix,
    build_adjunction_witness,
    build_truncated,
    check_triangles_T_Omega,
    check_triangles_Tbar_P,
    check_zeta_coalgebra,
    iterated_products,
    prime_field,
    primitives_of_tensor,
)
from braidalg.gallery import exterior_line, flip_braiding, group_algebra_z2

V = flip_braiding(RATIONALS, 2)
B = exterior_line(RATIONALS)

# The adjunction counit on an algebra acts in degree n as the n-fold
# product.  On the exterior line, degree 2 already hits x*x = 0.
two = iterated_products(B.algebra, 2)[2]
print("exterior line, 2-fold product of x with x:",
      [two[i, 3] for i in range(2)], "(the zero column)")

print("free/forgetful triangles at truncation 4:",
      all(check_triangles_T_Omega(bialg.algebra, 4)
          for bialg in (B, group_algebra_z2(RATIONALS))))

# The counit of the tensor-bialgebra/primitives adjunction extends the
# primitive inclusion as an algebra map; it must also be a coalgebra map.
# Its blocks, P(B) and T(P(B)) are built once, in one witness.
w = build_adjunction_witness(B, 4)
rep = check_zeta_coalgebra(w)
print("counit extension is a coalgebra map (exterior line):", rep.passed)
print("  same for the group algebra, vacuously (no primitives):",
      check_zeta_coalgebra(build_adjunction_witness(group_algebra_z2(RATIONALS), 4)).passed)

# Only the bialgebra side of the triangle can fail: on the free side the
# unit into the degree-1 primitives is the identity.
print("tensor/primitives triangles:", check_triangles_Tbar_P(w))
# The label below is kept as printed before; no braiding enters this check.
print("  over F_5 with q = 2:",
      check_triangles_Tbar_P(build_adjunction_witness(exterior_line(prime_field(5)), 4)))

# The units and the counit blocks; the unit into the primitives is the
# degree-1 inclusion ξ_1.
print("\nwitness: unit =", ExactMatrix.identity(RATIONALS, V.dim).to_strings(),
      " unit into primitives =", primitives_of_tensor(build_truncated(V, 3), 1).to_strings())
print("counit extension blocks, degrees 0..3:",
      {n: m.to_strings() for n, m in enumerate(w.zeta_blocks[:4])})
