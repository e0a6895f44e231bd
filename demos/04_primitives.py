"""Primitive elements and the braiding they inherit.

An element is primitive when its coproduct is x o 1 + 1 o x.  The primitive
space of the braided tensor bialgebra in degree n is the common kernel of
the interior coproduct blocks, computed as an exact canonical nullspace.
"""

from braidalg import (
    RATIONALS,
    build_truncated,
    prime_field,
    primitives,
    primitives_of_tensor,
    tensor_primitive_braiding,
    tensor_primitive_dims,
)
from braidalg.gallery import exterior_line, flip_braiding, group_algebra_z2, scalar_braiding

# For the flip on a 2-dim space the graded primitives are the free Lie
# algebra on two letters: dimensions 2, 1, 2, 3 (Witt numbers).
T = build_truncated(flip_braiding(RATIONALS, 2), 4)
print("flip d=2 primitive dimensions, degrees 1..4:", tensor_primitive_dims(T))
print("degree-2 primitive basis (the commutator e1 x e2 - e2 x e1):")
print("  ", primitives_of_tensor(T, 2).transpose().to_strings()[0])

# The ambient braiding restricts to the primitives: in degree (1,1) it is
# the flip again, on the 1-dim degree-2 space it is the scalar 1.
print("restricted braiding on degree-2 primitives:",
      tensor_primitive_braiding(T, 2, 2).to_strings())

# Mod 5 with q = 2: a new primitive appears exactly where all interior
# Gaussian binomials vanish, which happens first at degree 4.
T5 = build_truncated(scalar_braiding(prime_field(5), 2), 4)
print("\nq=2 over F_5 primitive dimensions:", tensor_primitive_dims(T5))

# Finite-dimensional examples: the exterior line has the single primitive x
# with inherited braiding -1; the group algebra of Z/2 has none.
space = primitives(exterior_line(RATIONALS))
print("\nexterior line: dim P =", space.dim,
      " inclusion =", space.inclusion.to_strings(),
      " braiding =", space.braiding.to_strings())
print("group algebra of Z/2: dim P =", primitives(group_algebra_z2(RATIONALS)).dim)
