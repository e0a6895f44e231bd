"""Exact-arithmetic toolkit for braided objects and braided bialgebras.

Everything is computed over the rationals or a prime field with zero
tolerance: Yang-Baxter verification, braided algebra/coalgebra/bialgebra
axiom suites, the truncated braided tensor bialgebra with its quantum
shuffle-type coproduct, primitive-element spaces, adjunction witnesses, and
structure transport along monoidal functors.
"""

from .adjunctions import (
    AdjunctionWitness,
    build_adjunction_witness,
    check_triangles_T_Omega,
    check_triangles_Tbar_P,
    check_zeta_coalgebra,
    iterated_products,
    primitive_counit_blocks,
)
from .braided import (
    AlgebraData,
    AxiomReport,
    BialgebraData,
    BraidedAlgebra,
    BraidedObject,
    CheckItem,
    ProductAlgebraSpec,
    check_algebra,
    check_braided_algebra,
    check_braided_bialgebra,
    check_braided_coalgebra,
    check_braided_morphism,
    check_coalgebra,
    check_yang_baxter,
    compare,
    double_braiding,
    product_algebra,
)
from .braidrep import (
    BraidRepCache,
    check_hexagon,
)
from .errors import (
    BadDegree,
    BadTruncation,
    BraidAlgError,
    FieldMismatch,
    LinearSolveError,
    NotAMorphism,
    NotClosedUnderBraiding,
    NotInvertible,
    ShapeError,
    SpecViolation,
    TruncationOverflow,
)
from .fields import RATIONALS, FieldSpec, prime_field
from .matrix import ExactMatrix, hstack, kron_power, whisker
from .primitives import (
    PrimitiveSpace,
    equalizer_matrix,
    induced_map,
    primitives,
    primitives_of_tensor,
    tensor_primitive_braiding,
    tensor_primitive_dims,
)
from .tensoralg import (
    TruncatedTensorBialgebra,
    build_truncated,
    check_truncated_axioms,
)
from .transport import (
    FunctorData,
    basis_change,
    check_J_compatibility,
    check_primfunct_square,
    check_twist_coherence,
    classical_unshuffle_blocks,
    compose_functors,
    direct_power_braiding,
    scalar_twist,
    transport_bialgebra,
    transport_braided_object,
)

__version__ = "0.1.0"
