"""Executable witnesses for the free/forgetful and primitives adjunctions.

No category-theoretic runtime objects: each natural transformation is a
family of matrices indexed by degree, evaluated on concrete objects.  What
the triangle identities quantify over all degrees is checked on all degrees
up to the truncation, which by gradedness is complete for those degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braided import AlgebraData, AxiomReport, BialgebraData, BraidedObject, compare
from .errors import BadDegree, LinearSolveError, NoFactorization
from .matrix import ExactMatrix, kron_power, whisker
from .primitives import PrimitiveSpace, primitives, primitives_of_tensor
from .tensoralg import TruncatedTensorBialgebra, build_truncated


def iterated_product(A: AlgebraData, n: int) -> ExactMatrix:
    """The ``n``-fold multiplication ``A^{⊗n} -> A``: the unit at ``n = 0``,
    the identity at ``n = 1``, then a left fold of the product."""
    if n == 0:
        return A.u
    if n == 1:
        return ExactMatrix.identity(A.field, A.dim)
    return A.m * whisker(1, iterated_product(A, n - 1), A.dim)


def iterated_product_rightfold(A: AlgebraData, n: int) -> ExactMatrix:
    """Independent right-fold version, used to cross-check the left fold."""
    if n == 0:
        return A.u
    if n == 1:
        return ExactMatrix.identity(A.field, A.dim)
    return A.m * whisker(A.dim, iterated_product_rightfold(A, n - 1), 1)


def check_triangles_T_Omega(V: BraidedObject, N: int,
                            algebras: tuple[AlgebraData, ...] = ()) -> bool:
    """Triangle identities of the free-algebra adjunction, blockwise.

    The counit blocks are the iterated products of each algebra; the left
    and right folds must agree and the blocks must be multiplicative, which
    is the algebra-morphism property of the counit.  On the free side the
    product is concatenation, an identity under the Kronecker
    identification, so that triangle holds by construction and is not
    checked.  ``V`` supplies the field of the default algebras.
    """
    if N < 2:
        raise BadDegree("need N >= 2 for a nontrivial triangle check")
    if not algebras:
        from .gallery import exterior_line, group_algebra_z2

        algebras = (exterior_line(V.field).algebra, group_algebra_z2(V.field).algebra)
    for A in algebras:
        for n in range(N + 1):
            if iterated_product(A, n) != iterated_product_rightfold(A, n):
                return False
        for a in range(N + 1):
            for b in range(N + 1 - a):
                lhs = A.m * iterated_product(A, a).kron(iterated_product(A, b))
                if lhs != iterated_product(A, a + b):
                    return False
    return True


def primitive_unit(T: TruncatedTensorBialgebra) -> ExactMatrix:
    """Factorization of the degree-1 injection through the degree-1
    primitives; exists because degree-1 elements are always primitive."""
    xi1 = primitives_of_tensor(T, 1)
    try:
        return xi1.solve(ExactMatrix.identity(T.field, T.V.dim))
    except LinearSolveError as exc:  # cannot happen for a well-built T
        raise NoFactorization(str(exc)) from exc


def primitive_counit_blocks(B: BialgebraData, N: int,
                            space: PrimitiveSpace | None = None) -> dict[int, ExactMatrix]:
    """Degreewise blocks of the algebra map extending the primitive inclusion:
    degree ``n`` is the ``n``-fold product of included primitives."""
    if space is None:
        space = primitives(B, check=False)
    return {
        n: iterated_product(B.algebra, n) * kron_power(space.inclusion, n)
        for n in range(N + 1)
    }


def check_zeta_coalgebra(B: BialgebraData, N: int,
                         space: PrimitiveSpace | None = None) -> AxiomReport:
    """The extension of the primitive inclusion is a coalgebra map blockwise:
    it intertwines the coproducts, kills positive degrees under the counit,
    and the counit vanishes on the primitives themselves."""
    if space is None:
        space = primitives(B, check=False)
    TP = build_truncated(space.braided_object(), N) if N >= 1 else None
    z = primitive_counit_blocks(B, N, space)
    report = AxiomReport()
    report.add(compare(
        "counit_kills_primitives",
        B.eps * space.inclusion,
        ExactMatrix.zeros(B.field, 1, space.dim),
    ))
    for n in range(N + 1):
        lhs = B.delta * z[n]
        rhs = ExactMatrix.zeros(B.field, B.dim * B.dim, space.dim ** n)
        for k in range(n + 1):
            block = TP.coproduct_block(k, n) if n >= 1 else ExactMatrix.identity(B.field, 1)
            rhs = rhs + z[k].kron(z[n - k]) * block
        report.add(compare(f"comultiplicative[{n}]", lhs, rhs))
        expected_counit = (
            ExactMatrix.identity(B.field, 1) if n == 0
            else ExactMatrix.zeros(B.field, 1, space.dim ** n)
        )
        report.add(compare(f"counital[{n}]", B.eps * z[n], expected_counit))
    return report


def check_triangles_Tbar_P(V: BraidedObject, B: BialgebraData, N: int) -> bool:
    """Triangle identities of the tensor-bialgebra/primitives adjunction.

    First triangle, on ``B``: the counit restricted to primitives, composed
    with the unit into the degree-1 primitives, is the identity of ``P(B)``;
    along the way every degreewise restriction of the counit must factor
    through the primitives of ``B``.  Second triangle, on ``V``: blockwise
    on every degree of the truncated tensor bialgebra.
    """
    T = build_truncated(V, N)
    xi1 = primitives_of_tensor(T, 1)
    eta_bar = primitive_unit(T)
    embed = xi1 * eta_bar
    for n in range(N + 1):
        if kron_power(embed, n) != ExactMatrix.identity(V.field, V.dim ** n):
            return False

    space = primitives(B, check=False)
    z = primitive_counit_blocks(B, N, space)
    if N >= 1:
        TP = build_truncated(space.braided_object(), N)
        restricted = {}
        for n in range(1, N + 1):
            incl = primitives_of_tensor(TP, n)
            try:
                restricted[n] = space.inclusion.solve(z[n] * incl)
            except LinearSolveError:
                return False
        q1 = primitives_of_tensor(TP, 1)
        try:
            eta_bar_p = q1.solve(ExactMatrix.identity(B.field, space.dim))
        except LinearSolveError:
            return False
        if restricted[1] * eta_bar_p != ExactMatrix.identity(B.field, space.dim):
            return False
    return True


@dataclass(frozen=True)
class AdjunctionWitness:
    """All unit/counit data for one braided object and one bialgebra."""

    eta: ExactMatrix                       # degree-1 injection of V
    counit_blocks: dict[int, ExactMatrix]  # iterated products of the bialgebra
    eta_bar: ExactMatrix                   # V into the degree-1 primitives
    zeta_blocks: dict[int, ExactMatrix]    # algebra extension of the inclusion


def build_adjunction_witness(V: BraidedObject, B: BialgebraData, N: int) -> AdjunctionWitness:
    T = build_truncated(V, N)
    space = primitives(B, check=False)
    return AdjunctionWitness(
        eta=ExactMatrix.identity(V.field, V.dim),
        counit_blocks={n: iterated_product(B.algebra, n) for n in range(N + 1)},
        eta_bar=primitive_unit(T),
        zeta_blocks=primitive_counit_blocks(B, N, space),
    )
