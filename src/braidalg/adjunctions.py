"""Executable witnesses for the free/forgetful and primitives adjunctions.

No category-theoretic runtime objects: each natural transformation is a
family of matrices indexed by degree, evaluated on concrete objects.  What
the triangle identities quantify over all degrees is checked on all degrees
up to the truncation, which by gradedness is complete for those degrees.

The counit of T ⊣ Ω at an algebra ``A`` is read off ``A`` itself: its
degree-``n`` block is the ``n``-fold product, and the triangle check is
the multiplicativity of those blocks.

The counit side of T̄ ⊣ P on a bialgebra ``B`` is built once, by
``build_adjunction_witness``: the primitives ``P(B)``, the truncated tensor
bialgebra ``T(P(B))`` and the blocks ``ζ_n`` of the counit.  Every check of
that adjunction reads the witness.  Parts of the triangles that hold by
construction are not checked: the unit of either adjunction is an identity
under the Kronecker identification.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from .braided import AlgebraData, AxiomReport, BialgebraData, compare
from .errors import BadDegree, LinearSolveError
from .matrix import ExactMatrix, kron_power, whisker
from .primitives import PrimitiveSpace, primitives, primitives_of_tensor
from .tensoralg import TruncatedTensorBialgebra, build_truncated


def iterated_products(A: AlgebraData, N: int) -> list[ExactMatrix]:
    """The ``n``-fold multiplications ``A^{⊗n} -> A`` for ``n = 0..N``: the
    unit, the identity, then the left fold ``p[n] = m·(p[n-1] ⊗ 1)``."""
    folds = [A.u, ExactMatrix.identity(A.field, A.dim)]
    while len(folds) <= N:
        folds.append(A.m * whisker(1, folds[-1], A.dim))
    return folds[:N + 1]


def check_triangles_T_Omega(A: AlgebraData, N: int) -> bool:
    """Triangle identity of the free-algebra adjunction T ⊣ Ω at ``A``.

    The counit at ``A`` is the algebra map ``T(Ω A) -> A`` whose degree-``n``
    block is the ``n``-fold product ``p[n]``; it must be multiplicative,
    ``m·(p[a] ⊗ p[b]) = p[a+b]`` for ``a + b <= N``.  The items with
    ``a = 1`` are the right-fold recursion, so they also make the left fold
    agree with the right one.  On the free side the product is
    concatenation, an identity under the Kronecker identification, so that
    triangle holds by construction and is not checked.
    """
    if N < 2:
        raise BadDegree("need N >= 2 for a nontrivial triangle check")
    p = iterated_products(A, N)
    return all(A.m * p[a].kron(p[b]) == p[a + b]
               for a in range(N + 1) for b in range(N + 1 - a))


def primitive_counit_blocks(products: list[ExactMatrix],
                            inclusion: ExactMatrix) -> list[ExactMatrix]:
    """Degreewise blocks of the algebra map extending the primitive inclusion:
    degree ``n`` is the ``n``-fold product ``products[n]`` of included
    primitives."""
    return [p * kron_power(inclusion, n) for n, p in enumerate(products)]


@dataclass(frozen=True)
class AdjunctionWitness:
    """The counit side of T̄ ⊣ P on one bialgebra, truncated at degree ``N``."""

    bialgebra: BialgebraData
    space: PrimitiveSpace             # P(B), with its inclusion into B
    tensor: TruncatedTensorBialgebra  # T(P(B)) up to degree N
    zeta_blocks: list[ExactMatrix]    # ζ_n: P(B)^{⊗n} -> B for n = 0..N


def build_adjunction_witness(B: BialgebraData, N: int) -> AdjunctionWitness:
    """``P(B)``, ``T(P(B))`` and ``ζ_0..ζ_N``, built once; ``N >= 1``."""
    space = primitives(B, check=False)
    return AdjunctionWitness(
        bialgebra=B,
        space=space,
        tensor=build_truncated(space.braided_object(), N),
        zeta_blocks=primitive_counit_blocks(iterated_products(B.algebra, N), space.inclusion),
    )


def check_zeta_coalgebra(w: AdjunctionWitness) -> AxiomReport:
    """The extension of the primitive inclusion is a coalgebra map blockwise:
    it intertwines the coproducts, kills positive degrees under the counit,
    and the counit vanishes on the primitives themselves."""
    B, TP, z = w.bialgebra, w.tensor, w.zeta_blocks
    report = AxiomReport()
    report.add(compare(
        "counit_kills_primitives",
        B.eps * w.space.inclusion,
        ExactMatrix.zeros(B.field, 1, w.space.dim),
    ))
    for n, zn in enumerate(z):
        rhs = reduce(operator.add, (z[k].kron(z[n - k]) * TP.coproduct_block(k, n)
                                    for k in range(n + 1)))
        report.add(compare(f"comultiplicative[{n}]", B.delta * zn, rhs))
        report.add(compare(f"counital[{n}]", B.eps * zn, TP.counit_block(n)))
    return report


def check_triangles_Tbar_P(w: AdjunctionWitness) -> bool:
    """Triangle identity of the tensor-bialgebra/primitives adjunction on ``B``.

    In every degree ``n >= 2`` the counit ``ζ_n``, restricted to the
    primitives of ``T(P(B))``, must factor through the primitives of ``B``.
    Degrees 0 and 1, and the triangle on the free side, hold by
    construction: degree-1 elements are primitive, and the unit into the
    degree-1 primitives is the identity.
    """
    for n in range(2, w.tensor.N + 1):
        try:
            w.space.inclusion.solve(w.zeta_blocks[n] * primitives_of_tensor(w.tensor, n))
        except LinearSolveError:
            return False
    return True
