"""Primitive elements of braided bialgebras.

An element is primitive when its coproduct is ``x⊗1 + 1⊗x``.  The primitive
space is realized as an explicit inclusion matrix (the canonical kernel basis
of ``Δ - (1⊗u) - (u⊗1)``) rather than a quotient, because every downstream
formula composes with the inclusion.  The ambient braiding restricts to a
braiding of the primitive space; the restriction is solved exactly against
the injective matrix ``xi ⊗ xi``, so any residual is an error, never a
tolerance case.  The restriction is not checked again: ``(xi⊗xi) c_P =
c (xi⊗xi)`` with ``xi⊗xi`` injective carries the invertibility and the
Yang-Baxter equation of ``c`` over to ``c_P``.

The graded primitives of the truncated tensor bialgebra take one of three
cases per degree ``n``.  When the braiding is a symmetry (``c·c = 1``) and
``n`` is nonzero in the field, ``P_n`` is the image of the Dynkin–Specht–Wever
operator, spanned by the braided commutators of ``P_{n-1}`` with ``V``.  When
the braiding is the flip and the characteristic ``p`` divides ``n``, the
``p``-th powers of ``P_{n/p}`` join those commutators: the primitives are
the free restricted Lie algebra.  Otherwise ``P_n`` is the kernel of the
interior coproduct blocks, thinned by the primitives of lower degree; over Q
a zero kernel is first sought modulo a prime, where it is cheap and, when
found, exact.  Every case gives the canonical basis of ``column_basis``, so
they agree byte for byte and mix degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braided import BialgebraData, BraidedObject, braided_map, check_braided_bialgebra
from .errors import (
    BadDegree,
    LinearSolveError,
    NotAMorphism,
    NotClosedUnderBraiding,
    SpecViolation,
)
from .fields import prime_field
from .matrix import ExactMatrix, column_map, kron_power, row_basis, whisker
from .tensoralg import TruncatedTensorBialgebra


@dataclass(frozen=True)
class PrimitiveSpace:
    """Primitive subspace with its inclusion and the restricted braiding."""

    inclusion: ExactMatrix  # B.dim x dim, columns = canonical basis
    braiding: ExactMatrix   # dim^2 x dim^2

    @property
    def dim(self) -> int:
        return self.inclusion.cols

    def braided_object(self) -> BraidedObject:
        return BraidedObject(self.inclusion.field, self.dim, self.braiding)


def equalizer_matrix(B: BialgebraData) -> ExactMatrix:
    """``Δ - (x -> x⊗1) - (x -> 1⊗x)`` whose kernel is the primitive space."""
    return B.delta - whisker(B.dim, B.u, 1) - whisker(1, B.u, B.dim)


def restrict_braiding(c: ExactMatrix, xm: ExactMatrix, xn: ExactMatrix) -> ExactMatrix:
    """Solve ``(xn⊗xm) c_P = c (xm⊗xn)`` for the unique ``c_P``.

    ``xn ⊗ xm`` is injective, so the solution is unique when it exists; when
    it does not, the braiding does not preserve the subspaces.
    """
    try:
        return xn.kron(xm).solve(c * xm.kron(xn))
    except LinearSolveError as exc:
        raise NotClosedUnderBraiding(str(exc)) from exc


def primitives(B: BialgebraData, check: bool = True) -> PrimitiveSpace:
    """Primitive space of a braided bialgebra, with induced braiding.

    The input is verified against the full axiom suite first (set
    ``check=False`` to skip when the caller just did it).  Unchecked input
    that is not a braided bialgebra can give a restriction that is singular
    or fails Yang-Baxter, and raises ``NotClosedUnderBraiding`` when ``c``
    does not map ``P⊗P`` into itself.
    """
    if check:
        gate = check_braided_bialgebra(B)
        if not gate.passed:
            raise SpecViolation(f"not a braided bialgebra: {gate.failures()[0].name}")
    xi = equalizer_matrix(B).nullspace()
    return PrimitiveSpace(xi, restrict_braiding(B.c, xi, xi))


def check_bialgebra_morphism(f: ExactMatrix, B: BialgebraData, B2: BialgebraData) -> None:
    """Raise ``NotAMorphism`` naming the first failed condition."""
    if f.rows != B2.dim or f.cols != B.dim:
        raise NotAMorphism(f"shape {f.rows}x{f.cols}, expected {B2.dim}x{B.dim}")
    ff = f.kron(f)
    if f * B.m != B2.m * ff:
        raise NotAMorphism("not multiplicative")
    if f * B.u != B2.u:
        raise NotAMorphism("not unital")
    if B2.delta * f != ff * B.delta:
        raise NotAMorphism("not comultiplicative")
    if B2.eps * f != B.eps:
        raise NotAMorphism("not counital")
    lhs, rhs = braided_map(ff, B.c, B2.c)
    if lhs != rhs:
        raise NotAMorphism("not braided")


def induced_map(f: ExactMatrix, B: BialgebraData, B2: BialgebraData) -> ExactMatrix:
    """The restriction of a bialgebra morphism to primitive spaces.

    Solves ``xi' P(f) = f xi``.  A checked morphism is unital and
    comultiplicative, so ``Δ'(fx) = fx⊗1 + 1⊗fx`` for each primitive ``x``,
    and the solve has its one solution because ``xi'`` is injective.
    """
    check_bialgebra_morphism(f, B, B2)
    source = primitives(B, check=False).inclusion
    target = primitives(B2, check=False).inclusion
    return target.solve(f * source)


# -- graded primitives of the truncated tensor bialgebra ---------------------

# the prime of the zero-kernel certificate over Q, a Mersenne prime
_CERTIFICATE_FIELD = prime_field(2 ** 61 - 1)


def primitives_of_tensor(T: TruncatedTensorBialgebra, n: int) -> ExactMatrix:
    """Canonical basis of the degree-``n`` primitives, as columns in ``V^{⊗n}``.

    ``T.V.c`` must satisfy Yang-Baxter, so that ``T`` is coassociative; a
    query on ``T`` raises ``SpecViolation`` if it fails.  Each degree takes
    one of three cases, which give the same bytes: each puts its spanning
    set, or its kernel, in the canonical form of ``column_basis``.

    *Image route*, when ``c·c = 1`` on ``V⊗V`` and ``n`` is nonzero in the
    field.  For a symmetry the primitives hold the free c-Lie algebra on
    ``V`` (Gurevich), and the Dynkin–Specht–Wever operator
    ``θ_n = (1 - c^{n-1,1}) ∘ … ∘ ((1 - c^{1,1}) ⊗ 1^{⊗(n-2)})`` maps
    ``V^{⊗n}`` into ``P_n`` and acts on ``P_n`` as multiplication by ``n``,
    so ``P_n = im θ_n``.  Since ``θ_n = (1 - c^{n-1,1})(θ_{n-1} ⊗ 1)`` and
    the braided commutator ``[x, v] = (1 - c^{n-1,1})(x ⊗ v)`` of a
    primitive ``x`` with ``v`` in ``V`` is primitive for a symmetry,
    ``im θ_n ⊆ [P_{n-1}, V] ⊆ P_n = im θ_n``.  So the columns of
    ``(1 - c^{n-1,1})(ξ_{n-1} ⊗ 1_V)`` span ``P_n``, whichever case gave
    ``ξ_{n-1}``.  No coproduct block is read.

    *Restricted image route*, when ``c`` is the flip and the characteristic
    ``p`` divides ``n``.  Then ``T(V)`` is the restricted enveloping algebra
    of the free restricted Lie algebra on ``V``, and its primitives are that
    algebra (Jacobson; Milnor–Moore): the free Lie algebra ``L`` closed
    under ``x -> x^p``.  Commutators of primitives lie in ``L``, since
    ``[x^p, y] = ad(x)^p y``, and ``L_n = [L_{n-1}, V] ⊆ [P_{n-1}, V]``.  By
    Jacobson's formula ``(Σ λ_i b_i)^p = Σ λ_i^p b_i^p`` modulo such
    commutators, so ``P_n`` is spanned by ``[P_{n-1}, V]`` and the powers
    ``b^{⊗p}`` of the basis columns ``b`` of ``P_{n/p}``, the product being
    concatenation.  No coproduct block is read.

    *Kernel route*, otherwise.  The extreme coproduct blocks are identities
    and cancel against the two unit summands, so degree-``n`` primitivity is
    the vanishing of the interior blocks ``Δ_{k,n-k}``.  By coassociativity,
    once ``Δ_{i,n-i} x = 0`` for all ``i < k``, ``Δ_{k,n-k} x`` lies in
    ``P_k ⊗ V^{⊗(n-k)}``, and it vanishes iff its rows at the leading
    coordinates of the basis of ``P_k`` do.  Only those rows are stacked, so
    a block is read only when ``P_k ≠ 0``; by induction the kernel is the
    full stack's.  Over Q the kernel is first tried modulo a fixed prime
    (``_zero_kernel_mod_prime``): a zero kernel there proves it zero over
    Q, and anything else is decided by elimination over Q.
    """
    if not (1 <= n <= T.N):
        raise BadDegree(f"degree {n} outside 1..{T.N}")
    if not T.V.yang_baxter.passed:
        raise SpecViolation("the braiding fails yang_baxter, so T is not coassociative")
    return _tensor_primitives(T, n)[0]


def _tensor_primitives(T: TruncatedTensorBialgebra, n: int) -> tuple[ExactMatrix, ExactMatrix, tuple]:
    """``(ξ_n, rows, pivots)``, memoized on ``T``: the canonical primitive
    basis as columns, the same basis as rows (an RREF), and the pivot of
    each row, its first nonzero."""
    memo = T._primitive_memo
    if n not in memo:
        if _image_route(T, n):
            rows, pivots = row_basis(_spanning_rows(T, n))
            memo[n] = rows.transpose(), rows, pivots
        else:
            picked = []  # shared slices: the rows u ⊗ V^{⊗(n-k)} for each pivot u of ξ_k
            for k in range(1, n):
                pivots = _tensor_primitives(T, k)[2]
                if pivots:
                    block, right = T.coproduct_block(k, n).nonzeros, T.component_dim(n - k)
                    for u in pivots:
                        picked.extend(block[u * right:(u + 1) * right])
            stack = ExactMatrix._raw(T.field, picked, len(picked), T.component_dim(n))
            if _zero_kernel_mod_prime(stack):
                xi = ExactMatrix.zeros(T.field, stack.cols, 0)
            else:
                xi = stack.nullspace()
            rows = xi.transpose()
            memo[n] = xi, rows, tuple(min(row) for row in rows.nonzeros)
    return memo[n]


def _image_route(T: TruncatedTensorBialgebra, n: int) -> bool:
    """Whether ``P_n`` is spanned by ``_spanning_rows``: the braiding is a
    symmetry, and ``n`` is nonzero in the field or the braiding is the flip."""
    p = T.field.p
    return T.symmetric and (p is None or n % p != 0 or T.flip)


def _spanning_rows(T: TruncatedTensorBialgebra, n: int) -> ExactMatrix:
    """Rows spanning ``P_n`` on the image route: the braided commutators
    ``[P_{n-1}, V]``, then the ``p``-th powers; the identity in degree 1."""
    if n == 1:
        return ExactMatrix.identity(T.field, T.V.dim)
    rows = [*_commutator_rows(T, n), *_pth_powers(T, n)]
    return ExactMatrix._raw(T.field, rows, len(rows), T.component_dim(n))


def _commutator_rows(T: TruncatedTensorBialgebra, n: int) -> list[dict]:
    """The rows ``[x, v] = x⊗v - c^{n-1,1}(x⊗v)`` for each basis row ``x``
    of ``P_{n-1}`` and each letter ``v``, in that order: the columns of
    ``(1 - c^{n-1,1})(ξ_{n-1} ⊗ 1_V)``.

    When the exchange block keeps a column map, it sends ``e_{cols[r]}`` to
    ``vals[r]·e_r``, and no column repeats, since the block of a symmetry is
    invertible; so each row is one pass over ``x``: input key ``i`` lands in
    row ``inverse[i]``.  A block without a map (a dense conjugate of a
    symmetry) goes through the formula.
    """
    d = T.V.dim
    xi, basis, _ = _tensor_primitives(T, n - 1)
    block = T.braid.block(n - 1, 1)
    cmap = column_map(block)
    if not cmap:
        lifted = whisker(1, xi, d)
        return list((lifted - block * lifted).transpose().nonzeros)
    cols, vals, _ = cmap
    inverse = [0] * len(cols)
    for r, i in enumerate(cols):
        inverse[i] = r
    p, norm = T.field.p, T.field.normalize
    out = []
    for x in basis.nonzeros:
        for v in range(d):
            row = {i * d + v: a for i, a in x.items()}
            for i, a in x.items():
                r = inverse[i * d + v]
                y = row.get(r, 0) - (a if vals is None else vals[r] * a)
                if y := y % p if p else norm(y):
                    row[r] = y
                else:
                    del row[r]
            out.append(row)
    return out


def _pth_powers(T: TruncatedTensorBialgebra, n: int) -> list[dict]:
    """The rows ``b^{⊗p}``, one for each basis row ``b`` of ``P_{n/p}``,
    when the characteristic ``p`` divides ``n``; none otherwise."""
    p = T.field.p
    if p is None or n % p:
        return []
    basis = _tensor_primitives(T, n // p)[1]
    return [kron_power(ExactMatrix._raw(T.field, [b], 1, basis.cols), p).nonzeros[0]
            for b in basis.nonzeros]


def _zero_kernel_mod_prime(stack: ExactMatrix) -> bool:
    """Whether ``stack``, over Q, has full column rank modulo the fixed
    prime ``2^61 - 1``.  A rank mod ``p`` is at most the rank over Q, so a
    zero kernel mod ``p`` proves the kernel over Q zero.  False over F_p,
    for a stack with fewer rows than columns, and when ``p`` divides a
    denominator; a kernel nonzero mod ``p`` may still be zero over Q, so
    False there too, and only the elimination over Q can decide.  Each cell
    is reduced inline: ``x % p`` for an ``int``, ``num·den⁻¹ mod p`` for a
    ``Fraction``.
    """
    if stack.field.p is not None or stack.rows < stack.cols:
        return False
    p = _CERTIFICATE_FIELD.p
    if any(type(x) is not int and x.denominator % p == 0 for row in stack.nonzeros for x in row.values()):
        return False
    reduced = ({j: y for j, x in row.items()
                if (y := x % p if type(x) is int else x.numerator * pow(x.denominator, -1, p) % p)}
               for row in stack.nonzeros)
    return ExactMatrix._raw(_CERTIFICATE_FIELD, reduced, stack.rows, stack.cols).rank() == stack.cols


def tensor_primitive_dims(T: TruncatedTensorBialgebra) -> list[int]:
    """Dimensions of the primitive components in degrees ``1..N``."""
    return [primitives_of_tensor(T, n).cols for n in range(1, T.N + 1)]


def tensor_primitive_braiding(T: TruncatedTensorBialgebra, m: int, n: int) -> ExactMatrix:
    """Restriction of the degree-``(m, n)`` braiding block to primitives."""
    return restrict_braiding(T.braiding_block(m, n), primitives_of_tensor(T, m),
                             primitives_of_tensor(T, n))
