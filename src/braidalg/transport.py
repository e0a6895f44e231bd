"""Transport of braided structures along monoidal functors, and the
embeddings of a symmetric base category into the braided world.

Two concrete functor families cover the two interesting behaviours:

* ``BasisChange``: an invertible matrix ``g`` on the underlying space, with
  the coherence choice ``g_{U⊗V} = g_U ⊗ g_V`` so the comparison maps are
  identities and transport is plain conjugation;
* ``ScalarTwist``: the identity functor with comparison maps ``λ·id`` and
  ``λ^{-1}·id``, which exercises the comparison-map bookkeeping with a
  nontrivial value.

The base-category braidings are the two standard symmetries on a space with
a chosen basis: the flip, and the parity-signed flip.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braided import (
    AxiomReport,
    BialgebraData,
    BraidedObject,
    CheckItem,
    check_braided_bialgebra,
    compare,
)
from .errors import InternalInconsistency, LinearSolveError, NotInvertible, ShapeError
from .fields import FieldSpec
from .matrix import ExactMatrix, stack_rows
from .primitives import primitives, primitives_of_tensor
from .tensoralg import build_truncated

BASIS_CHANGE = "basis_change"
SCALAR_TWIST = "scalar_twist"


@dataclass(frozen=True)
class FunctorData:
    """A monoidal endofunctor of based vector spaces, of one of two kinds."""

    kind: str
    field: FieldSpec
    g: ExactMatrix | None = None
    g_inv: ExactMatrix | None = None
    scale: object | None = None  # nonzero scalar for the twist


def basis_change(g: ExactMatrix) -> FunctorData:
    try:
        g_inv = g.inverse()
    except NotInvertible as exc:
        raise NotInvertible(f"basis change must be invertible: {exc}") from exc
    return FunctorData(BASIS_CHANGE, g.field, g=g, g_inv=g_inv)


def scalar_twist(field: FieldSpec, scale) -> FunctorData:
    scale = field.element(scale)
    if scale == field.zero:
        raise NotInvertible("twist scalar must be nonzero")
    return FunctorData(SCALAR_TWIST, field, scale=scale)


def compose_functors(second: FunctorData, first: FunctorData) -> FunctorData:
    """Composite functor; matrices compose, twist scalars multiply."""
    if second.kind != first.kind:
        raise ShapeError("can only compose functors of the same kind")
    if first.kind == BASIS_CHANGE:
        return basis_change(second.g * first.g)
    return scalar_twist(first.field, first.field.mul(second.scale, first.scale))


def check_twist_coherence(F: FunctorData, dims: tuple[int, ...] = (1, 2, 3)) -> AxiomReport:
    """The comparison-map coherence conditions for a scalar twist, evaluated
    on representative dimensions (they are dimension-independent scalars)."""
    report = AxiomReport()
    f = F.field
    lam = F.scale
    lam_inv = f.inv(lam)
    for dU in dims:
        for dV in dims:
            for dW in dims:
                lhs = f.mul(lam, lam)  # phi2(U⊗V, W) ∘ (phi2(U,V) ⊗ id)
                rhs = f.mul(lam, lam)  # phi2(U, V⊗W) ∘ (id ⊗ phi2(V,W))
                report.add(CheckItem(f"hexagon[{dU},{dV},{dW}]", lhs == rhs))
    # unit conditions: F(l)∘phi2(1,U)∘(phi0⊗FU) = l and the right analogue
    report.add(CheckItem("unit_left", f.mul(lam, lam_inv) == f.one))
    report.add(CheckItem("unit_right", f.mul(lam, lam_inv) == f.one))
    return report


def _conjugate_pair(F: FunctorData, dim: int) -> tuple[ExactMatrix, ExactMatrix]:
    """(gg, gg_inv) with gg the induced map on the square tensor power."""
    gg = F.g.kron(F.g)
    return gg, F.g_inv.kron(F.g_inv)


def transport_braided_object(F: FunctorData, V: BraidedObject) -> BraidedObject:
    """Conjugate the braiding by the functor's comparison data."""
    if F.kind == SCALAR_TWIST:
        return V  # central conjugation: λ^{-1} c λ = c
    if F.g.rows != V.dim:
        raise ShapeError(f"basis change is {F.g.rows}x{F.g.cols}, object has dim {V.dim}")
    gg, gg_inv = _conjugate_pair(F, V.dim)
    return BraidedObject.from_c(V.field, V.dim, gg * V.c * gg_inv)


def transport_bialgebra(F: FunctorData, B: BialgebraData, check: bool = True) -> BialgebraData:
    """Transport all five structure maps; the result is verified against the
    full axiom suite rather than trusted."""
    if F.kind == SCALAR_TWIST:
        f = F.field
        lam = F.scale
        lam_inv = f.inv(lam)
        out = BialgebraData(
            B.field, B.dim,
            m=B.m.scale(lam),
            u=B.u.scale(lam_inv),
            delta=B.delta.scale(lam_inv),
            eps=B.eps.scale(lam),
            c=B.c,
        )
    else:
        if F.g.rows != B.dim:
            raise ShapeError(f"basis change is {F.g.rows}x{F.g.cols}, bialgebra has dim {B.dim}")
        gg, gg_inv = _conjugate_pair(F, B.dim)
        out = BialgebraData(
            B.field, B.dim,
            m=F.g * B.m * gg_inv,
            u=F.g * B.u,
            delta=gg * B.delta * F.g_inv,
            eps=B.eps * F.g_inv,
            c=gg * B.c * gg_inv,
        )
    if check:
        rep = check_braided_bialgebra(out)
        if not rep.passed:
            raise InternalInconsistency(
                f"transported structure fails {rep.failures()[0].name}"
            )
    return out


def check_primfunct_square(F: FunctorData, B: BialgebraData) -> bool:
    """Primitives of the transport against transport of the primitives:
    equal dimensions, equal column spaces of the two inclusions, and
    braidings conjugate under the induced change of basis."""
    P = primitives(B, check=False)
    B2 = transport_bialgebra(F, B, check=False)
    P2 = primitives(B2, check=False)
    if P.dim != P2.dim:
        return False
    if P.dim == 0:
        return True
    moved = P.inclusion if F.kind == SCALAR_TWIST else F.g * P.inclusion
    try:
        t = P2.inclusion.solve(moved)  # xi' t = F(xi)
    except LinearSolveError:
        return False
    try:
        t.inverse()
    except NotInvertible:
        return False
    tt = t.kron(t)
    return P2.braiding * tt == tt * P.braiding


# -- symmetric base braidings -------------------------------------------------

FLIP = "flip"
SUPER = "super"


@dataclass(frozen=True)
class BaseBraiding:
    """A symmetry of the whole base category: flip, or parity-signed flip."""

    kind: str
    grading: tuple[int, ...] | None = None  # parities, super only

    def sign(self, parity_a: int, parity_b: int):
        if self.kind == SUPER and parity_a % 2 == 1 and parity_b % 2 == 1:
            return -1
        return 1


def _parities(base: BaseBraiding, dim: int) -> list[int]:
    if base.kind == FLIP:
        return [0] * dim
    if base.grading is None or len(base.grading) != dim:
        raise ShapeError(f"grading of length {dim} required, got {base.grading!r}")
    return [p % 2 for p in base.grading]


def J_braiding(base: BaseBraiding, dim: int, field: FieldSpec) -> BraidedObject:
    """The braided object carried by the base symmetry on a ``dim``-space."""
    par = _parities(base, dim)
    rows = [{} for _ in range(dim * dim)]
    for i in range(dim):
        for j in range(dim):
            rows[j * dim + i][i * dim + j] = field.element(base.sign(par[i], par[j]))
    c = ExactMatrix._raw(field, rows, dim * dim, dim * dim)
    return BraidedObject.from_c(field, dim, c)


def direct_power_braiding(base: BaseBraiding, dim: int, field: FieldSpec,
                          m: int, n: int) -> ExactMatrix:
    """The base symmetry evaluated directly on ``V^{⊗m} ⊗ V^{⊗n}``: the
    (signed) block transposition, computed without any recursion."""
    par = _parities(base, dim)
    size = dim ** (m + n)
    out = [None] * size
    for I in range(dim ** m):
        pI = _tensor_parity(I, m, dim, par)
        for J in range(dim ** n):
            pJ = _tensor_parity(J, n, dim, par)
            sign = -1 if (base.kind == SUPER and pI == 1 and pJ == 1) else 1
            out[J * (dim ** m) + I] = {I * (dim ** n) + J: field.element(sign)}
    return ExactMatrix._raw(field, out, size, size)


def _tensor_parity(flat: int, length: int, dim: int, par: list[int]) -> int:
    total = 0
    for _ in range(length):
        flat, digit = divmod(flat, dim)
        total += par[digit]
    return total % 2


def _digits(flat: int, length: int, dim: int) -> list[int]:
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        flat, out[pos] = divmod(flat, dim)
    return out


def classical_unshuffle_block(base: BaseBraiding, dim: int, field: FieldSpec,
                              k: int, n: int) -> ExactMatrix:
    """The ``(k, n-k)`` coproduct block of the tensor bialgebra over a
    symmetric base, computed as the classical signed unshuffle sum.

    Independent of the braided recursion: for every basis tensor and every
    ``k``-subset of positions, the moved-to-front subtensor picks up one sign
    factor per inversion of an odd pair.
    """
    from itertools import combinations

    size = dim ** n
    out = [{} for _ in range(size)]
    par = _parities(base, dim)
    for col in range(size):
        digits = _digits(col, n, dim)
        for subset in combinations(range(n), k):
            in_subset = [False] * n
            for s in subset:
                in_subset[s] = True
            front = [digits[s] for s in subset]
            back = [digits[t] for t in range(n) if not in_subset[t]]
            sign = 1
            if base.kind == SUPER:
                for b in subset:
                    for a in range(b):
                        if not in_subset[a] and par[digits[a]] == 1 and par[digits[b]] == 1:
                            sign = -sign
            row = 0
            for digit in front + back:
                row = row * dim + digit
            out[row][col] = out[row].get(col, 0) + sign
    # super signs can cancel, and a sum can vanish mod p
    cells = ({c: y for c, x in row.items() if (y := field.element(x))} for row in out)
    return ExactMatrix._raw(field, cells, size, size)


def check_J_compatibility(base: BaseBraiding, dim: int, N: int,
                          field: FieldSpec,
                          V: BraidedObject | None = None) -> AxiomReport:
    """Consistency of the braided constructions with the base symmetry:

    * every exchange-operator block equals the direct block transposition;
    * every coproduct block equals the classical signed unshuffle sum, and
      the degreewise primitive inclusions computed from either description
      coincide.

    ``V`` overrides the object built from ``base``; a non-symmetric braiding
    fed in this way is rejected by the squared-braiding gate before any
    further checks run.
    """
    if V is None:
        V = J_braiding(base, dim, field)
    sq = V.c * V.c
    report = AxiomReport()
    report.add(compare("symmetry", sq, ExactMatrix.identity(field, dim * dim)))
    if not report.passed:
        return report
    T = build_truncated(V, N)
    for m in range(N + 1):
        for n in range(N + 1 - m):
            report.add(compare(
                f"block_transposition[{m},{n}]",
                T.braiding_block(m, n),
                direct_power_braiding(base, dim, field, m, n),
            ))
    for n in range(1, N + 1):
        for k in range(n + 1):
            report.add(compare(
                f"unshuffle[{k},{n}]",
                T.coproduct_block(k, n),
                classical_unshuffle_block(base, dim, field, k, n),
            ))
    for n in range(1, N + 1):
        braided_xi = primitives_of_tensor(T, n)
        plain = [classical_unshuffle_block(base, dim, field, k, n) for k in range(1, n)]
        plain_xi = stack_rows(plain, field, dim ** n).nullspace()
        report.add(compare(f"primitive_inclusion[{n}]", braided_xi, plain_xi))
    return report
