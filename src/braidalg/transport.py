"""Transport of braided structures along monoidal functors, and the
embeddings of a symmetric base category into the braided world.

Two concrete functor families cover the two interesting behaviours:

* ``BasisChange``: an invertible matrix ``g`` on the underlying space, with
  the coherence choice ``g_{U⊗V} = g_U ⊗ g_V`` so the comparison maps are
  identities and transport is plain conjugation;
* ``ScalarTwist``: the identity functor with comparison maps ``λ·id`` and
  ``λ^{-1}·id``, which exercises the comparison-map bookkeeping with a
  nontrivial value.

A base-category braiding is diagonal, ``e_i ⊗ e_j -> q_ij e_j ⊗ e_i`` for a
square grid ``q`` of nonzero scalars: the flip is the all-ones grid, and the
parity-signed flip puts ``-1`` where both indices are odd.  When the grid is
a symmetry, ``check_J_compatibility`` compares the braided tensor bialgebra
with the direct block transpositions and quantum unshuffles of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

from .braided import (
    AxiomReport,
    BialgebraData,
    BraidedObject,
    CheckItem,
    braided_map,
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


def check_twist_coherence(F: FunctorData) -> AxiomReport:
    """The comparison-map coherence conditions for a scalar twist, evaluated
    on representative dimensions (they are dimension-independent scalars)."""
    report = AxiomReport()
    f = F.field
    lam = F.scale
    lam_inv = f.inv(lam)
    for dU in (1, 2, 3):
        for dV in (1, 2, 3):
            for dW in (1, 2, 3):
                lhs = f.mul(lam, lam)  # phi2(U⊗V, W) ∘ (phi2(U,V) ⊗ id)
                rhs = f.mul(lam, lam)  # phi2(U, V⊗W) ∘ (id ⊗ phi2(V,W))
                report.add(CheckItem(f"hexagon[{dU},{dV},{dW}]", lhs == rhs))
    # unit conditions: F(l)∘phi2(1,U)∘(phi0⊗FU) = l and the right analogue
    report.add(CheckItem("unit_left", f.mul(lam, lam_inv) == f.one))
    report.add(CheckItem("unit_right", f.mul(lam, lam_inv) == f.one))
    return report


def _conjugate_pair(F: FunctorData) -> tuple[ExactMatrix, ExactMatrix]:
    """(gg, gg_inv) with gg the induced map on the square tensor power."""
    gg = F.g.kron(F.g)
    return gg, F.g_inv.kron(F.g_inv)


def transport_braided_object(F: FunctorData, V: BraidedObject) -> BraidedObject:
    """Conjugate the braiding by the functor's comparison data."""
    if F.kind == SCALAR_TWIST:
        return V  # central conjugation: λ^{-1} c λ = c
    if F.g.rows != V.dim:
        raise ShapeError(f"basis change is {F.g.rows}x{F.g.cols}, object has dim {V.dim}")
    gg, gg_inv = _conjugate_pair(F)
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
        gg, gg_inv = _conjugate_pair(F)
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
    lhs, rhs = braided_map(t.kron(t), P.braiding, P2.braiding)
    return lhs == rhs


# -- diagonal base braidings -------------------------------------------------


def _grid(field: FieldSpec, q) -> list[list]:
    """``q`` as a square grid of nonzero canonical scalars."""
    grid = [[field.element(x) for x in row] for row in q]
    if any(len(row) != len(grid) for row in grid):
        raise ShapeError("coefficient grid must be square")
    if any(x == field.zero for row in grid for x in row):
        raise NotInvertible("twist coefficients must be nonzero")
    return grid


def direct_power_braiding(field: FieldSpec, q, m: int, n: int) -> ExactMatrix:
    """The diagonal braiding of the grid ``q`` evaluated directly on
    ``V^{⊗m} ⊗ V^{⊗n}``: ``e_I ⊗ e_J -> (Π_{a∈I, b∈J} q_ab) e_J ⊗ e_I``,
    computed without any recursion."""
    q = _grid(field, q)
    dim = len(q)
    size = dim ** (m + n)
    out = [None] * size
    for I in range(dim ** m):
        front = _digits(I, m, dim)
        weight = [prod(q[a][b] for a in front) for b in range(dim)]  # Π_{a∈I} q_ab
        for J in range(dim ** n):
            coeff = prod(weight[b] for b in _digits(J, n, dim))
            out[J * (dim ** m) + I] = {I * (dim ** n) + J: field.element(coeff)}
    return ExactMatrix._raw(field, out, size, size)


def _digits(flat: int, length: int, dim: int) -> list[int]:
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        flat, out[pos] = divmod(flat, dim)
    return out


def classical_unshuffle_block(field: FieldSpec, q, k: int, n: int) -> ExactMatrix:
    """The ``(k, n-k)`` coproduct block of the tensor bialgebra of the
    diagonal braiding ``q``, computed as the quantum unshuffle sum (Rosso,
    *Invent. Math.* 133, 1998).

    Independent of the braided recursion: for every basis tensor and every
    ``k``-subset of positions moved to the front, the term picks up
    ``q_{digit(a), digit(b)}`` for each back position ``a`` that comes
    before a front position ``b``.
    """
    q = _grid(field, q)
    dim = len(q)
    size = dim ** n
    out = [{} for _ in range(size)]
    for col in range(size):
        digits = _digits(col, n, dim)
        for front in combinations(range(n), k):
            back = [a for a in range(n) if a not in front]
            coeff = prod(q[digits[a]][digits[b]] for b in front for a in back if a < b)
            row = 0
            for pos in (*front, *back):
                row = row * dim + digits[pos]
            out[row][col] = out[row].get(col, 0) + coeff
    # terms can cancel, and a sum can vanish mod p
    cells = ({c: y for c, x in row.items() if (y := field.element(x))} for row in out)
    return ExactMatrix._raw(field, cells, size, size)


def check_J_compatibility(field: FieldSpec, q, N: int) -> AxiomReport:
    """Consistency of the braided constructions with the diagonal braiding
    of the grid ``q`` as a symmetry of the base category:

    * the braiding squares to the identity; a grid with some
      ``q_ij q_ji != 1`` fails this gate and no further check runs;
    * every exchange-operator block equals the direct block transposition;
    * every coproduct block equals the quantum unshuffle sum, and the
      degreewise primitive inclusions of ``primitives_of_tensor`` equal the
      kernels of the full stacks of interior unshuffle blocks: a different
      elimination route, since the former stacks fewer rows.
    """
    dim = len(q)
    V = BraidedObject.from_c(field, dim, direct_power_braiding(field, q, 1, 1))
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
                direct_power_braiding(field, q, m, n),
            ))
    classical = {n: [classical_unshuffle_block(field, q, k, n) for k in range(n + 1)]
                 for n in range(1, N + 1)}
    for n, blocks in classical.items():
        for k, block in enumerate(blocks):
            report.add(compare(f"unshuffle[{k},{n}]", T.coproduct_block(k, n), block))
    for n, blocks in classical.items():
        braided_xi = primitives_of_tensor(T, n)
        plain_xi = stack_rows(blocks[1:n], field, dim ** n).nullspace()
        report.add(compare(f"primitive_inclusion[{n}]", braided_xi, plain_xi))
    return report
