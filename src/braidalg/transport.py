"""Transport of braided structures along strong monoidal functors, and the
embeddings of a symmetric base category into the braided world.

A functor is one datum ``(g, λ)``: an invertible matrix ``g`` on the
underlying space, acting on tensor powers by ``g_{U⊗V} = g_U ⊗ g_V``, and a
nonzero scalar ``λ`` whose comparison maps are ``λ·id: FU ⊗ FV -> F(U⊗V)``
and ``λ^{-1}·id: 1 -> F1``.  A braiding moves by conjugation with ``g ⊗ g``,
since the scalars cancel; products and counits pick up ``λ``, units and
coproducts ``λ^{-1}``.  A change of basis is ``(g, 1)``, a scalar twist is
``(1, λ)``, and any two functors on one dimension compose.

A base-category braiding is diagonal, ``e_i ⊗ e_j -> q_ij e_j ⊗ e_i`` for a
square grid ``q`` of nonzero scalars: the flip is the all-ones grid, and the
parity-signed flip puts ``-1`` where both indices are odd.  When the grid is
a symmetry, ``check_J_compatibility`` compares the braided tensor bialgebra
with two closed forms of the grid: the direct block transpositions
(``direct_power_braiding``) and the quantum unshuffle sums
(``classical_unshuffle_blocks``, every block up to a degree in one pass).
Both evaluate their formulas directly and read no exchange or coproduct
block, so the comparison is between independent routes.  Each builds its
coefficients as running products, one multiplication per deal or cell,
and makes each output cell canonical once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .braided import (
    AxiomReport,
    BialgebraData,
    BraidedObject,
    CheckItem,
    braided_map,
    compare,
)
from .errors import LinearSolveError, NotClosedUnderBraiding, NotInvertible, ShapeError
from .fields import FieldSpec
from .matrix import ExactMatrix, stack_rows
from .primitives import primitives, primitives_of_tensor
from .tensoralg import build_truncated


@dataclass(frozen=True)
class FunctorData:
    """The strong monoidal endofunctor ``(g, λ)``; a singular ``g`` or a zero ``λ`` is refused."""

    g: ExactMatrix
    scale: object  # λ, the nonzero scalar of the comparison maps
    g_inv: ExactMatrix = dc_field(init=False, compare=False)

    def __post_init__(self) -> None:
        g = self.g
        object.__setattr__(self, "scale", g.field.element(self.scale))
        if self.scale == g.field.zero:
            raise NotInvertible("twist scalar must be nonzero")
        try:  # an identity is its own inverse
            object.__setattr__(self, "g_inv", g if g.is_identity() else g.inverse())
        except NotInvertible as exc:
            raise NotInvertible(f"basis change must be invertible: {exc}") from exc


def basis_change(g: ExactMatrix) -> FunctorData:
    return FunctorData(g, g.field.one)


def scalar_twist(field: FieldSpec, scale, dim: int) -> FunctorData:
    return FunctorData(ExactMatrix.identity(field, dim), scale)


def compose_functors(second: FunctorData, first: FunctorData) -> FunctorData:
    """``second ∘ first``: the matrices compose and the scalars multiply."""
    return FunctorData(second.g * first.g, first.g.field.mul(second.scale, first.scale))


def check_twist_coherence(F: FunctorData) -> AxiomReport:
    """The conditions that make ``(g, λ)`` a strong monoidal functor.

    With ``g_{U⊗V} = g_U ⊗ g_V`` and scalar comparison maps, the
    associativity condition reads ``λ·λ = λ·λ`` whatever ``λ`` is, and the
    unit conditions read ``λ·λ^{-1} = 1``.  What is left is the data, which
    ``FunctorData`` checks when it is made: this cannot fail on any functor.
    """
    one = ExactMatrix.identity(F.g.field, F.g.rows)
    report = AxiomReport()
    report.add(compare("g_inverse_left", F.g_inv * F.g, one))
    report.add(compare("g_inverse_right", F.g * F.g_inv, one))
    report.add(CheckItem("scale_invertible", F.scale != F.g.field.zero))
    return report


def _squares(F: FunctorData, dim: int) -> tuple[ExactMatrix, ExactMatrix]:
    """``(g⊗g, g^{-1}⊗g^{-1})``, once ``g`` is known to act on ``dim``."""
    if F.g.rows != dim:
        raise ShapeError(f"functor is {F.g.rows}x{F.g.cols}, structure has dim {dim}")
    return F.g.kron(F.g), F.g_inv.kron(F.g_inv)


def transport_braided_object(F: FunctorData, V: BraidedObject) -> BraidedObject:
    """``c -> (g⊗g) c (g⊗g)^{-1}``."""
    gg, gg_inv = _squares(F, V.dim)
    return BraidedObject(gg * V.c * gg_inv)


def transport_bialgebra(F: FunctorData, B: BialgebraData) -> BialgebraData:
    """All five structure maps: ``m' = λ·g m (g⊗g)^{-1}``, ``u' = λ^{-1}·g u``,
    ``Δ' = λ^{-1}·(g⊗g) Δ g^{-1}``, ``ε' = λ·ε g^{-1}`` and ``c'`` as for a
    braided object.  The result is not checked here; ``check_braided_bialgebra``
    does that."""
    gg, gg_inv = _squares(F, B.dim)
    lam, lam_inv = F.scale, B.field.inv(F.scale)
    return BialgebraData(
        m=(F.g * B.m * gg_inv).scale(lam),
        u=(F.g * B.u).scale(lam_inv),
        delta=(gg * B.delta * F.g_inv).scale(lam_inv),
        eps=(B.eps * F.g_inv).scale(lam),
        c=gg * B.c * gg_inv,
    )


def check_primfunct_square(F: FunctorData, B: BialgebraData) -> bool:
    """Primitives of the transport against transport of the primitives: an
    invertible ``t`` with ``xi' t = F(xi)`` (square only for equal
    dimensions, and 0x0 for two zero spaces) and braidings conjugate under
    it.  ``B`` is not checked; when ``c`` does not map ``P⊗P`` into itself on
    either side, or restricts to a singular ``c_P``, ``P`` is no braided
    object and the square does not hold.  A square that holds conjugates
    ``c_P`` to the other side's restriction, so one invertibility test covers
    both."""
    B2 = transport_bialgebra(F, B)
    try:
        P = primitives(B, check=False)
        P2 = primitives(B2, check=False)
        P.braided_object()
        t = P2.inclusion.solve(F.g * P.inclusion)
        t.inverse()
    except (NotClosedUnderBraiding, NotInvertible, LinearSolveError):
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
    computed without any recursion.

    The weights ``Π_{a∈I} q_ab`` of every front word ``I`` are list products
    over its letters, and so are the coefficients of the back words ``J``
    for one front word: one multiplication per cell of each list."""
    q = _grid(field, q)
    dim, p = len(q), field.p
    weights = [(1,) * dim]  # Π_{a∈I} q_ab for each b, one tuple per front word I
    for _ in range(m):
        weights = [tuple(x * y % p if p else x * y for x, y in zip(w, qa))
                   for w in weights for qa in q]
    size, width = dim ** (m + n), dim ** m
    out = [None] * size
    for I, w in enumerate(weights):
        coeffs = [1]  # Π_{b∈J} w_b for each back word J
        for _ in range(n):
            coeffs = [c * x % p if p else c * x for c in coeffs for x in w]
        start = I * dim ** n
        for J, c in enumerate(coeffs):
            out[J * width + I] = {start + J: c if p or type(c) is int else field.normalize(c)}
    return ExactMatrix._raw(field, out, size, size)


def classical_unshuffle_blocks(field: FieldSpec, q, N: int) -> list[list[ExactMatrix]]:
    """Every coproduct block of the tensor bialgebra of the diagonal braiding
    ``q`` up to degree ``N``, as quantum unshuffle sums (Rosso, *Invent.
    Math.* 133, 1998): entry ``[n][k]`` is the ``(k, n-k)`` block.

    Independent of the braided recursion.  A basis word is dealt letter by
    letter, left to right, to a front word and a back word; a letter dealt to
    the front passes every letter already at the back, so the term picks up
    ``Π q_{x,z}`` over those letters ``x``.  Each deal carries that product
    for each letter ``z`` as a ``dim``-vector, so dealing a letter to the
    front is one multiplication.  The words are walked depth first, so words
    with a common prefix share its deals and only the deals of one path are
    held at a time.  Deals of one word that reach the same front and back
    words are summed at once, and a sum that vanishes (terms can cancel, and
    a sum can vanish mod p) is dropped with every deal that extends it.
    """
    q = _grid(field, q)
    dim, p, norm = len(q), field.p, field.normalize
    rows = [[[{} for _ in range(dim ** n)] for _ in range(n + 1)] for n in range(N + 1)]
    moved = {}  # (weight, z) -> the weight once the letter z is at the back

    def deal(n: int, word: int, deals: dict) -> None:
        # write column ``word`` of every block of degree n, then deal one more letter
        live = []
        for (k, front, back), (c, w) in deals.items():
            if p:
                c %= p
            elif type(c) is not int:
                c = norm(c)
            if c:
                rows[n][k][front * dim ** (n - k) + back][word] = c
                live.append((k, front, back, c, w))
        if n == N:
            return
        for z in range(dim):
            out = {}  # (k, front, back) -> (summed coefficient, weight)
            for k, front, back, c, w in live:
                x = c * w[z] % p if p else c * w[z]
                key = (k + 1, front * dim + z, back)
                out[key] = (out[key][0] + x, w) if key in out else (x, w)
                key = (k, front, back * dim + z)
                if key in out:
                    out[key] = (out[key][0] + c, out[key][1])
                    continue
                if (w, z) not in moved:
                    moved[w, z] = tuple(a * b % p if p else a * b for a, b in zip(w, q[z]))
                out[key] = (c, moved[w, z])
            deal(n + 1, word * dim + z, out)

    deal(0, 0, {(0, 0, 0): (1, (1,) * dim)})
    return [[ExactMatrix._raw(field, block, dim ** n, dim ** n) for block in blocks]
            for n, blocks in enumerate(rows)]


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
    V = BraidedObject(direct_power_braiding(field, q, 1, 1))
    sq = V.c * V.c
    report = AxiomReport()
    report.add(compare("symmetry", sq, ExactMatrix.identity(field, V.dim * V.dim)))
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
    classical = classical_unshuffle_blocks(field, q, N)
    for n in range(1, N + 1):
        for k, block in enumerate(classical[n]):
            report.add(compare(f"unshuffle[{k},{n}]", T.coproduct_block(k, n), block))
    for n in range(1, N + 1):
        blocks = classical[n]
        braided_xi = primitives_of_tensor(T, n)
        plain_xi = stack_rows(blocks[1:n], field, V.dim ** n).nullspace()
        report.add(compare(f"primitive_inclusion[{n}]", braided_xi, plain_xi))
    return report
