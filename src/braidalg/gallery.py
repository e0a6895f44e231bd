"""Small stock of braided objects and bialgebras used by demos and tests."""

from __future__ import annotations

from .braided import BialgebraData, BraidedObject
from .errors import ShapeError
from .fields import RATIONALS, FieldSpec, prime_field
from .matrix import ExactMatrix
from .transport import direct_power_braiding


def flip_braiding(field: FieldSpec, dim: int) -> BraidedObject:
    """The plain swap ``v ⊗ w -> w ⊗ v``."""
    return diagonal_twist_braiding(field, [[1] * dim] * dim)


def parity_grid(grading) -> list[list[int]]:
    """The grid of the parity-signed swap: ``q_ij = -1`` when ``e_i`` and
    ``e_j`` are both odd, else 1."""
    grading = tuple(grading)
    if not set(grading) <= {0, 1}:
        raise ShapeError(f"parities must be 0 or 1, got {grading!r}")
    return [[-1 if a and b else 1 for b in grading] for a in grading]


def super_braiding(field: FieldSpec, grading) -> BraidedObject:
    """The parity-signed swap for the given 0/1 grading vector."""
    return diagonal_twist_braiding(field, parity_grid(grading))


def scalar_braiding(field: FieldSpec, q) -> BraidedObject:
    """Dimension 1 with braiding multiplication by a nonzero scalar."""
    return diagonal_twist_braiding(field, [[q]])


def diagonal_twist_braiding(field: FieldSpec, coeffs) -> BraidedObject:
    """``e_i ⊗ e_j -> q_ij e_j ⊗ e_i`` for a square grid of nonzero scalars.

    Always a Yang-Baxter solution (each side of the equation picks up the
    same three coefficients), and generally NOT a symmetry: the square maps
    ``e_i ⊗ e_j`` to ``q_ij q_ji e_i ⊗ e_j``.  The flip, super and scalar
    braidings are such grids.
    """
    return BraidedObject(direct_power_braiding(field, coeffs, 1, 1))


def corrupted_flip(field: FieldSpec, dim: int = 2) -> BraidedObject:
    """Flip with a single off-structure entry set to 1: still invertible but
    no longer a Yang-Baxter solution.

    Rescaling an existing nonzero entry of the flip would NOT do: any
    diagonal twist ``e_i ⊗ e_j -> q_ij e_j ⊗ e_i`` of the flip satisfies the
    Yang-Baxter equation for every choice of coefficients.
    """
    grid = flip_braiding(field, dim).c.to_strings()
    grid[0][1] = "1"
    return BraidedObject(ExactMatrix(field, grid))


def exterior_line(field: FieldSpec) -> BialgebraData:
    """The exterior algebra on one generator ``x`` (so ``x^2 = 0``) with the
    coproduct making ``x`` primitive and the parity-signed braiding.

    Basis order: ``1, x``.
    """
    m = ExactMatrix(field, [[1, 0, 0, 0], [0, 1, 1, 0]])
    u = ExactMatrix.column(field, [1, 0])
    delta = ExactMatrix(field, [[1, 0], [0, 1], [0, 1], [0, 0]])
    eps = ExactMatrix(field, [[1, 0]])
    c = super_braiding(field, (0, 1)).c
    return BialgebraData(m, u, delta, eps, c)


def group_algebra_z2(field: FieldSpec) -> BialgebraData:
    """The group algebra of the two-element group, grouplike coproduct, flip
    braiding.  Basis order: identity, generator."""
    m = ExactMatrix(field, [[1, 0, 0, 1], [0, 1, 1, 0]])
    u = ExactMatrix.column(field, [1, 0])
    delta = ExactMatrix(field, [[1, 0], [0, 0], [0, 0], [0, 1]])
    eps = ExactMatrix(field, [[1, 1]])
    c = flip_braiding(field, 2).c
    return BialgebraData(m, u, delta, eps, c)


def all_gradings(dim: int):
    """Every parity vector of the given length."""
    out = []
    for mask in range(2 ** dim):
        out.append(tuple((mask >> i) & 1 for i in range(dim)))
    return out


def braiding_gallery(max_dim: int = 2) -> list[tuple[str, BraidedObject]]:
    """Named braided objects for sweeps: flips, supers with every grading,
    and the scalar braidings over the rationals and over F_5."""
    f5 = prime_field(5)
    out: list[tuple[str, BraidedObject]] = []
    for d in range(1, max_dim + 1):
        out.append((f"flip_d{d}_Q", flip_braiding(RATIONALS, d)))
        for grading in all_gradings(d):
            tag = "".join(str(g) for g in grading)
            out.append((f"super_d{d}_{tag}_Q", super_braiding(RATIONALS, grading)))
    for q in (1, 2, -1):
        out.append((f"scalar_q{q}_Q", scalar_braiding(RATIONALS, q)))
        out.append((f"scalar_q{q}_F5", scalar_braiding(f5, q)))
    return out
