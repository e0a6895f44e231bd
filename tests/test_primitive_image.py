"""The image route of the graded primitives against the full kernel stack.

For a symmetry (``c·c = 1``) and a degree ``n`` nonzero in the field,
``primitives_of_tensor`` finds ``P_n`` as the column space of the
Dynkin–Specht–Wever operator ``θ_n``, spanned by the braided commutators
``[P_{n-1}, V]``, and reads no coproduct block.  For the flip over F_p at
``p | n`` the same spanning set, with the ``p``-th powers of the basis of
``P_{n/p}`` added, spans the free restricted Lie algebra.  Every other
degree takes the kernel route.  The bases must equal
``tests/oracles.full_stack_primitives`` in every cell and in the Python type
of every cell, and each gate and each part of the spanning set must be
needed: dropping one gives another space exactly where the theory says it
should.
"""

import random
import sys

import pytest

from braidalg import RATIONALS, BraidedObject, build_truncated, prime_field
from braidalg.braided import check_yang_baxter
from braidalg.gallery import (
    diagonal_twist_braiding,
    flip_braiding,
    scalar_braiding,
    super_braiding,
)
from braidalg.matrix import column_basis
from braidalg.primitives import primitives_of_tensor
from oracles import dynkin_operator, full_stack_primitives
from test_primitive_stack import assert_same, random_invertible

# the module, not the function ``braidalg.primitives`` the package exports
primitives_module = sys.modules["braidalg.primitives"]

F5, F7 = prime_field(5), prime_field(7)
GRID = [[1, 2], ["1/2", 1]]
SIGNED_GRID = [[1, 2], ["1/2", -1]]


def conjugate(V, seed):
    """``(g⊗g) c (g⊗g)^{-1}`` for a seeded basis change ``g`` that is not
    monomial: a symmetry again, with more nonzero cells than rows."""
    g = random_invertible(V.field, V.dim, random.Random(seed))
    gg = g.kron(g)
    dense = gg * V.c * gg.inverse()
    assert sum(len(row) for row in dense.nonzeros) > dense.rows
    return BraidedObject(V.field, V.dim, dense)


# name -> (braided object, truncation degree); the flip has no dense
# conjugate, since it commutes with every g⊗g
SYMMETRIES = {
    "flip_d2_Q": (lambda: flip_braiding(RATIONALS, 2), 9),
    "flip_d3_Q": (lambda: flip_braiding(RATIONALS, 3), 6),
    "flip_d2_F5": (lambda: flip_braiding(F5, 2), 7),
    "flip_d2_F7": (lambda: flip_braiding(F7, 2), 8),
    "super_01_Q": (lambda: super_braiding(RATIONALS, (0, 1)), 8),
    "super_11_Q": (lambda: super_braiding(RATIONALS, (1, 1)), 8),
    "grid_Q": (lambda: diagonal_twist_braiding(RATIONALS, GRID), 7),
    "signed_grid_Q": (lambda: diagonal_twist_braiding(RATIONALS, SIGNED_GRID), 7),
    "dense_super_01_Q": (lambda: conjugate(super_braiding(RATIONALS, (0, 1)), 0), 7),
    "dense_super_01_F5": (lambda: conjugate(super_braiding(F5, (0, 1)), 1), 7),
    "dense_grid_Q": (lambda: conjugate(diagonal_twist_braiding(RATIONALS, GRID), 2), 6),
    "dense_signed_grid_Q": (lambda: conjugate(diagonal_twist_braiding(RATIONALS, SIGNED_GRID), 3), 6),
}


def top_coproduct_degree(T):
    return max(n for _, n in T.coproduct_blocks)


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_image_route_matches_full_stack(name):
    make, N = SYMMETRIES[name]
    V = make()
    assert check_yang_baxter(V).passed
    T, oracle = build_truncated(V, N), build_truncated(V, N)
    assert T.symmetric
    for n in range(1, N + 1):
        assert_same(primitives_of_tensor(T, n), full_stack_primitives(oracle, n))
    # only the degrees divisible by the characteristic built coproduct
    # blocks, and for the flip none did
    p = V.field.p
    assert top_coproduct_degree(T) == max((n for n in range(1, N + 1) if p and n % p == 0
                                           and not T.flip), default=0)


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_basis_spans_the_image_of_the_dynkin_operator(name):
    make, N = SYMMETRIES[name]
    T = build_truncated(make(), min(N, 7))
    p = T.field.p
    for n in range(1, T.N + 1):
        if p is None or n % p:
            assert_same(column_basis(dynkin_operator(T, n).transpose()), primitives_of_tensor(T, n))


@pytest.mark.parametrize("V, symmetric", [
    (flip_braiding(F5, 3), True),
    (super_braiding(RATIONALS, (0, 1)), True),
    (scalar_braiding(RATIONALS, -1), True),
    (scalar_braiding(RATIONALS, 2), False),
    (diagonal_twist_braiding(RATIONALS, [[-1, 2], ["1/2", 3]]), False),
])
def test_symmetric_is_c_squared_equal_to_one(V, symmetric):
    assert build_truncated(V, 2).symmetric is symmetric


def test_without_the_degree_gate_super_over_f5_fails_at_degree_5(monkeypatch):
    # at p | n the spanning set is right for the flip only: for super (0,1)
    # over F_5 it holds the p-th power of the odd letter, which is not
    # primitive, so the image in degree 5 is too large
    monkeypatch.setattr(primitives_module, "_image_route", lambda T, n: T.symmetric)
    V = super_braiding(F5, (0, 1))
    T, oracle = build_truncated(V, 5), build_truncated(V, 5)
    for n in range(1, 5):
        assert_same(primitives_of_tensor(T, n), full_stack_primitives(oracle, n))
    assert (primitives_of_tensor(T, 5).cols, full_stack_primitives(oracle, 5).cols) == (8, 7)


def test_without_the_symmetry_gate_q2_fails_from_degree_2(monkeypatch):
    # q = 2 is a braiding but not a symmetry: [v, v] = (1 - 2) v⊗v is not primitive
    monkeypatch.setattr(primitives_module, "_image_route",
                        lambda T, n: T.field.p is None or n % T.field.p != 0)
    V = scalar_braiding(RATIONALS, 2)
    T, oracle = build_truncated(V, 5), build_truncated(V, 5)
    assert_same(primitives_of_tensor(T, 1), full_stack_primitives(oracle, 1))
    for n in range(2, 6):
        assert (primitives_of_tensor(T, n).cols, full_stack_primitives(oracle, n).cols) == (1, 0)


# the flip over F_p, (dimension, truncation degree): every degree divisible
# by p takes the restricted image route
RESTRICTED = {
    f"flip_d{d}_F{p}": (p, d, N)
    for p, degrees in {2: {1: 10, 2: 10, 3: 6}, 3: {1: 10, 2: 8, 3: 6},
                       5: {1: 10, 2: 10, 3: 5}, 7: {1: 10, 2: 7, 3: 5}}.items()
    for d, N in degrees.items()
}


@pytest.mark.parametrize("name", sorted(RESTRICTED))
def test_restricted_route_matches_full_stack(name):
    p, d, N = RESTRICTED[name]
    V = flip_braiding(prime_field(p), d)
    T, oracle = build_truncated(V, N), build_truncated(V, N)
    assert T.flip
    for n in range(1, N + 1):
        assert_same(primitives_of_tensor(T, n), full_stack_primitives(oracle, n))
    assert list(T.coproduct_blocks) == [(0, 0)]


@pytest.mark.parametrize("V, flip", [
    (flip_braiding(F5, 3), True),
    (scalar_braiding(F7, 1), True),
    (super_braiding(prime_field(2), (0, 1)), True),  # -1 = 1 in F_2
    (super_braiding(F5, (0, 1)), False),
    (scalar_braiding(F7, 2), False),
    (diagonal_twist_braiding(F5, [[1, 2], [3, 1]]), False),  # symmetric, not the flip
])
def test_flip_is_the_flip_matrix(V, flip):
    assert build_truncated(V, 2).flip is flip


def test_without_the_pth_powers_the_flip_over_f2_fails_at_degree_2(monkeypatch):
    # over F_2 the commutators of V span only xy + yx in degree 2, and the
    # squares x⊗x and y⊗y are primitive too
    monkeypatch.setattr(primitives_module, "_pth_powers", lambda T, n: [])
    V = flip_braiding(prime_field(2), 2)
    T, oracle = build_truncated(V, 2), build_truncated(V, 2)
    assert_same(primitives_of_tensor(T, 1), full_stack_primitives(oracle, 1))
    assert (primitives_of_tensor(T, 2).cols, full_stack_primitives(oracle, 2).cols) == (1, 3)
