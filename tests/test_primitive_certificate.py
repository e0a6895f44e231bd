"""The zero-kernel certificate of the kernel route over Q.

Over Q ``primitives_of_tensor`` first reduces the thinned stack modulo the
prime ``2^61 - 1``.  A rank mod p is at most the rank over Q, so full column
rank mod p proves the kernel over Q zero, and the basis is the ``d^n x 0``
matrix that ``nullspace`` would return.  Otherwise the stack is eliminated
over Q.  The bases must equal ``tests/oracles.full_stack_primitives`` in
every cell and in the Python type of every cell, and each gate of the
certificate must be needed.
"""

import sys
from fractions import Fraction

import pytest

from braidalg import RATIONALS, ExactMatrix, build_truncated, prime_field
from braidalg.gallery import diagonal_twist_braiding, scalar_braiding
from braidalg.primitives import primitives_of_tensor, tensor_primitive_dims
from oracles import full_stack_primitives
from test_primitive_stack import assert_same

# the module, not the function ``braidalg.primitives`` the package exports
primitives_module = sys.modules["braidalg.primitives"]

P = 2 ** 61 - 1

# grids over Q with P_n = 0 for n >= 2, and the A_2-type grid, whose kernels
# are nonzero in every degree, so that every degree falls back
GRIDS = {
    "twist_a": [[-2, "-3/2"], [3, "4/3"]],
    "twist_b": [[2, "3/2"], ["-4/3", 3]],
    "twist_c": [[2, 3], [5, 7]],
    "a2": [[-1, 2], ["-1/2", -1]],
}


def spy(monkeypatch):
    """Record the verdict of every certificate the kernel route asks for."""
    verdicts = []
    certify = primitives_module._zero_kernel_mod_prime

    def recorded(stack):
        verdicts.append(certify(stack))
        return verdicts[-1]
    monkeypatch.setattr(primitives_module, "_zero_kernel_mod_prime", recorded)
    return verdicts


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_matches_full_stack(name):
    V = diagonal_twist_braiding(RATIONALS, GRIDS[name])
    T, oracle = build_truncated(V, 7), build_truncated(V, 7)
    for n in range(1, 8):
        assert_same(primitives_of_tensor(T, n), full_stack_primitives(oracle, n))


def test_certified_degrees_are_the_zero_kernels(monkeypatch):
    # degree 1 has an empty stack, so it is the one elimination over Q
    verdicts = spy(monkeypatch)
    eliminated = []
    nullspace = ExactMatrix.nullspace
    monkeypatch.setattr(ExactMatrix, "nullspace", lambda m: eliminated.append(m.cols) or nullspace(m))
    T = build_truncated(diagonal_twist_braiding(RATIONALS, GRIDS["twist_b"]), 6)
    assert tensor_primitive_dims(T) == [2, 0, 0, 0, 0, 0]
    assert verdicts == [False] + [True] * 5
    assert eliminated == [2]


def test_a_nonzero_kernel_falls_back(monkeypatch):
    verdicts = spy(monkeypatch)
    T = build_truncated(diagonal_twist_braiding(RATIONALS, GRIDS["a2"]), 6)
    assert tensor_primitive_dims(T) == [2, 2, 2, 1, 4, 4]
    assert not any(verdicts)


def test_a_denominator_divisible_by_the_prime_skips_the_certificate():
    certify = primitives_module._zero_kernel_mod_prime
    assert certify(ExactMatrix(RATIONALS, [["1/3"]]))
    assert not certify(ExactMatrix(RATIONALS, [[f"1/{P}"]]))
    assert not certify(ExactMatrix(RATIONALS, [[f"1/{3 * P}"]]))
    # the same grid with and without the certificate: it must be skipped
    V = diagonal_twist_braiding(RATIONALS, [[2, Fraction(1, P)], [3, 5]])
    T, oracle = build_truncated(V, 5), build_truncated(V, 5)
    for n in range(1, 6):
        assert_same(primitives_of_tensor(T, n), full_stack_primitives(oracle, n))


def test_a_kernel_nonzero_mod_the_prime_falls_back(monkeypatch):
    # q = -1 mod P: Δ_{1,2} = 1 + q is zero mod P but not over Q, so the
    # certificate fails and elimination over Q finds P_2 = 0; over F_P itself
    # P_2 is spanned by v⊗v
    verdicts = spy(monkeypatch)
    assert tensor_primitive_dims(build_truncated(scalar_braiding(RATIONALS, P - 1), 3)) == [1, 0, 0]
    assert verdicts == [False, False, True]
    assert tensor_primitive_dims(build_truncated(scalar_braiding(prime_field(P), P - 1), 3)) == [1, 1, 0]


def test_over_f_p_there_is_no_certificate():
    stack = ExactMatrix(prime_field(5), [[1, 0], [0, 1]])
    assert not primitives_module._zero_kernel_mod_prime(stack)


def test_fewer_rows_than_columns_is_not_certified():
    assert not primitives_module._zero_kernel_mod_prime(ExactMatrix(RATIONALS, [[1, 0]]))


@pytest.mark.parametrize("name", ["twist_a", "twist_b", "twist_c"])
def test_zero_primitives_read_only_the_first_split(name):
    # P_k = 0 for every k >= 2, so the kernel route reads only Δ_{1,n}, and
    # no block (k, n) with 2 <= k < n is built
    T = build_truncated(diagonal_twist_braiding(RATIONALS, GRIDS[name]), 7)
    tensor_primitive_dims(T)
    assert not [(k, n) for k, n in T.coproduct_blocks if 2 <= k < n]
