"""The thinned primitive stack against the full one, bit for bit.

``primitives_of_tensor`` stacks every row of ``Δ_{1,n-1}`` but, for
``k >= 2``, only the rows of ``Δ_{k,n-k}`` at the leading coordinates of the
degree-``k`` primitive basis.  ``tests/oracles.full_stack_primitives`` stacks
every interior block.  On a Yang-Baxter braiding the two kernels agree, so
the canonical bases must agree in every cell and in the Python type of every
cell, whatever order the degrees are asked for in.
"""

import random

import pytest

from braidalg import (
    RATIONALS,
    BraidedObject,
    ExactMatrix,
    SpecViolation,
    build_truncated,
    prime_field,
)
from braidalg.braided import check_yang_baxter
from braidalg.gallery import (
    all_gradings,
    diagonal_twist_braiding,
    flip_braiding,
    scalar_braiding,
    super_braiding,
)
from braidalg.primitives import _tensor_primitives, primitives_of_tensor
from braidalg.transport import direct_power_braiding
from oracles import full_stack_primitives

F2, F3, F5, F7 = (prime_field(p) for p in (2, 3, 5, 7))
FIELDS = {"Q": RATIONALS, "F5": F5}
DEGREE = {1: 8, 2: 6, 3: 4}  # truncation degree by dimension


def cells(m):
    return [(i, j, x, type(x)) for i, row in enumerate(m.nonzeros) for j, x in sorted(row.items())]


def assert_same(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert cells(got) == cells(want)


def random_invertible(field, d, rng):
    """A seeded ``d x d`` basis change that is not monomial, so it does not
    just permute and rescale a basis, and whose inverse has integral cells
    too, so that over Q the conjugated braidings keep small entries."""
    while True:
        g = ExactMatrix(field, [[rng.randrange(-1, 2) for _ in range(d)] for _ in range(d)])
        if (g.rank() == d and any(len(row) > 1 for row in g.nonzeros)
                and all(type(x) is int for row in g.inverse().nonzeros for x in row.values())):
            return g


def shifted_flip(field, d):
    """``e_i ⊗ e_j -> e_{j+1} ⊗ e_i``, indices mod ``d``: a permutation
    braiding that satisfies Yang-Baxter (Lyubashenko's ``(x, y) -> (f(y), g(x))``
    with ``f`` the shift and ``g`` the identity, which commute) and, unlike
    every grid over F_2, is not the flip."""
    c = [[0] * (d * d) for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            c[((j + 1) % d) * d + i][i * d + j] = 1
    return ExactMatrix(field, c)


def dense_braiding(field, d, seed):
    """``(g⊗g) c (g⊗g)^{-1}`` for a seeded basis change ``g``: a Yang-Baxter
    braiding with more nonzero cells than rows, so it reaches rows of
    ``Δ_{k,n-k}`` that every grid leaves at zero.  ``c`` is a seeded grid
    ``c_q``; over F_2, where every grid is the flip and commutes with ``g⊗g``,
    it is the shifted flip."""
    rng = random.Random(seed)
    while True:
        if field.p == 2:
            c = shifted_flip(field, d)
        else:
            grid = [[rng.randrange(1, field.p or 5) for _ in range(d)] for _ in range(d)]
            c = direct_power_braiding(field, grid, 1, 1)
        g = random_invertible(field, d, rng)
        gg = g.kron(g)
        dense = gg * c * gg.inverse()
        if sum(len(row) for row in dense.nonzeros) > dense.rows:
            return BraidedObject.from_c(field, d, dense)


GALLERY = {
    **{f"flip_d{d}_{t}": (lambda f=f, d=d: flip_braiding(f, d))
       for d in (1, 2, 3) for t, f in FIELDS.items()},
    **{f"super_{''.join(map(str, g))}_{t}": (lambda f=f, g=g: super_braiding(f, g))
       for d in (1, 2, 3) for g in all_gradings(d) for t, f in FIELDS.items()},
    **{f"scalar_q{q}_{t}": (lambda f=f, q=q: scalar_braiding(f, q))
       for q in (2, -1) for t, f in FIELDS.items()},
    "twist_F5": lambda: diagonal_twist_braiding(F5, [[4, 2], [3, 2]]),
    "twist_F7": lambda: diagonal_twist_braiding(F7, [[2, 3], [5, 6]]),
    "twist_Q": lambda: diagonal_twist_braiding(RATIONALS, [[-1, 2], ["1/2", 3]]),
    "twist_d3_Q": lambda: diagonal_twist_braiding(RATIONALS, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
}

# d=3 over Q is left out: its stacks grow large coefficients and take seconds
DENSE = {
    **{f"dense_d2_{t}_s{seed}": (lambda f=f, seed=seed: dense_braiding(f, 2, seed))
       for t, f in {"Q": RATIONALS, "F2": F2, "F3": F3, "F5": F5}.items() for seed in range(4)},
    **{f"dense_d3_{t}_s0": (lambda f=f: dense_braiding(f, 3, 0))
       for t, f in {"F2": F2, "F3": F3, "F5": F5}.items()},
}


@pytest.mark.parametrize("name", sorted({**GALLERY, **DENSE}))
def test_matches_full_stack(name):
    V = {**GALLERY, **DENSE}[name]()
    assert check_yang_baxter(V).passed
    N = DEGREE[V.dim]
    want = {n: full_stack_primitives(build_truncated(V, N), n) for n in range(1, N + 1)}
    top_first = build_truncated(V, N)
    for n in range(N, 0, -1):
        assert_same(primitives_of_tensor(top_first, n), want[n])
    in_order = build_truncated(V, N)
    for n in range(1, N + 1):
        assert_same(primitives_of_tensor(in_order, n), want[n])


def test_repeated_query_returns_the_memoized_basis():
    T = build_truncated(flip_braiding(RATIONALS, 2), 4)
    assert primitives_of_tensor(T, 4) is primitives_of_tensor(T, 4)


def test_thinning_needs_yang_baxter():
    # without coassociativity the lower degrees say nothing about Δ_{k,n-k},
    # so some invertible braiding that fails Yang-Baxter gets another kernel
    # from the thinned stack; ``primitives_of_tensor`` refuses such a T
    rng = random.Random(0)
    differs = 0
    for _ in range(6):
        c = random_invertible(F5, 4, rng)
        V = BraidedObject.from_c(F5, 2, c)
        assert not check_yang_baxter(V).passed
        T = build_truncated(V, 4)
        for n in range(1, 5):
            with pytest.raises(SpecViolation, match="yang_baxter"):
                primitives_of_tensor(T, n)
        differs += any(_tensor_primitives(T, n)[0] != full_stack_primitives(T, n)
                       for n in range(1, 5))
    assert differs
