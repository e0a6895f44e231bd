import random
from dataclasses import replace

import pytest

from braidalg import (
    RATIONALS,
    BialgebraData,
    BraidedObject,
    BraidRepCache,
    ExactMatrix,
    FunctorData,
    NotInvertible,
    ShapeError,
    basis_change,
    build_truncated,
    check_J_compatibility,
    check_braided_bialgebra,
    check_primfunct_square,
    check_twist_coherence,
    classical_unshuffle_block,
    compose_functors,
    direct_power_braiding,
    prime_field,
    scalar_twist,
    tensor_primitive_dims,
    transport_bialgebra,
    transport_braided_object,
)
from braidalg.gallery import (
    all_gradings,
    diagonal_twist_braiding,
    exterior_line,
    flip_braiding,
    group_algebra_z2,
    parity_grid,
    scalar_braiding,
    super_braiding,
)

from oracles import block_transposition, noncanonical_cells

F5 = prime_field(5)
F7 = prime_field(7)


def random_invertible(rng, field, n):
    while True:
        g = ExactMatrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])
        try:
            g.inverse()
            return g
        except NotInvertible:
            continue


class TestBraidedObjectTransport:
    def test_identity_change(self):
        V = super_braiding(RATIONALS, (0, 1))
        F = basis_change(ExactMatrix.identity(RATIONALS, 2))
        assert transport_braided_object(F, V).c == V.c

    def test_scalar_twist_is_central(self):
        V = super_braiding(RATIONALS, (0, 1))
        assert transport_braided_object(scalar_twist(RATIONALS, 7, 2), V).c == V.c

    def test_one_dimensional_conjugation(self):
        V = scalar_braiding(RATIONALS, 5)
        F = basis_change(ExactMatrix(RATIONALS, [[3]]))
        assert transport_braided_object(F, V).c == V.c

    def test_transport_preserves_yang_baxter(self):
        from braidalg import check_yang_baxter

        rng = random.Random(7)
        V = super_braiding(F5, (0, 1))
        for _ in range(5):
            F = basis_change(random_invertible(rng, F5, 2))
            assert check_yang_baxter(transport_braided_object(F, V)).passed

    def test_invalid_functor(self):
        with pytest.raises(NotInvertible):
            basis_change(ExactMatrix(RATIONALS, [[1, 2], [2, 4]]))
        with pytest.raises(NotInvertible):
            scalar_twist(RATIONALS, 0, 2)

    def test_dimension_mismatch(self):
        V = super_braiding(RATIONALS, (0, 1))
        with pytest.raises(ShapeError):
            transport_braided_object(scalar_twist(RATIONALS, 2, 3), V)
        with pytest.raises(ShapeError):
            transport_bialgebra(scalar_twist(RATIONALS, 2, 3), exterior_line(RATIONALS))
        with pytest.raises(ShapeError):
            compose_functors(scalar_twist(RATIONALS, 2, 2), scalar_twist(RATIONALS, 2, 3))


class TestBialgebraTransport:
    def test_identity(self):
        B = exterior_line(RATIONALS)
        F = basis_change(ExactMatrix.identity(RATIONALS, 2))
        assert transport_bialgebra(F, B) == B

    def test_unit_mixing_change(self):
        B = exterior_line(RATIONALS)
        F = basis_change(ExactMatrix(RATIONALS, [[1, 0], [1, 1]]))
        out = transport_bialgebra(F, B)
        assert out != B
        assert check_braided_bialgebra(out).passed

    def test_scalar_twist_scales_structure(self):
        B = exterior_line(RATIONALS)
        out = transport_bialgebra(scalar_twist(RATIONALS, 2, 2), B)
        assert out.m == B.m.scale(2)
        assert out.u == B.u.scale("1/2")
        assert out.delta == B.delta.scale("1/2")
        assert out.eps == B.eps.scale(2)
        assert out.c == B.c
        assert check_braided_bialgebra(out).passed

    def test_twist_coherence(self):
        assert check_twist_coherence(scalar_twist(RATIONALS, 5, 2)).passed
        assert check_twist_coherence(scalar_twist(F5, 3, 3)).passed
        assert check_twist_coherence(basis_change(ExactMatrix(F5, [[1, 2], [3, 4]]))).passed

    def test_twist_coherence_detects_corruption(self):
        # incoherent data is refused when the functor is made, so no
        # FunctorData reaches check_twist_coherence with it
        singular = ExactMatrix(RATIONALS, [[1, 2], [2, 4]])
        with pytest.raises(NotInvertible, match="basis change must be invertible"):
            FunctorData(singular, 1)
        with pytest.raises(NotInvertible, match="twist scalar must be nonzero"):
            FunctorData(ExactMatrix.identity(F5, 2), 0)
        F = FunctorData(ExactMatrix(RATIONALS, [[1, 1], [0, 1]]), 1)
        assert F.g_inv == ExactMatrix(RATIONALS, [[1, -1], [0, 1]])

    def test_an_identity_is_its_own_inverse(self):
        # a scalar twist runs no elimination
        F = scalar_twist(F5, 3, 3)
        assert F.g_inv is F.g and F.scale == 3

    def test_axiom_verdict_preserved(self):
        # transporting a non-bialgebra fails the same way the source does
        B = exterior_line(RATIONALS)
        wrong = BialgebraData(B.field, B.dim, B.m, B.u, B.delta, B.eps,
                              flip_braiding(RATIONALS, 2).c)
        F = basis_change(ExactMatrix(RATIONALS, [[1, 1], [0, 1]]))
        moved = transport_bialgebra(F, wrong)
        src = {i.name for i in check_braided_bialgebra(wrong).failures()}
        dst = {i.name for i in check_braided_bialgebra(moved).failures()}
        assert src == dst == {"coproduct_of_product"}

    def test_functoriality(self):
        B = exterior_line(F5)
        rng = random.Random(3)
        g1, g2 = random_invertible(rng, F5, 2), random_invertible(rng, F5, 2)
        F1, F2 = basis_change(g1), basis_change(g2)
        lhs = transport_bialgebra(F2, transport_bialgebra(F1, B))
        rhs = transport_bialgebra(compose_functors(F2, F1), B)
        assert lhs == rhs
        t1 = scalar_twist(F5, 2, 2)
        t2 = scalar_twist(F5, 3, 2)
        lhs = transport_bialgebra(t2, transport_bialgebra(t1, B))
        rhs = transport_bialgebra(compose_functors(t2, t1), B)
        assert lhs == rhs

    def test_mixed_composition_equals_transporting_twice(self):
        B = exterior_line(F5)
        twist = scalar_twist(F5, 3, 2)
        change = basis_change(ExactMatrix(F5, [[1, 2], [3, 4]]))
        shear = basis_change(ExactMatrix(F5, [[1, 0], [2, 1]]))  # does not commute with change
        for second, first in ((twist, change), (change, twist), (shear, change)):
            composite = compose_functors(second, first)
            assert check_twist_coherence(composite).passed
            lhs = transport_bialgebra(second, transport_bialgebra(first, B))
            assert transport_bialgebra(composite, B) == lhs
            assert check_primfunct_square(composite, B)


class TestPrimitiveSquare:
    def test_identity(self):
        B = exterior_line(RATIONALS)
        assert check_primfunct_square(basis_change(ExactMatrix.identity(RATIONALS, 2)), B)

    def test_seeded_random_changes(self):
        rng = random.Random(11)
        B = exterior_line(F5)
        for _ in range(10):
            F = basis_change(random_invertible(rng, F5, 2))
            assert check_primfunct_square(F, B)

    def test_no_primitives_case(self):
        rng = random.Random(5)
        Z = group_algebra_z2(F5)
        for _ in range(3):
            assert check_primfunct_square(basis_change(random_invertible(rng, F5, 2)), Z)

    def test_scalar_twist(self):
        assert check_primfunct_square(scalar_twist(RATIONALS, 3, 2), exterior_line(RATIONALS))

    @pytest.mark.parametrize("field", [RATIONALS, F5], ids=["Q", "F5"])
    def test_singular_restriction_detected(self, field):
        # x⊗x -> 0 keeps P⊗P = span{x⊗x} but restricts to c_P = 0, so P(B)
        # is no braided object; the intact braidings restrict invertibly
        B = exterior_line(field)
        cells = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
        singular = replace(B, c=ExactMatrix(field, cells))
        F = scalar_twist(field, 2, 2)
        assert not check_primfunct_square(F, singular)
        assert check_primfunct_square(F, B)
        assert check_primfunct_square(F, group_algebra_z2(field))

    def test_graded_dims_are_transport_invariant(self):
        rng = random.Random(23)
        V = super_braiding(F5, (0, 1))
        base_dims = tensor_primitive_dims(build_truncated(V, 4))
        for _ in range(3):
            F = basis_change(random_invertible(rng, F5, 2))
            moved = transport_braided_object(F, V)
            assert tensor_primitive_dims(build_truncated(moved, 4)) == base_dims


FLIP2 = [[1, 1], [1, 1]]


class TestBaseSymmetries:
    def test_flip_matrix_positions(self):
        c = direct_power_braiding(RATIONALS, FLIP2, 1, 1)
        ones = {(i, j) for i in range(4) for j in range(4) if c[i, j] != 0}
        assert ones == {(0, 0), (2, 1), (1, 2), (3, 3)}
        assert all(c[i, j] == 1 for i, j in ones)

    def test_super_line(self):
        assert parity_grid((1,)) == [[-1]]
        assert direct_power_braiding(RATIONALS, [[-1]], 1, 1) == ExactMatrix(RATIONALS, [[-1]])

    def test_super_d2_sign_pattern(self):
        c = direct_power_braiding(RATIONALS, parity_grid((0, 1)), 1, 1)
        diff = c - direct_power_braiding(RATIONALS, FLIP2, 1, 1)
        # only the odd⊗odd entry flips sign: e2⊗e2 at flat position (3,3)
        assert diff == ExactMatrix(RATIONALS, [[0, 0, 0, 0], [0, 0, 0, 0],
                                               [0, 0, 0, 0], [0, 0, 0, -2]])

    def test_malformed_grids_rejected(self):
        with pytest.raises(ShapeError):
            direct_power_braiding(RATIONALS, [[1, 1], [1]], 1, 1)
        with pytest.raises(NotInvertible):
            direct_power_braiding(F5, [[1, 5], [1, 1]], 1, 1)
        with pytest.raises(ShapeError):
            parity_grid((0, 2))

    def test_direct_power_matches_oracle(self):
        for m in range(3):
            for n in range(3):
                got = direct_power_braiding(RATIONALS, FLIP2, m, n)
                assert got == ExactMatrix(RATIONALS, block_transposition(2, m, n)) \
                    if m + n else got == ExactMatrix.identity(RATIONALS, 1)
                got = direct_power_braiding(RATIONALS, parity_grid((0, 1)), m, n)
                expected = block_transposition(2, m, n, parities=(0, 1))
                assert got == ExactMatrix(RATIONALS, expected) if m + n \
                    else got == ExactMatrix.identity(RATIONALS, 1)


class TestJCompatibility:
    def test_flip_and_super_dims_up_to_two(self):
        for d in (1, 2):
            assert check_J_compatibility(RATIONALS, [[1] * d] * d, 4).passed
            for grading in all_gradings(d):
                assert check_J_compatibility(RATIONALS, parity_grid(grading), 4).passed

    def test_dimension_three_full_depth(self):
        assert check_J_compatibility(RATIONALS, [[1] * 3] * 3, 4).passed
        for grading in all_gradings(3):
            assert check_J_compatibility(RATIONALS, parity_grid(grading), 4).passed, grading

    def test_over_prime_field(self):
        assert check_J_compatibility(F5, parity_grid((0, 1)), 3).passed

    def test_non_symmetric_braiding_rejected_by_gate(self):
        rep = check_J_compatibility(RATIONALS, [[2]], 3)
        assert not rep.passed
        assert rep.items[0].name == "symmetry"
        assert len(rep.items) == 1  # nothing else ran


# Diagonal grids, most of them not symmetries: flip d=2, super (0,1,1), the
# scalar q=2 over Q and over F_7, two twists and a 3x3 grid.  (field, grid, N)
GRIDS = {
    "flip_d2_Q": (RATIONALS, FLIP2, 5),
    "super_011_Q": (RATIONALS, parity_grid((0, 1, 1)), 4),
    "q2_Q": (RATIONALS, [[2]], 5),
    "q2_F7": (F7, [[2]], 5),
    "twist_F7": (F7, [[2, 3], [5, 6]], 5),
    "twist_Q": (RATIONALS, [["1/2", 2], ["2/3", 3]], 5),
    "grid3_Q": (RATIONALS, [[1, 2, 3], [4, 5, 6], [7, 8, 9]], 4),
}


def dense_grid_braiding(field, grid):
    """``e_i ⊗ e_j -> q_ij e_j ⊗ e_i`` written out cell by cell, apart from
    the library's own builder."""
    d = len(grid)
    rows = [[0] * (d * d) for _ in range(d * d)]
    for i in range(d):
        for j in range(d):
            rows[j * d + i][i * d + j] = grid[i][j]
    return BraidedObject(field, d, ExactMatrix(field, rows))


@pytest.mark.parametrize("name", sorted(GRIDS))
class TestQuantumShuffleOracle:
    """The quantum unshuffle sum and the direct block transposition of a grid
    against the braided recursion, for braidings that need not square to 1."""

    def test_builder_matches_dense_grid(self, name):
        field, grid, _ = GRIDS[name]
        assert diagonal_twist_braiding(field, grid) == dense_grid_braiding(field, grid)

    def test_unshuffle_matches_coproduct_blocks(self, name):
        field, grid, N = GRIDS[name]
        T = build_truncated(dense_grid_braiding(field, grid), N)
        for n in range(1, N + 1):
            for k in range(n + 1):
                block = classical_unshuffle_block(field, grid, k, n)
                assert block == T.coproduct_block(k, n), (k, n)
                assert noncanonical_cells(block) == [], (k, n)

    def test_direct_power_matches_braid_cache(self, name):
        field, grid, N = GRIDS[name]
        cache = BraidRepCache(dense_grid_braiding(field, grid))
        for m in range(N + 1):
            for n in range(N + 1 - m):
                block = direct_power_braiding(field, grid, m, n)
                assert block == cache.block(m, n), (m, n)
                assert noncanonical_cells(block) == [], (m, n)
