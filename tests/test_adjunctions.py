from dataclasses import replace

import pytest

from braidalg import (
    RATIONALS,
    AlgebraData,
    BialgebraData,
    ExactMatrix,
    build_adjunction_witness,
    build_truncated,
    check_triangles_T_Omega,
    check_triangles_Tbar_P,
    check_zeta_coalgebra,
    iterated_products,
    kron_power,
    prime_field,
    primitive_counit_blocks,
    primitive_unit,
    primitives,
)
from braidalg.adjunctions import iterated_product_rightfold
from braidalg.gallery import (
    exterior_line,
    flip_braiding,
    group_algebra_z2,
    scalar_braiding,
    super_braiding,
)

F5 = prime_field(5)


class TestIteratedProduct:
    def test_base_cases(self):
        A = exterior_line(RATIONALS).algebra
        assert iterated_products(A, 0) == [A.u]
        assert iterated_products(A, 1) == [A.u, ExactMatrix.identity(RATIONALS, 2)]

    def test_exterior_square_column(self):
        A = exterior_line(RATIONALS).algebra
        two = iterated_products(A, 2)[2]
        assert two == A.m
        col = [two[i, 3] for i in range(2)]  # x⊗x column
        assert col == [0, 0]

    def test_left_and_right_folds_agree(self):
        for A in (exterior_line(RATIONALS).algebra, group_algebra_z2(F5).algebra):
            folds = iterated_products(A, 5)
            for n in range(6):
                assert folds[n] == iterated_product_rightfold(A, n)

    def test_counit_blocks_are_multiplicative(self):
        A = group_algebra_z2(RATIONALS).algebra
        p = iterated_products(A, 3)
        for a in range(4):
            for b in range(4 - a):
                assert A.m * p[a].kron(p[b]) == p[a + b]


class TestFreeForgetfulTriangles:
    def test_rationals(self):
        assert check_triangles_T_Omega(RATIONALS, 4)

    def test_mod_five(self):
        assert check_triangles_T_Omega(F5, 4)

    def test_corrupted_counit_block_detected(self):
        # negative control: one bumped entry of the product breaks the
        # counit blocks, and the checker must say so
        A = group_algebra_z2(RATIONALS).algebra
        grid = [list(r) for r in A.m.data]
        grid[0][0] = RATIONALS.add(grid[0][0], 1)
        corrupt = AlgebraData(A.field, A.dim, ExactMatrix(RATIONALS, grid), A.u)
        assert check_triangles_T_Omega(RATIONALS, 3, algebras=(A,)) is True
        assert check_triangles_T_Omega(RATIONALS, 3, algebras=(corrupt,)) is False


class TestPrimitiveUnit:
    def test_isomorphism_onto_degree_one(self):
        for V in (flip_braiding(RATIONALS, 2), scalar_braiding(RATIONALS, 2),
                  super_braiding(RATIONALS, (0, 1))):
            T = build_truncated(V, 2)
            eta_bar = primitive_unit(T)
            assert eta_bar == ExactMatrix.identity(V.field, V.dim)


class TestZetaBlocks:
    def test_degree_zero_and_one(self):
        B = exterior_line(RATIONALS)
        space = primitives(B)
        z = primitive_counit_blocks(iterated_products(B.algebra, 3), space.inclusion)
        assert z[0] == B.u
        assert z[1] == space.inclusion

    def test_exterior_degree_two_vanishes(self):
        B = exterior_line(RATIONALS)
        z = build_adjunction_witness(B, 3).zeta_blocks
        assert z[2].is_zero()

    def test_multiplicative_across_degrees(self):
        B = exterior_line(F5)
        z = build_adjunction_witness(B, 4).zeta_blocks
        for a in range(5):
            for b in range(5 - a):
                assert B.m * z[a].kron(z[b]) == z[a + b]


class TestZetaCoalgebra:
    def test_exterior_line(self):
        assert check_zeta_coalgebra(build_adjunction_witness(exterior_line(RATIONALS), 3)).passed

    def test_group_algebra_trivially(self):
        # no primitives, so everything factors through degree zero
        assert check_zeta_coalgebra(build_adjunction_witness(group_algebra_z2(RATIONALS), 3)).passed

    def test_exterior_line_mod5(self):
        assert check_zeta_coalgebra(build_adjunction_witness(exterior_line(F5), 4)).passed

    def test_corrupted_coproduct_detected(self):
        B = exterior_line(RATIONALS)
        grid = [list(r) for r in B.delta.data]
        grid[0][1] = RATIONALS.element(1)  # make x no longer primitive-compatible
        wrong = BialgebraData(B.field, B.dim, B.m, B.u, ExactMatrix(RATIONALS, grid),
                              B.eps, B.c)
        # the blocks of the correct bialgebra, checked against the wrong coproduct
        rep = check_zeta_coalgebra(replace(build_adjunction_witness(B, 2), bialgebra=wrong))
        assert not rep.passed


class TestTensorPrimitiveTriangles:
    def test_exterior_line(self):
        assert check_triangles_Tbar_P(build_adjunction_witness(exterior_line(RATIONALS), 3))

    def test_group_algebra_vacuous_first_triangle(self):
        assert check_triangles_Tbar_P(build_adjunction_witness(group_algebra_z2(RATIONALS), 3))

    def test_exterior_line_mod5(self):
        assert check_triangles_Tbar_P(build_adjunction_witness(exterior_line(F5), 4))

    @pytest.mark.parametrize("field", [RATIONALS, F5], ids=["Q", "F5"])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_square_one_detected(self, field, N):
        # negative control: with x·x = 1 the product of two primitives is
        # the unit, not a primitive, so ζ_2 cannot factor through P(B)
        B = exterior_line(field)
        m = ExactMatrix(field, [[1, 0, 0, 1], [0, 1, 1, 0]])
        wrong = BialgebraData(field, B.dim, m, B.u, B.delta, B.eps, B.c)
        w = build_adjunction_witness(wrong, N)
        assert check_triangles_Tbar_P(w) is False
        failed = [i.name for i in check_zeta_coalgebra(w).failures()]
        assert failed[:2] == ["comultiplicative[2]", "counital[2]"]


class TestWitness:
    def test_assembly(self):
        B = exterior_line(RATIONALS)
        w = build_adjunction_witness(B, 3)
        space = primitives(B)
        assert w.bialgebra is B
        assert w.space == space
        assert (w.tensor.N, w.tensor.V.dim, w.tensor.V.c) == (3, 1, space.braiding)
        assert len(w.zeta_blocks) == 4
        assert w.zeta_blocks[0] == B.u
        assert w.zeta_blocks[1] == space.inclusion

    def test_free_functor_blocks_commute_with_braiding(self):
        # degree-n block of the induced algebra map is the n-th tensor power
        # of f; for braided f those powers must intertwine the graded
        # braiding blocks of source and target
        from braidalg import basis_change, transport_braided_object

        V = super_braiding(F5, (0, 1))
        g = ExactMatrix(F5, [[1, 0], [2, 3]])
        W = transport_braided_object(basis_change(g), V)
        TV = build_truncated(V, 3)
        TW = build_truncated(W, 3)
        for m in range(4):
            for n in range(4 - m):
                lhs = TW.braiding_block(m, n) * kron_power(g, m).kron(kron_power(g, n))
                rhs = kron_power(g, n).kron(kron_power(g, m)) * TV.braiding_block(m, n)
                assert lhs == rhs, (m, n)
