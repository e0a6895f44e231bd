from dataclasses import replace

import pytest

from braidalg import (
    RATIONALS,
    AlgebraData,
    BadDegree,
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
    primitives,
    primitives_of_tensor,
)
from braidalg.gallery import (
    exterior_line,
    flip_braiding,
    group_algebra_z2,
    scalar_braiding,
    super_braiding,
)
from oracles import iterated_product_rightfold

F5 = prime_field(5)


def _bump_product(A):
    """``A`` with one entry of its product raised by one."""
    grid = [list(r) for r in A.m.data]
    grid[0][0] = A.field.add(grid[0][0], 1)
    return AlgebraData(A.field, A.dim, ExactMatrix(A.field, grid), A.u)


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
    @staticmethod
    def _stock_algebras_pass(field):
        for make in (exterior_line, group_algebra_z2):
            for N in (2, 3, 4):
                assert check_triangles_T_Omega(make(field).algebra, N) is True

    def test_rationals(self):
        self._stock_algebras_pass(RATIONALS)

    def test_mod_five(self):
        self._stock_algebras_pass(F5)

    def test_low_degree_rejected(self):
        with pytest.raises(BadDegree):
            check_triangles_T_Omega(exterior_line(RATIONALS).algebra, 1)

    def test_corrupted_counit_block_detected(self):
        # negative control: one bumped entry of the product breaks the unit
        # law and associativity, so the counit blocks are not multiplicative
        A = group_algebra_z2(RATIONALS).algebra
        assert check_triangles_T_Omega(A, 3) is True
        assert check_triangles_T_Omega(_bump_product(A), 3) is False

    @pytest.mark.parametrize("field", [RATIONALS, F5], ids=["Q", "F5"])
    def test_non_associative_product_detected(self, field):
        # basis 1, x, y with 1 a two-sided unit and xx = y, xy = 0, yx = 1,
        # yy = 0: (xx)x = 1 but x(xx) = 0.  Degree 2 holds only the unit
        # laws, so the fault shows from degree 3 on.
        table = {(1, 1): 2, (2, 1): 0}
        grid = [[0] * 9 for _ in range(3)]
        for i in range(3):
            grid[i][i] = grid[i][3 * i] = 1
        for (i, j), k in table.items():
            grid[k][3 * i + j] = 1
        A = AlgebraData(field, 3, ExactMatrix(field, grid), ExactMatrix(field, [[1], [0], [0]]))
        assert check_triangles_T_Omega(A, 2) is True
        assert check_triangles_T_Omega(A, 3) is False

    @pytest.mark.parametrize("field", [RATIONALS, F5], ids=["Q", "F5"])
    @pytest.mark.parametrize("make", [exterior_line, group_algebra_z2])
    def test_broken_unit_detected(self, make, field):
        # the product is intact but u = 2·(old unit), so m(u ⊗ 1) = 2 ≠ 1
        A = make(field).algebra
        twice = A.u + A.u
        broken = AlgebraData(A.field, A.dim, A.m, twice)
        assert check_triangles_T_Omega(A, 2) is True
        assert check_triangles_T_Omega(broken, 2) is False


class TestPrimitiveUnit:
    def test_isomorphism_onto_degree_one(self):
        for V in (flip_braiding(RATIONALS, 2), scalar_braiding(RATIONALS, 2),
                  super_braiding(RATIONALS, (0, 1))):
            T = build_truncated(V, 2)
            ident = ExactMatrix.identity(V.field, V.dim)
            assert primitives_of_tensor(T, 1) == ident  # so the unit is the identity


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
