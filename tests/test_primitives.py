import pytest

from braidalg import (
    RATIONALS,
    BadDegree,
    BialgebraData,
    ExactMatrix,
    NotAMorphism,
    NotClosedUnderBraiding,
    SpecViolation,
    build_truncated,
    check_yang_baxter,
    induced_map,
    prime_field,
    primitives,
    primitives_of_tensor,
    tensor_primitive_braiding,
    tensor_primitive_dims,
)
from braidalg.gallery import (
    exterior_line,
    flip_braiding,
    group_algebra_z2,
    scalar_braiding,
    super_braiding,
)

from oracles import gaussian_binomial, witt_dimension

F5 = prime_field(5)


def trivial_bialgebra(field):
    one = ExactMatrix.identity(field, 1)
    return BialgebraData(field, 1, one, one, one, one, one)


class TestFiniteDimensional:
    def test_exterior_line(self):
        space = primitives(exterior_line(RATIONALS))
        assert space.dim == 1
        assert space.inclusion == ExactMatrix(RATIONALS, [[0], [1]])
        assert space.braiding == ExactMatrix(RATIONALS, [[-1]])

    def test_group_algebra_has_no_primitives(self):
        # grouplikes are not primitive away from characteristic 2
        assert primitives(group_algebra_z2(RATIONALS)).dim == 0

    def test_trivial_bialgebra(self):
        assert primitives(trivial_bialgebra(RATIONALS)).dim == 0

    def test_counit_vanishes_on_primitives(self):
        for B in (exterior_line(RATIONALS), group_algebra_z2(RATIONALS), exterior_line(F5)):
            space = primitives(B)
            assert (B.eps * space.inclusion).is_zero()

    def test_gate_rejects_non_bialgebra(self):
        B = exterior_line(RATIONALS)
        wrong = BialgebraData(B.field, B.dim, B.m, B.u, B.delta, B.eps,
                              flip_braiding(RATIONALS, 2).c)
        with pytest.raises(SpecViolation):
            primitives(wrong)

    def test_unchecked_braiding_not_closed(self):
        # x⊗x -> 1⊗1 - x⊗x leaves P⊗P = span{x⊗x}, so no restriction exists
        B = exterior_line(RATIONALS)
        c = ExactMatrix(RATIONALS, [[1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
        with pytest.raises(NotClosedUnderBraiding):
            primitives(BialgebraData(B.field, B.dim, B.m, B.u, B.delta, B.eps, c), check=False)

    def test_restricted_braiding_is_yang_baxter(self):
        space = primitives(exterior_line(F5))
        assert check_yang_baxter(space.braided_object()).passed

    def test_one_sided_exchange_factorizations(self):
        # the braiding already exchanges the primitive subspace against the
        # whole space one side at a time: c (xi o 1) factors through 1 o xi
        # and c (1 o xi) factors through xi o 1; these one-sided restrictions
        # compose to the restricted braiding
        for B in (exterior_line(RATIONALS), exterior_line(F5)):
            space = primitives(B)
            ident = ExactMatrix.identity(B.field, B.dim)
            c_pa = ident.kron(space.inclusion).solve(B.c * space.inclusion.kron(ident))
            c_ap = space.inclusion.kron(ident).solve(B.c * ident.kron(space.inclusion))
            # restricting the free side of each must recover the braiding of
            # the primitives
            lhs = space.inclusion.kron(ExactMatrix.identity(B.field, space.dim))
            via = lhs.solve(c_pa * (ExactMatrix.identity(B.field, space.dim)).kron(space.inclusion))
            assert via == space.braiding
            rhs = ExactMatrix.identity(B.field, space.dim).kron(space.inclusion)
            via2 = rhs.solve(c_ap * space.inclusion.kron(ExactMatrix.identity(B.field, space.dim)))
            assert via2 == space.braiding

    def test_characteristic_two_flip_exterior_line(self):
        # over F_2 the signed swap IS the flip and 2 x⊗x = 0, so the
        # exterior line with the plain flip really is a braided bialgebra;
        # its primitive inherits the trivial sign
        F2 = prime_field(2)
        B = exterior_line(F2)
        flip_c = flip_braiding(F2, 2).c
        assert B.c == flip_c
        from braidalg import check_braided_bialgebra

        assert check_braided_bialgebra(B).passed
        space = primitives(B)
        assert space.dim == 1
        assert space.braiding == ExactMatrix(F2, [[1]])


class TestGradedDimensions:
    def test_degree_one_is_everything(self):
        for V in (flip_braiding(RATIONALS, 2), super_braiding(RATIONALS, (0, 1)),
                  scalar_braiding(F5, 2)):
            T = build_truncated(V, 2)
            assert primitives_of_tensor(T, 1) == ExactMatrix.identity(V.field, V.dim)

    def test_flip_dims_match_free_lie_dimensions(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 4)
        dims = tensor_primitive_dims(T)
        assert dims == [2, 1, 2, 3]
        assert dims == [witt_dimension(2, n) for n in range(1, 5)]

    def test_flip_d3_dims(self):
        T = build_truncated(flip_braiding(RATIONALS, 3), 3)
        assert tensor_primitive_dims(T) == [witt_dimension(3, n) for n in range(1, 4)]

    def test_scalar_q1_mod2_dims(self):
        # classical binomials mod 2: new primitives exactly at 2-power
        # degrees, the divided-power pattern
        F2 = prime_field(2)
        T = build_truncated(scalar_braiding(F2, 1), 4)
        assert tensor_primitive_dims(T) == [1, 1, 0, 1]

    def test_scalar_q2_mod5_dims(self):
        T = build_truncated(scalar_braiding(F5, 2), 4)
        assert tensor_primitive_dims(T) == [1, 0, 0, 1]
        # cross-check: degree n is primitive iff every interior Gaussian
        # binomial at q = 2 vanishes mod 5
        for n in range(1, 5):
            interior = [gaussian_binomial(n, k, 2) % 5 for k in range(1, n)]
            expected = 1 if all(v == 0 for v in interior) else 0
            assert primitives_of_tensor(T, n).cols == expected

    def test_degree_two_flip_basis(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 2)
        basis = primitives_of_tensor(T, 2)
        assert basis == ExactMatrix(RATIONALS, [[0], [1], [-1], [0]])

    def test_degree_gate(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 2)
        with pytest.raises(BadDegree):
            primitives_of_tensor(T, 0)
        with pytest.raises(BadDegree):
            primitives_of_tensor(T, 3)


class TestGradedBraiding:
    def test_degree_one_restriction_is_the_braiding(self):
        V = flip_braiding(RATIONALS, 2)
        T = build_truncated(V, 2)
        assert tensor_primitive_braiding(T, 1, 1) == V.c

    def test_degree_two_restriction(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 4)
        assert tensor_primitive_braiding(T, 2, 2) == ExactMatrix(RATIONALS, [[1]])

    def test_restrictions_satisfy_yang_baxter(self):
        from braidalg import BraidedObject

        T = build_truncated(super_braiding(RATIONALS, (0, 1)), 3)
        for n in (1, 2, 3):
            basis = primitives_of_tensor(T, n)
            if basis.cols == 0:
                continue
            c = tensor_primitive_braiding(T, n, n)
            assert check_yang_baxter(BraidedObject(RATIONALS, basis.cols, c)).passed

    def test_flip_restriction_is_the_flip_of_the_subspaces(self):
        # the plain swap is natural, so through any inclusions it restricts
        # to the plain swap of the subspaces in their canonical bases; this
        # matches the base-category braiding computed with no recursion
        T = build_truncated(flip_braiding(RATIONALS, 2), 4)
        dims = {n: primitives_of_tensor(T, n).cols for n in (1, 2, 3)}
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                got = tensor_primitive_braiding(T, m, n)
                swap = [[0] * (dims[m] * dims[n]) for _ in range(dims[m] * dims[n])]
                for i in range(dims[m]):
                    for j in range(dims[n]):
                        swap[j * dims[m] + i][i * dims[n] + j] = 1
                assert got == ExactMatrix(RATIONALS, swap), (m, n)

    def test_super_restriction_matches_parity_sign(self):
        # exterior line: the primitive x is odd, so the inherited braiding
        # is the sign the base symmetry assigns to odd past odd
        space = primitives(exterior_line(RATIONALS))
        assert space.braiding == ExactMatrix(RATIONALS, [[-1]])


class TestInducedMaps:
    def test_identity_functoriality(self):
        B = exterior_line(RATIONALS)
        f = ExactMatrix.identity(RATIONALS, 2)
        assert induced_map(f, B, B) == ExactMatrix.identity(RATIONALS, 1)

    def test_unit_morphism_from_trivial(self):
        B = exterior_line(RATIONALS)
        K = trivial_bialgebra(RATIONALS)
        pf = induced_map(B.u, K, B)
        assert (pf.rows, pf.cols) == (1, 0)

    def test_composition(self):
        from braidalg import basis_change, transport_bialgebra

        B = exterior_line(F5)
        g1 = ExactMatrix(F5, [[1, 0], [2, 1]])
        g2 = ExactMatrix(F5, [[3, 0], [1, 2]])
        B1 = transport_bialgebra(basis_change(g1), B)
        B2 = transport_bialgebra(basis_change(g2 * g1), B)
        f1 = g1                   # morphism B -> B1
        f2 = (g2 * g1) * g1.inverse()  # morphism B1 -> B2
        lhs = induced_map(f2 * f1, B, B2)
        rhs = induced_map(f2, B1, B2) * induced_map(f1, B, B1)
        assert lhs == rhs

    def test_naturality_square(self):
        from braidalg import basis_change, transport_bialgebra

        B = exterior_line(F5)
        g = ExactMatrix(F5, [[1, 1], [0, 1]])
        B2 = transport_bialgebra(basis_change(g), B)
        space, space2 = primitives(B), primitives(B2)
        pf = induced_map(g, B, B2)
        assert space2.inclusion * pf == g * space.inclusion

    def test_rejects_non_morphism(self):
        B = exterior_line(RATIONALS)
        Z = group_algebra_z2(RATIONALS)
        with pytest.raises(NotAMorphism):
            induced_map(ExactMatrix.identity(RATIONALS, 2), B, Z)
