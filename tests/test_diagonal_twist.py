"""A genuinely non-involutive braiding in dimension 2: the diagonal twist.

Everything else in the gallery at d >= 2 is a symmetry, so this family is
what exercises the braided machinery away from the classical case.
"""

from braidalg import (
    RATIONALS,
    BraidRepCache,
    ExactMatrix,
    build_truncated,
    check_hexagon,
    check_truncated_axioms,
    check_yang_baxter,
    prime_field,
    primitives_of_tensor,
    tensor_primitive_dims,
)
from braidalg.gallery import diagonal_twist_braiding

from oracles import OracleBraidRepCache

F5 = prime_field(5)

# q00 = -1 makes e0 x e0 a degree-2 primitive; q01*q10 = 1 gives the pair
# block eigenvalue -1 once; q11 = 2 contributes nothing.
COEFFS = [[4, 2], [3, 2]]


def twist():
    return diagonal_twist_braiding(F5, COEFFS)


class TestDiagonalTwist:
    def test_is_yang_baxter_but_not_a_symmetry(self):
        V = twist()
        assert check_yang_baxter(V).passed
        assert V.c * V.c != ExactMatrix.identity(F5, 4)

    def test_dual_schedules_agree(self):
        V = twist()
        left = BraidRepCache(V)
        right = OracleBraidRepCache(V)
        for m in range(6):
            for n in range(6 - m):
                assert left.block(m, n) == right.block(m, n), (m, n)

    def test_hexagons(self):
        V = twist()
        cache = BraidRepCache(V)
        for l in range(6):
            for m in range(6 - l):
                for n in range(6 - l - m):
                    assert check_hexagon(l, m, n, V, cache), (l, m, n)

    def test_truncated_axiom_suite(self):
        assert check_truncated_axioms(build_truncated(twist(), 3)).passed

    def test_degree_two_primitives_by_eigenvalue_analysis(self):
        # the middle coproduct block in degree 2 is 1 + c, so degree-2
        # primitives are the eigenvalue -1 subspace of c: e0 x e0 needs
        # q00 = -1 (true: 4), e1 x e1 needs q11 = -1 (false: 2), and on
        # span{e0 x e1, e1 x e0} the square scales by q01*q10 = 6 = 1,
        # giving eigenvalues +-1 and exactly one kernel vector
        V = twist()
        T = build_truncated(V, 3)
        ident = ExactMatrix.identity(F5, 4)
        assert T.coproduct_block(1, 2) == ident + V.c
        basis = primitives_of_tensor(T, 2)
        assert basis.cols == 2
        for col in range(2):
            vec = ExactMatrix(F5, [[basis[i, col]] for i in range(4)])
            assert (V.c * vec + vec).is_zero()

    def test_rationals_variant_dims(self):
        # over Q with q00 = -1, q01 = 2, q10 = 1/2, q11 = 3: again
        # q01*q10 = 1, so the same degree-2 count comes out
        V = diagonal_twist_braiding(RATIONALS, [[-1, 2], ["1/2", 3]])
        assert check_yang_baxter(V).passed
        T = build_truncated(V, 3)
        assert tensor_primitive_dims(T)[1] == 2

    def test_scale_truncation_degree_six(self):
        # the d = 2, N = 6 scale point: blocks reach 64 x 64 and the graded
        # primitive dimensions of the flip match the free Lie algebra
        from braidalg.gallery import flip_braiding
        from oracles import witt_dimension

        T = build_truncated(flip_braiding(RATIONALS, 2), 6)
        assert tensor_primitive_dims(T) == [witt_dimension(2, n) for n in range(1, 7)]
