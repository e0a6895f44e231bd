import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg import (
    RATIONALS,
    AlgebraData,
    BialgebraData,
    BraidedAlgebra,
    BraidedObject,
    BraidRepCache,
    ExactMatrix,
    FieldMismatch,
    ProductAlgebraSpec,
    ShapeError,
    SpecViolation,
    check_algebra,
    check_braided_algebra,
    check_braided_bialgebra,
    check_braided_coalgebra,
    check_braided_morphism,
    check_coalgebra,
    check_yang_baxter,
    double_braiding,
    iterated_products,
    prime_field,
    product_algebra,
)
from braidalg.gallery import (
    all_gradings,
    braiding_gallery,
    corrupted_flip,
    exterior_line,
    flip_braiding,
    group_algebra_z2,
    scalar_braiding,
    super_braiding,
)
from braidalg.serialize import bialgebra_to_json

from oracles import exterior_square_table, qybe_brute

F5 = prime_field(5)


class TestYangBaxter:
    def test_flip_passes_up_to_dim3(self):
        for d in (1, 2, 3):
            assert check_yang_baxter(flip_braiding(RATIONALS, d)).passed

    def test_super_passes_all_gradings_up_to_dim3(self):
        for d in (1, 2, 3):
            for grading in all_gradings(d):
                assert check_yang_baxter(super_braiding(RATIONALS, grading)).passed

    def test_scalar_passes(self):
        for field in (RATIONALS, F5):
            for q in (1, 2, -1):
                assert check_yang_baxter(scalar_braiding(field, q)).passed

    def test_corrupted_flip_fails_with_location(self):
        rep = check_yang_baxter(corrupted_flip(RATIONALS))
        assert not rep.passed
        bad = rep.failures()[0]
        assert bad.name == "yang_baxter"
        assert "first difference at (" in bad.detail

    def test_agreement_with_brute_force(self):
        for name, V in braiding_gallery():
            expect, _ = qybe_brute([list(r) for r in V.c.data], V.dim)
            assert check_yang_baxter(V).passed == expect, name
        bad = corrupted_flip(RATIONALS)
        assert qybe_brute([list(r) for r in bad.c.data], 2)[0] is False

    def test_inverse_braiding_also_passes(self):
        for name, V in braiding_gallery():
            assert check_yang_baxter(BraidedObject(V.c_inv)).passed, name

    def test_shape_gate(self):
        # a braiding that is not d^2 x d^2 for some d is refused when the object is made
        with pytest.raises(ShapeError, match="got 3x3"):
            BraidedObject(ExactMatrix.identity(RATIONALS, 3))
        with pytest.raises(ShapeError, match="got 5x5"):
            BraidedObject(ExactMatrix.identity(RATIONALS, 5))
        with pytest.raises(ShapeError, match="got 4x9"):
            BraidedObject(ExactMatrix.zeros(RATIONALS, 4, 9))


class TestBraidedMorphism:
    def test_identity(self):
        V = flip_braiding(RATIONALS, 2)
        assert check_braided_morphism(ExactMatrix.identity(RATIONALS, 2), V, V)

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_flip_naturality(self, rows):
        # every linear map between flip-braided spaces is braided
        f = ExactMatrix(RATIONALS, rows)
        V = flip_braiding(RATIONALS, 2)
        W = flip_braiding(RATIONALS, 3)
        assert check_braided_morphism(f, V, W)

    def test_scalar_into_flip_fails_for_nontrivial_scalar(self):
        f = ExactMatrix(RATIONALS, [[1], [0]])
        W = flip_braiding(RATIONALS, 2)
        assert not check_braided_morphism(f, scalar_braiding(RATIONALS, 2), W)
        assert check_braided_morphism(f, scalar_braiding(RATIONALS, 1), W)

    def test_shape_gate(self):
        V = flip_braiding(RATIONALS, 2)
        with pytest.raises(ShapeError):
            check_braided_morphism(ExactMatrix.identity(RATIONALS, 3), V, V)


class TestBraidedAlgebra:
    def test_group_algebra_with_flip(self):
        B = group_algebra_z2(RATIONALS)
        assert check_algebra(B).passed
        assert check_braided_algebra(B, B.c).passed

    def test_exterior_line_with_super(self):
        B = exterior_line(RATIONALS)
        assert check_braided_algebra(B, B.c).passed

    def test_any_algebra_with_flip_is_braided(self):
        # the flip is natural, so the compatibility squares hold for every
        # algebra; the exterior line with flip only breaks later, at the
        # bialgebra exchange law (see the bialgebra tests)
        B = exterior_line(RATIONALS)
        assert check_braided_algebra(B, flip_braiding(RATIONALS, 2).c).passed

    def test_scalar_braiding_on_unit_algebra_needs_q_one(self):
        one = ExactMatrix.identity(RATIONALS, 1)
        A = AlgebraData(one, one)
        assert check_braided_algebra(A, scalar_braiding(RATIONALS, 1).c).passed
        rep = check_braided_algebra(A, scalar_braiding(RATIONALS, 2).c)
        assert not rep.passed  # both compatibility routes force q = q^2

    @pytest.mark.parametrize("field", [RATIONALS, F5], ids=["Q", "F5"])
    @pytest.mark.parametrize("make", [exterior_line, group_algebra_z2])
    def test_bialgebra_is_an_algebra(self, make, field):
        # a bialgebra is passed wherever an algebra is read, and reads as its (m, u)
        B = make(field)
        A = AlgebraData(B.m, B.u)
        assert check_algebra(B) == check_algebra(A)
        assert iterated_products(B, 4) == iterated_products(A, 4)


class TestBraidedCoalgebra:
    def test_space_is_read_from_the_coproduct(self):
        B = exterior_line(RATIONALS)
        assert check_coalgebra(B.delta, B.eps).passed
        # a coproduct on a 2-dimensional space must have 4 rows
        delta = ExactMatrix(RATIONALS, [[1, 0], [0, 1], [0, 1]])
        with pytest.raises(ShapeError):
            check_coalgebra(delta, B.eps)

    def test_trivial_coalgebra(self):
        one = ExactMatrix.identity(RATIONALS, 1)
        rep = check_braided_coalgebra(one, one, scalar_braiding(RATIONALS, 1).c)
        assert rep.passed
        # the counit law composed with the braiding forces q = 1 on a line
        rep = check_braided_coalgebra(one, one, scalar_braiding(RATIONALS, 2).c)
        assert not rep.passed

    def test_exterior_line(self):
        B = exterior_line(RATIONALS)
        assert check_braided_coalgebra(B.delta, B.eps, B.c).passed

    def test_any_coalgebra_with_flip_is_braided(self):
        # naturality of the flip again; breaking happens only at the
        # bialgebra exchange law
        B = exterior_line(RATIONALS)
        rep = check_braided_coalgebra(B.delta, B.eps, flip_braiding(RATIONALS, 2).c)
        assert rep.passed


class TestBraidedBialgebra:
    @pytest.mark.parametrize("field", [RATIONALS, F5], ids=["Q", "F5"])
    def test_field_is_the_maps_field(self, field):
        # no label to disagree with the maps: the field and dimension are read off them
        E = exterior_line(field)
        B = BialgebraData(E.m, E.u, E.delta, E.eps, E.c)
        assert (B.field, B.dim) == (field, 2)
        assert (B.braided_object().field, B.braided_object().dim) == (field, 2)
        assert bialgebra_to_json(B)["field"] == ({"kind": "rationals"} if field is RATIONALS
                                                 else {"kind": "prime", "p": 5})

    def test_exterior_line_super(self):
        for field in (RATIONALS, F5):
            assert check_braided_bialgebra(exterior_line(field)).passed

    def test_group_algebra(self):
        assert check_braided_bialgebra(group_algebra_z2(RATIONALS)).passed

    def test_exterior_line_with_flip_fails_product_coproduct_exchange(self):
        B = exterior_line(RATIONALS)
        wrong = BialgebraData(B.m, B.u, B.delta, B.eps,
                              flip_braiding(RATIONALS, 2).c)
        rep = check_braided_bialgebra(wrong)
        names = {item.name for item in rep.failures()}
        assert "coproduct_of_product" in names

    def test_inverse_braiding_coalgebra_compatibilities(self):
        # rewriting the braided-coalgebra laws for the inverse braiding
        B = exterior_line(RATIONALS)
        c_inv = B.c.inverse()
        ident = ExactMatrix.identity(B.field, B.dim)
        lhs = ident.kron(c_inv) * c_inv.kron(ident) * ident.kron(B.delta)
        assert lhs == B.delta.kron(ident) * c_inv
        lhs = c_inv.kron(ident) * ident.kron(c_inv) * B.delta.kron(ident)
        assert lhs == ident.kron(B.delta) * c_inv
        assert B.u.kron(ident) == c_inv * ident.kron(B.u)
        assert ident.kron(B.u) == c_inv * B.u.kron(ident)


class TestConstructionChecks:
    """Each map of an algebra, a braided algebra or a bialgebra is checked
    against ``m`` when the structure is made."""

    def test_maps_over_another_field_are_refused(self):
        Q, P = exterior_line(RATIONALS), exterior_line(F5)
        with pytest.raises(FieldMismatch, match=r"^delta is over F_5, m over Q$"):
            BialgebraData(Q.m, Q.u, P.delta, P.eps, P.c)
        with pytest.raises(FieldMismatch, match=r"^u is over Q, m over F_5$"):
            AlgebraData(P.m, Q.u)

    @pytest.mark.parametrize("name", ["m", "u", "delta", "eps", "c"])
    def test_a_map_of_the_wrong_shape_is_named(self, name):
        B = exterior_line(RATIONALS)
        maps = {key: getattr(B, key) for key in ("m", "u", "delta", "eps", "c")}
        good = maps[name]
        maps[name] = ExactMatrix.zeros(RATIONALS, good.rows, good.cols + 1)
        with pytest.raises(ShapeError, match=rf"^{name} must be {good.rows}x{good.cols} on dimension 2, "
                                             rf"got {good.rows}x{good.cols + 1}$"):
            BialgebraData(**maps)

    def test_braided_algebra_refuses_a_braiding_of_another_dimension(self):
        B = exterior_line(RATIONALS)
        with pytest.raises(ShapeError, match=r"^c must be 4x4 on dimension 2, got 9x9$"):
            BraidedAlgebra(B.m, B.u, flip_braiding(RATIONALS, 3).c)

    def test_well_made_structures_pass(self):
        B = exterior_line(F5)
        assert BraidedAlgebra(B.m, B.u, B.c).c == B.c
        assert BialgebraData(B.m, B.u, B.delta, B.eps, B.c) == B


def trivial_algebra(field):
    one = ExactMatrix.identity(field, 1)
    return AlgebraData(one, one)


class TestProductAlgebra:
    def test_trivial(self):
        A = trivial_algebra(RATIONALS)
        one = ExactMatrix.identity(RATIONALS, 1)
        spec = ProductAlgebraSpec(A, A, {(i, j): one for i in (1, 2) for j in (1, 2)})
        out = product_algebra(spec)
        assert out.dim == 1
        assert check_braided_algebra(out, out.c).passed

    def test_exterior_line_square_against_table(self):
        B = exterior_line(RATIONALS)
        spec = ProductAlgebraSpec(B, B,
                                  {(i, j): B.c for i in (1, 2) for j in (1, 2)})
        out = product_algebra(spec)
        assert out.dim == 4
        assert check_algebra(out).passed
        assert check_braided_algebra(out, out.c).passed
        expected = ExactMatrix(RATIONALS, exterior_square_table(-1))
        assert out.m == expected

    def test_gate_names_failed_equation(self):
        B = exterior_line(RATIONALS)
        ident4 = ExactMatrix.identity(RATIONALS, 4)
        spec = ProductAlgebraSpec(B, B,
                                  {(i, j): ident4 for i in (1, 2) for j in (1, 2)})
        with pytest.raises(SpecViolation, match="c21"):
            product_algebra(spec)

    def test_square_zero_truncation_pieces(self):
        # the degree <=1 part of the tensor algebra on V: products of two
        # positive-degree elements truncate to zero, the braiding acts by
        # graded blocks (plain swaps against degree 0, c inside degree 1)
        def square_zero(V):
            d, f = V.dim, V.field
            n = 1 + d
            m = [[0] * (n * n) for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    if a == 0:
                        m[b][a * n + b] = 1
                    elif b == 0:
                        m[a][a * n + b] = 1
            u = [[1]] + [[0]] * d
            c = [[0] * (n * n) for _ in range(n * n)]
            for a in range(n):
                for b in range(n):
                    col = a * n + b
                    if a == 0 or b == 0:
                        c[b * n + a][col] = 1
                    else:
                        for row in range(d * d):
                            coeff = V.c.data[row][(a - 1) * d + (b - 1)]
                            if coeff != 0:
                                i, j = divmod(row, d)
                                c[(i + 1) * n + (j + 1)][col] = coeff
            return (AlgebraData(ExactMatrix(f, m), ExactMatrix(f, u)),
                    ExactMatrix(f, c))

        for V in (flip_braiding(RATIONALS, 2), super_braiding(RATIONALS, (0, 1))):
            A, c = square_zero(V)
            assert check_braided_algebra(A, c).passed
            spec = ProductAlgebraSpec(A, A, {(i, j): c for i in (1, 2) for j in (1, 2)})
            out = product_algebra(spec)
            assert check_algebra(out).passed
            assert check_braided_algebra(out, out.c).passed

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_randomized_conjugates_stay_valid(self, seed):
        # conjugating a valid spec by a random change of basis keeps it valid
        import random

        rng = random.Random(seed)
        B = exterior_line(F5)
        while True:
            g = ExactMatrix(F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
            try:
                g_inv = g.inverse()
                break
            except Exception:
                continue
        gg = g.kron(g)
        gg_inv = g_inv.kron(g_inv)
        A = AlgebraData(g * B.m * gg_inv, g * B.u)
        c = gg * B.c * gg_inv
        spec = ProductAlgebraSpec(A, A, {(i, j): c for i in (1, 2) for j in (1, 2)})
        out = product_algebra(spec)
        assert check_algebra(out).passed
        assert check_braided_algebra(out, out.c).passed


class TestDoubleBraiding:
    def test_trivial(self):
        A = trivial_algebra(RATIONALS)
        out = double_braiding(A, ExactMatrix.identity(RATIONALS, 1))
        assert out.dim == 1
        assert out.c == ExactMatrix.identity(RATIONALS, 1)

    def test_scalar_fourth_power_formula(self):
        # the exchange blocks of A⊗A: c^{2,1} and c^{1,2} against A, c^{2,2} its braiding
        cache = BraidRepCache(scalar_braiding(RATIONALS, 3))
        assert cache.block(2, 1) == ExactMatrix(RATIONALS, [[9]])
        assert cache.block(1, 2) == ExactMatrix(RATIONALS, [[9]])
        assert cache.block(2, 2) == ExactMatrix(RATIONALS, [[81]])

    def test_exterior_line(self):
        B = exterior_line(RATIONALS)
        out = double_braiding(B, B.c)
        assert out.dim == 4
        assert check_braided_algebra(out, out.c).passed
        V = BraidedObject(out.c)
        assert check_yang_baxter(V).passed

    def test_gate(self):
        # c(m⊗1) = 2 but (1⊗m)(c⊗1)(1⊗c) = 4: the product law fails
        A = trivial_algebra(RATIONALS)
        with pytest.raises(SpecViolation, match=r"^c21 fails for \(i,j\)=\(1,1\)$"):
            double_braiding(A, scalar_braiding(RATIONALS, 2).c)

    def test_double_braiding_qybe_inherited(self):
        # product_algebra assembles c^{2,2} from the four exchange operators;
        # BraidRepCache builds it by its own recursion
        for field in (RATIONALS, F5):
            for B in (exterior_line(field), group_algebra_z2(field)):
                out = double_braiding(B, B.c)
                assert out.c == BraidRepCache(B.braided_object()).block(2, 2)
                assert check_yang_baxter(BraidedObject(out.c)).passed
