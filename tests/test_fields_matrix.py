from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg import (
    RATIONALS,
    ExactMatrix,
    FieldMismatch,
    LinearSolveError,
    NotInvertible,
    ShapeError,
    prime_field,
    vstack,
    whisker,
)
from braidalg.matrix import stack_rows
from braidalg.gallery import flip_braiding

from oracles import reduced

F5 = prime_field(5)


def mat(field, rows):
    return ExactMatrix(field, rows)


class TestFieldSpec:
    def test_prime_gate(self):
        with pytest.raises(ValueError):
            prime_field(6)
        with pytest.raises(ValueError):
            prime_field(1)
        prime_field(2)
        prime_field(97)

    def test_parse_format_roundtrip(self):
        assert RATIONALS.parse("-3/6") == Fraction(-1, 2)
        assert RATIONALS.format(RATIONALS.parse("-3/6")) == "-1/2"
        assert RATIONALS.parse("4/2") == 2
        assert RATIONALS.format(RATIONALS.parse("4/2")) == "2"
        assert F5.parse("7") == 2
        assert F5.format(F5.parse("-1")) == "4"

    def test_bool_is_not_a_scalar(self):
        for field in (RATIONALS, F5):
            for flag in (True, False):
                with pytest.raises(TypeError):
                    field.element(flag)

    def test_inverse(self):
        assert F5.inv(2) == 3
        assert RATIONALS.inv(Fraction(2, 3)) == Fraction(3, 2)
        with pytest.raises(NotInvertible):
            F5.inv(0)
        with pytest.raises(NotInvertible):
            RATIONALS.inv(0)

    @given(st.integers(-50, 50), st.integers(1, 50), st.integers(-50, 50), st.integers(1, 50))
    def test_reduction_invariant(self, a, b, c, d):
        x = RATIONALS.element(Fraction(a, b))
        y = RATIONALS.element(Fraction(c, d))
        for value in (RATIONALS.add(x, y), RATIONALS.mul(x, y), RATIONALS.sub(x, y)):
            assert reduced(value)


class TestKron:
    def test_identity_case(self):
        assert ExactMatrix.identity(RATIONALS, 2).kron(ExactMatrix.identity(RATIONALS, 3)) \
            == ExactMatrix.identity(RATIONALS, 6)

    def test_one_by_one(self):
        assert mat(RATIONALS, [[2]]).kron(mat(RATIONALS, [[3]])) == mat(RATIONALS, [[6]])

    def test_triple_path_dims(self):
        c = flip_braiding(RATIONALS, 2).c
        ident = ExactMatrix.identity(RATIONALS, 2)
        left = c.kron(ident) * ident.kron(c) * c.kron(ident)
        right = ident.kron(c) * c.kron(ident) * ident.kron(c)
        assert (left.rows, left.cols) == (8, 8)
        assert left == right

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            ExactMatrix.identity(RATIONALS, 2).kron(ExactMatrix.identity(F5, 2))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_associative(self, data):
        entries = st.integers(-3, 3)
        def small(rows, cols):
            return mat(RATIONALS, data.draw(
                st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
        a, b, c = small(2, 1), small(1, 2), small(2, 2)
        assert a.kron(b).kron(c) == a.kron(b.kron(c))

    def test_index_convention(self):
        a = mat(RATIONALS, [[1, 2], [3, 4]])
        b = mat(RATIONALS, [[0, 5], [6, 7]])
        out = a.kron(b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert out[i * 2 + k, j * 2 + l] == a[i, j] * b[k, l]


def typed_cells(m):
    return [[(type(x), x) for x in row] for row in m.data]


class TestWhisker:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_identity_krons(self, data):
        # the sum of two draws yields unreduced cells such as Fraction(1, 1)
        # and Fraction(0, 1), whose Python type must survive as kron leaves it
        field = data.draw(st.sampled_from([RATIONALS, F5]))
        rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        scalar = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        def draw():
            return ExactMatrix(field, data.draw(st.lists(
                st.lists(scalar, min_size=cols, max_size=cols), min_size=rows, max_size=rows)),
                rows=rows, cols=cols)
        X = draw() + draw()
        for a in range(4):
            for b in range(4):
                expected = ExactMatrix.identity(field, a).kron(X).kron(ExactMatrix.identity(field, b))
                got = whisker(a, X, b)
                assert (got.rows, got.cols) == (expected.rows, expected.cols)
                assert typed_cells(got) == typed_cells(expected)

    def test_empty_operands(self):
        for rows, cols in ((0, 2), (2, 0), (0, 0)):
            X = ExactMatrix.zeros(F5, rows, cols)
            for a in range(4):
                for b in range(4):
                    got = whisker(a, X, b)
                    assert (got.rows, got.cols) == (a * rows * b, a * cols * b)


class TestStackRows:
    def test_matches_vstack_fold(self):
        parts = [mat(F5, [[1, 2, 3]]), ExactMatrix.zeros(F5, 0, 3), mat(F5, [[4, 0, 1], [2, 2, 2]])]
        expected = ExactMatrix.zeros(F5, 0, 3)
        for m in parts:
            expected = vstack(expected, m)
        assert stack_rows(parts, F5, 3) == expected

    def test_empty_list_keeps_columns(self):
        out = stack_rows([], RATIONALS, 4)
        assert (out.rows, out.cols) == (0, 4)
        assert out == ExactMatrix.zeros(RATIONALS, 0, 4)

    def test_gates(self):
        with pytest.raises(ShapeError):
            stack_rows([mat(F5, [[1, 2]])], F5, 3)
        with pytest.raises(FieldMismatch):
            stack_rows([mat(F5, [[1, 2]])], RATIONALS, 2)


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        ns = ExactMatrix.identity(RATIONALS, 4).nullspace()
        assert (ns.rows, ns.cols) == (4, 0)

    def test_zero_matrix_gives_identity(self):
        assert ExactMatrix.zeros(RATIONALS, 2, 2).nullspace() == ExactMatrix.identity(RATIONALS, 2)

    def test_row_vector(self):
        ns = mat(RATIONALS, [[1, 1]]).nullspace()
        assert ns == mat(RATIONALS, [[1], [-1]])
        assert (mat(RATIONALS, [[1, 1]]) * ns).is_zero()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity_and_annihilation(self, data):
        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(1, 4))
        field = data.draw(st.sampled_from([RATIONALS, F5]))
        m = mat(field, data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))
        ns = m.nullspace()
        assert (m * ns).is_zero()
        assert m.rank() + ns.cols == cols

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_canonical_under_row_operations(self, data):
        # equal row spaces must give bit-identical kernels
        cols = data.draw(st.integers(2, 4))
        m = mat(RATIONALS, data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            min_size=2, max_size=3)))
        scaled = ExactMatrix(RATIONALS, [[3 * x for x in m.data[0]]] + [list(r) for r in m.data[1:]])
        mixed_rows = [list(r) for r in m.data]
        mixed_rows[-1] = [x + 2 * y for x, y in zip(mixed_rows[-1], mixed_rows[0])]
        mixed = ExactMatrix(RATIONALS, mixed_rows)
        assert m.nullspace() == scaled.nullspace() == mixed.nullspace()


class TestInverseAndSolve:
    def test_identity(self):
        ident = ExactMatrix.identity(RATIONALS, 4)
        assert ident.inverse() == ident

    def test_mod5(self):
        assert mat(F5, [[2]]).inverse() == mat(F5, [[3]])

    def test_flip_is_an_involution(self):
        c = flip_braiding(RATIONALS, 2).c
        assert c.inverse() == c
        assert c * c == ExactMatrix.identity(RATIONALS, 4)

    def test_singular_raises(self):
        with pytest.raises(NotInvertible):
            mat(RATIONALS, [[1, 2], [2, 4]]).inverse()
        with pytest.raises(NotInvertible):
            mat(RATIONALS, [[1, 2]]).inverse()

    def test_solve_unique(self):
        a = mat(RATIONALS, [[1, 0], [1, 1], [0, 2]])
        x = mat(RATIONALS, [[3], [5]])
        assert a.solve(a * x) == x

    def test_solve_inconsistent(self):
        a = mat(RATIONALS, [[1], [1]])
        with pytest.raises(LinearSolveError):
            a.solve(mat(RATIONALS, [[1], [2]]))

    def test_solve_underdetermined(self):
        a = mat(RATIONALS, [[1, 1]])
        with pytest.raises(LinearSolveError):
            a.solve(mat(RATIONALS, [[1]]))

    def test_zero_dimensional(self):
        empty = ExactMatrix.zeros(RATIONALS, 2, 0)
        sol = empty.solve(ExactMatrix.zeros(RATIONALS, 2, 0))
        assert (sol.rows, sol.cols) == (0, 0)
        with pytest.raises(LinearSolveError):
            empty.solve(mat(RATIONALS, [[1], [0]]))
        ident0 = ExactMatrix.identity(RATIONALS, 0)
        assert ident0.inverse() == ident0

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            mat(RATIONALS, [[1]]) * mat(RATIONALS, [[1, 2], [3, 4]])
        with pytest.raises(ShapeError):
            mat(RATIONALS, [[1]]) + mat(RATIONALS, [[1, 2]])


class TestSerialization:
    def test_string_roundtrip(self):
        m = mat(RATIONALS, [["1/2", "-3"], ["0", "7/3"]])
        again = ExactMatrix(RATIONALS, m.to_strings())
        assert again == m
        assert m.to_strings() == [["1/2", "-3"], ["0", "7/3"]]

    def test_prime_field_strings(self):
        m = mat(F5, [[7, -1]])
        assert m.to_strings() == [["2", "4"]]
