import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg import (
    RATIONALS,
    BraidAlgError,
    ExactMatrix,
    FieldMismatch,
    LinearSolveError,
    NotInvertible,
    ShapeError,
    prime_field,
    whisker,
)
from braidalg.fields import MR_BOUND, FieldSpec, is_prime
from braidalg.matrix import column_basis, hstack, stack_rows
from braidalg.gallery import flip_braiding
from braidalg.serialize import SchemaError, field_from_json, matrix_from_json

from braidalg.braided import compare
from oracles import (
    dense_add,
    dense_compare,
    dense_kron,
    dense_mul,
    dense_rref,
    dense_sub,
    dense_transpose,
    dense_whisker,
    from_dense,
    noncanonical_cells,
    reduced,
)

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

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(10 ** 5) if is_prime(n)] == [n for n in range(10 ** 5) if trial(n)]

    def test_carmichael_numbers_rejected(self):
        # Fermat liars to every coprime base; Miller-Rabin must still refuse them
        for n in (561, 41041, 825265):
            assert not is_prime(n)
            with pytest.raises(ValueError):
                prime_field(n)

    def test_strong_pseudoprimes_rejected(self):
        # psi_k, the least strong pseudoprime to the first k prime bases
        # (OEIS A014233), for k = 1, 2, 3, 4, 5, 6, 7 = 8, 9 = 10 = 11 and 12;
        # psi_12 passes every base below 41, so the thirteenth base is needed
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
            with pytest.raises(ValueError, match="prime"):
                prime_field(n)
        # psi_13 is the bound itself, where the test stops being known exact
        assert MR_BOUND == 3317044064679887385961981
        with pytest.raises(ValueError, match="too large"):
            is_prime(MR_BOUND)

    def test_large_moduli(self):
        start = time.perf_counter()
        assert prime_field(10 ** 17 + 3).p == 10 ** 17 + 3
        assert not is_prime(10 ** 17 + 1)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(ValueError, match="too large"):
            prime_field(MR_BOUND + 2)

    @pytest.mark.parametrize("p", ["7", 7.0, True, None])
    def test_modulus_must_be_an_int(self, p):
        with pytest.raises(ValueError, match=f"^{re.escape(f'modulus must be an integer, got {p!r}')}$"):
            prime_field(p)

    @pytest.mark.parametrize("p", [None, 2, 5, 2 ** 61 - 1])
    def test_a_field_is_its_modulus(self, p):
        field = RATIONALS if p is None else prime_field(p)
        assert FieldSpec(p) == field and hash(FieldSpec(p)) == hash(field)
        assert FieldSpec.from_json(field.to_json()) == field
        assert FieldSpec() == RATIONALS

    @pytest.mark.parametrize("obj, message", [
        (None, "'field' must be an object"),
        ("q", "'field' must be an object"),
        ([], "'field' must be an object"),
        ({}, "'field': unknown field kind None"),
        ({"kind": "reals"}, "'field': unknown field kind 'reals'"),
        ({"kind": "prime"}, "'field': modulus must be an integer, got None"),
        ({"kind": "prime", "p": 4}, "'field': modulus must be prime, got 4"),
        ({"kind": "prime", "p": -7}, "'field': modulus must be prime, got -7"),
        ({"kind": "prime", "p": "7"}, "'field': modulus must be an integer, got '7'"),
        ({"kind": "prime", "p": 7.0}, "'field': modulus must be an integer, got 7.0"),
        ({"kind": "prime", "p": 10 ** 30}, "'field': modulus 1000000000000000000000000000000 "
         "is too large: primality is decided only below 3317044064679887385961981"),
        ({"kind": "rationals", "p": 3}, "'field': rationals take no modulus"),
    ])
    def test_field_from_json_messages(self, obj, message):
        with pytest.raises(SchemaError) as info:
            field_from_json(obj)
        assert str(info.value) == message

    def test_parse_format_roundtrip(self):
        assert RATIONALS.element("-3/6") == Fraction(-1, 2)
        assert RATIONALS.format(RATIONALS.element("-3/6")) == "-1/2"
        assert RATIONALS.element("4/2") == 2
        assert RATIONALS.format(RATIONALS.element("4/2")) == "2"
        assert RATIONALS.element(" +007 ") == 7 and RATIONALS.element("1_000/3") == Fraction(1000, 3)
        assert F5.element("7") == 2
        assert F5.format(F5.element("-1")) == "4"

    @pytest.mark.parametrize("text", ["1.5", "1e3", "1E3", "2/1e2", ".5", "1/0.5", "inf"])
    def test_rationals_read_only_a_and_a_over_b(self, text):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            RATIONALS.element(text)

    @pytest.mark.parametrize("x, digits", [
        (10 ** 4300, 4301), (-(10 ** 5000) + 1, 5000),
        (Fraction(1, 10 ** 4400), 4401), (Fraction(10 ** 4400 + 1, 3), 4401),
    ], ids=["int", "negative", "denominator", "numerator"])
    def test_format_names_the_digits_beyond_the_limit(self, x, digits):
        with pytest.raises(BraidAlgError, match=f"cannot print a scalar of {digits} digits"):
            RATIONALS.format(x)
        assert RATIONALS.format(10 ** 4299) == "1" + "0" * 4299

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
        # the sum of two draws holds cells made by arithmetic, which whisker
        # must copy with the Python type kron gives them
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
    def test_stacks_rows_in_order(self):
        parts = [mat(F5, [[1, 2, 3]]), ExactMatrix.zeros(F5, 0, 3), mat(F5, [[4, 0, 1], [2, 2, 2]])]
        expected = mat(F5, [[1, 2, 3], [4, 0, 1], [2, 2, 2]])
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
        for rows in (None, 0, 2):  # no rows to read the column count from
            with pytest.raises(ShapeError, match="column count required"):
                ExactMatrix(RATIONALS, [], rows=rows)


ORACLE_FIELDS = [RATIONALS, prime_field(2), F5, prime_field(999999937)]


@st.composite
def elimination_inputs(draw):
    """A matrix, possibly empty, square, tall or rank-deficient, and two
    right-hand sides for ``solve``, one of them consistent."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    if field.p is None:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        scalar = st.integers(0, field.p - 1)
    cell = st.one_of(st.just(0), scalar)
    cols = draw(st.integers(0, 5))
    rows = cols if draw(st.booleans()) else draw(st.integers(0, 8))

    def grid(r, c):
        return draw(st.lists(st.lists(cell, min_size=c, max_size=c), min_size=r, max_size=r))

    m = ExactMatrix(field, grid(rows, cols), rows=rows, cols=cols)
    if rows >= 2 and draw(st.booleans()):
        # replace the last row by a combination of the first two
        a, b = draw(scalar), draw(scalar)
        first, second = (ExactMatrix(field, [m.data[i]], cols=cols) for i in (0, 1))
        last = first.scale(a) + second.scale(b)
        m = ExactMatrix(field, list(m.data[:-1]) + [last.data[0]], rows=rows, cols=cols)
    if field.p is None:
        # arithmetic never stores an integral cell as Fraction(k, 1), but the
        # raw constructor can, and elimination must read it as the int it equals
        held = [[Fraction(x) if isinstance(x, int) and draw(st.booleans()) else x
                 for x in row] for row in m.data]
        m = from_dense(field, held, rows, cols)
    k = draw(st.integers(0, 2))
    consistent = m * ExactMatrix(field, grid(cols, k), rows=cols, cols=k)
    arbitrary = ExactMatrix(field, grid(rows, k), rows=rows, cols=k)
    return m, consistent, arbitrary


def outcome(call):
    """A matrix result with its strings, or the type of the error raised."""
    try:
        out = call()
    except (LinearSolveError, NotInvertible) as exc:
        return type(exc)
    return out, out.to_strings()


def elimination_outcomes(m, rhs1, rhs2):
    R, pivots = m.rref()
    return [
        (R, R.to_strings(), pivots),
        outcome(m.nullspace),
        outcome(m.inverse),
        outcome(lambda: m.solve(rhs1)),
        outcome(lambda: m.solve(rhs2)),
    ]


class TestSparseRref:
    @given(elimination_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracle(self, inputs):
        got = elimination_outcomes(*inputs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExactMatrix, "rref", dense_rref)
            expected = elimination_outcomes(*inputs)
        assert got == expected

    @given(elimination_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_order_does_not_show(self, inputs, data):
        # rref takes its rows in one order of its own, so any order of the
        # input rows gives the same cells, cell types and pivots
        m = inputs[0]
        order = data.draw(st.permutations(range(m.rows)))
        shuffled = from_dense(m.field, [m.data[i] for i in order], m.rows, m.cols)
        (R, pivots), (R2, pivots2) = m.rref(), shuffled.rref()
        assert pivots == pivots2
        assert_same(R2, R)
        assert_same(column_basis(shuffled), column_basis(m))
        assert_same(shuffled.nullspace(), m.nullspace())

    def test_unreduced_integral_cells(self):
        # integral cells held as Fraction(k, 1), which only the raw constructor stores
        m = from_dense(RATIONALS, [[Fraction(2), Fraction(4), 1], [Fraction(3), 6, Fraction(0)]], 2, 3)
        R, pivots = m.rref()
        assert pivots == (0, 2)
        assert R.to_strings() == [["1", "2", "0"], ["0", "0", "1"]]


def nonzero_types(m):
    return {(i, j): type(x) for i, row in enumerate(m.data) for j, x in enumerate(row) if x != 0}


def assert_same(got, expected):
    """Equal as matrices, as strings, and in the Python type of every
    nonzero cell, which is canonical for the field."""
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert got == expected
    assert got.to_strings() == expected.to_strings()
    assert nonzero_types(got) == nonzero_types(expected)
    assert noncanonical_cells(got) == []


@st.composite
def kernel_inputs(draw):
    """Matrices over one field, possibly with no rows or no columns: ``a``
    and ``a2`` of one shape, ``b`` composable after ``a``.  The constructor
    makes every cell canonical: over Q integers and non-integral fractions,
    the drawn integral ``Fraction`` values held as ``int``."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    if field.p is None:
        scalar = st.one_of(st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4))
    else:
        scalar = st.integers(0, field.p - 1)
    cell = st.one_of(st.just(0), scalar)

    def matrix(rows, cols):
        grid = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return ExactMatrix(field, grid, rows=rows, cols=cols)

    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    return matrix(rows, inner), matrix(rows, inner), matrix(inner, cols)


class TestSparseKernels:
    """Each sparse kernel against the dense kernel it replaced."""

    @given(kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_oracles(self, inputs):
        a, a2, b = inputs
        assert_same(a + a2, dense_add(a, a2))
        assert_same(a - a2, dense_sub(a, a2))
        assert_same(a * b, dense_mul(a, b))
        assert_same(a.kron(b), dense_kron(a, b))
        assert_same(a.transpose(), dense_transpose(a))
        for left in range(3):
            for right in range(3):
                assert_same(whisker(left, a, right), dense_whisker(left, a, right))
        others = [a, a2, b]
        if a.rows == a.cols:
            others.append(a + ExactMatrix.identity(a.field, a.rows))
        for other in others:
            assert compare("c", a, other) == dense_compare("c", a, other)

    @given(kernel_inputs())
    @settings(max_examples=150, deadline=None)
    def test_cancellation_leaves_no_stored_zero(self, inputs):
        a, _, b = inputs
        zero = ExactMatrix.zeros(a.field, a.rows, a.cols)
        for out in (a - a, a + (-a), a + a.scale(-1)):
            assert out == zero and out.is_zero()
            assert_same(out, dense_sub(a, a))
        # [a | a] times [b ; -b] sums a*b - a*b, term by term, to zero
        doubled = hstack(a, a)
        opposed = stack_rows([b, -b], b.field, b.cols)
        product = doubled * opposed
        assert product == ExactMatrix.zeros(a.field, a.rows, b.cols)
        assert product.is_zero()
        assert_same(product, dense_mul(doubled, opposed))
        assert all(x != 0 for m in (a + a, a * b, product) for row in m.nonzeros
                   for x in row.values())

    def test_first_difference_in_row_major_order(self):
        a = mat(RATIONALS, [[0, 1, 0], [2, 0, 0]])
        b = mat(RATIONALS, [[0, 1, 0], [0, 0, "1/2"]])
        assert compare("x", a, b).detail == "first difference at (1,0): 2 != 0"
        assert compare("x", b, a).detail == dense_compare("x", b, a).detail

    def test_constructor_refuses_bad_cells(self):
        for field in (RATIONALS, F5):
            for bad in (True, False, "x", None):
                with pytest.raises((TypeError, ValueError)):
                    mat(field, [["0", bad]])
        assert mat(F5, [["0", "5", 0]]).is_zero()
        assert mat(RATIONALS, [["0", "0/3", 0]]).is_zero()


@st.composite
def applied_inputs(draw):
    """``(left, X, right, M)`` with ``M`` composable after ``1_left ⊗ X ⊗ 1_right``.
    Each row of ``X`` is a unit row, a single entry other than one (a unit
    row over F_2, which has no other), a general row or an empty row."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    if field.p is None:
        scalar = st.one_of(st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4))
        other = scalar.filter(lambda x: x not in (0, 1))
    else:
        scalar = st.integers(0, field.p - 1)
        other = st.integers(min(2, field.p - 1), field.p - 1)
    cell = st.one_of(st.just(0), scalar)
    left, right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows, inner, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 4))

    def x_row():
        kind = draw(st.sampled_from(["unit", "single", "general", "empty"]))
        if kind == "general":
            return draw(st.lists(cell, min_size=inner, max_size=inner))
        row = [0] * inner
        if inner and kind != "empty":
            row[draw(st.integers(0, inner - 1))] = 1 if kind == "unit" else draw(other)
        return row

    X = ExactMatrix(field, [x_row() for _ in range(rows)], rows=rows, cols=inner)
    height = left * inner * right
    grid = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                         min_size=height, max_size=height))
    return left, X, right, ExactMatrix(field, grid, rows=height, cols=cols)


class TestAppliedWhisker:
    """``whisker(left, X, right, M)`` against the padded product and the dense oracle."""

    @given(applied_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_padded_product_and_dense_oracle(self, inputs):
        left, X, right, M = inputs
        got = whisker(left, X, right, M)
        assert_same(got, whisker(left, X, right) * M)
        assert_same(got, dense_mul(dense_whisker(left, X, right), M))
        assert typed_cells(got) == typed_cells(dense_mul(dense_whisker(left, X, right), M))

    def test_shape_and_field_errors(self):
        X, M = mat(F5, [[1, 2]]), ExactMatrix.zeros(F5, 3, 2)
        with pytest.raises(ShapeError, match="cannot compose 2x4 with 3x2"):
            whisker(1, X, 2, M)
        with pytest.raises(ShapeError, match="cannot compose 2x4 with 3x2"):
            whisker(1, X, 2) * M
        with pytest.raises(FieldMismatch):
            whisker(2, X, 1, ExactMatrix.zeros(RATIONALS, 4, 1))

    def test_shared_rows_survive_elimination_and_arithmetic(self):
        # the flip's rows are unit rows, so the result shares rows of M
        M = mat(RATIONALS, [[1, "1/2", 0], [0, 3, 4], [2, 0, "-1/3"], [5, 6, 7],
                            [1, 0, 0], [0, 0, 0], ["2/3", 1, 1], [0, 1, 0]])
        before = [[(j, type(x), x) for j, x in row.items()] for row in M.nonzeros]
        flip = flip_braiding(RATIONALS, 2).c
        for left, right in ((1, 2), (2, 1)):
            out = whisker(left, flip, right, M)
            assert any(r is s for r in out.nonzeros for s in M.nonzeros)
            derived = [out.rref()[0], out.nullspace(), out + M, out - M, M - out, out + (-out)]
            assert derived[-1].is_zero()
            assert [[(j, type(x), x) for j, x in row.items()] for row in M.nonzeros] == before
            assert out == dense_mul(dense_whisker(left, flip, right), M)


class TestSerialization:
    def test_string_roundtrip(self):
        m = mat(RATIONALS, [["1/2", "-3"], ["0", "7/3"]])
        again = ExactMatrix(RATIONALS, m.to_strings())
        assert again == m
        assert m.to_strings() == [["1/2", "-3"], ["0", "7/3"]]

    def test_prime_field_strings(self):
        m = mat(F5, [[7, -1]])
        assert m.to_strings() == [["2", "4"]]

    # non-canonical and repeated spellings: each distinct string is parsed
    # once, and every cell must still be what field.element makes of it
    @pytest.mark.parametrize("field, grid", [
        (RATIONALS, [["2/4", "-0", "007", "1/2"], ["1/2", "1/2", "-6/3", "0"], ["-3", "1/2", "007", "2/4"]]),
        (F5, [["24", "-0", "007", "12"], ["12", "12", "5", "0"], ["-3", "12", "007", "24"]]),
    ], ids=["Q", "F5"])
    def test_repeated_spellings_parse_cell_by_cell(self, field, grid):
        expected = [[field.element(s) for s in row] for row in grid]
        got = ExactMatrix(field, grid)
        assert typed_cells(got) == [[(type(x), x) for x in row] for row in expected]
        assert noncanonical_cells(got) == []

    @pytest.mark.parametrize("field, grid, text", [
        (RATIONALS, [["1//2", "1//2"], ["x", "1//2"]], "Invalid literal for Fraction: '1//2'"),
        (RATIONALS, [["1", "x"], ["x", "x"]], "Invalid literal for Fraction: 'x'"),
        (prime_field(7), [["1//2", "1//2"], ["x", "1//2"]],
         "invalid literal for int() with base 10: '1//2'"),
        (prime_field(7), [["1", "x"], ["x", "x"]], "invalid literal for int() with base 10: 'x'"),
    ], ids=["Q-slashes", "Q-letter", "F7-slashes", "F7-letter"])
    def test_repeated_bad_cell_names_the_cell(self, field, grid, text):
        with pytest.raises(SchemaError) as info:
            matrix_from_json(field, grid, "g", rows=2, cols=2)
        assert str(info.value) == f"'g': {text}"
