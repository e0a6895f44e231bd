"""The column-map paths of the product kernels against the dense oracle.

A matrix with one cell per row (an identity, or an exchange block of a
diagonal braiding) keeps its column map once ``column_map`` has found it.
``whisker(left, X, right, M)`` and ``X * M`` then pick or scale rows of
``M`` when ``X`` has a map, and relabel the keys of ``X``'s rows when ``M``
has a map with distinct columns; ``kron`` shifts rows when a factor's cells
are all one; ``whisker_chain`` composes the maps of its leading factors.
Each result must equal the dense product cell for cell, in the Python type
of every cell too.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidalg import RATIONALS, ExactMatrix, FieldMismatch, ShapeError, prime_field, whisker
from braidalg.matrix import column_map, whisker_chain
from braidalg.braidrep import BraidRepCache
from braidalg.gallery import diagonal_twist_braiding, flip_braiding, super_braiding

from oracles import dense_chain, dense_kron, noncanonical_cells

FIELDS = [RATIONALS, prime_field(2), prime_field(5), prime_field(999999937)]
Q = RATIONALS


def typed(m):
    return [[(j, type(x), x) for j, x in sorted(row.items())] for row in m.nonzeros]


def assert_same(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert typed(got) == typed(want)
    assert noncanonical_cells(got) == []


def nonzero(field):
    if field.p is None:
        return st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3, max_denominator=12)).filter(bool)
    return st.integers(1, field.p - 1)


def cells(field):
    return st.one_of(st.just(0), nonzero(field))


@st.composite
def single_cell_rows(draw, field, rows, cols, kind):
    """A ``rows x cols`` matrix with one cell per row, its map kept.  ``kind``:
    ``distinct`` columns (needs ``cols >= rows``), ``repeated`` (a column
    used by two rows when there are two), or ``any``."""
    columns = []
    if kind == "distinct":
        columns = draw(st.permutations(range(cols)))[:rows]
    elif rows:
        columns = draw(st.lists(st.integers(0, cols - 1), min_size=rows, max_size=rows))
        if kind == "repeated" and rows > 1:
            columns[1] = columns[0]
    ones = draw(st.booleans())
    grid = [[0] * cols for _ in range(rows)]
    for r, j in enumerate(columns):
        grid[r][j] = 1 if ones else draw(nonzero(field))
    m = ExactMatrix(field, grid, rows=rows, cols=cols)
    assert column_map(m) is not None
    return m


@st.composite
def general(draw, field, rows, cols):
    grid = draw(st.lists(st.lists(cells(field), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    m = ExactMatrix(field, grid, rows=rows, cols=cols)
    column_map(m)  # a general draw may still hold one cell per row
    return m


@st.composite
def applied(draw):
    """``(left, X, right, M)`` with ``M`` composable after the padded ``X``."""
    field = draw(st.sampled_from(FIELDS))
    left, right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows, inner = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if draw(st.booleans()) and (inner or not rows):
        X = draw(single_cell_rows(field, rows, inner, "any"))
    else:
        X = draw(general(field, rows, inner))
    height = left * inner * right
    kind = draw(st.sampled_from(["distinct", "repeated", "general"]))
    if kind == "distinct":
        M = draw(single_cell_rows(field, height, height + draw(st.integers(0, 2)), "distinct"))
    elif kind == "repeated" and height:
        M = draw(single_cell_rows(field, height, draw(st.integers(1, 4)), "repeated"))
    else:
        M = draw(general(field, height, draw(st.integers(0, 4))))
    return left, X, right, M


class TestAgainstDenseOracle:
    @given(applied())
    @settings(max_examples=400, deadline=None)
    def test_products(self, inputs):
        left, X, right, M = inputs
        want = dense_chain((left, X, right), (1, M, 1))
        assert_same(whisker(left, X, right, M), want)
        assert_same(whisker_chain((left, X, right), (1, M, 1)), want)
        if left == right == 1:
            assert_same(X * M, want)

    @given(applied())
    @settings(max_examples=200, deadline=None)
    def test_kron(self, inputs):
        _, X, _, M = inputs
        assert_same(X.kron(M), dense_kron(X, M))
        assert_same(M.kron(X), dense_kron(M, X))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_chains_of_single_cell_rows(self, data):
        # three factors with maps, composed without building a product
        field = data.draw(st.sampled_from(FIELDS))
        d = data.draw(st.integers(1, 3))
        pad = data.draw(st.integers(1, 3))
        factors = [(pad, b, 1) if data.draw(st.booleans()) else (1, b, pad)
                   for b in (data.draw(single_cell_rows(field, d * d, d * d, "any")) for _ in range(3))]
        assert_same(whisker_chain(*factors), dense_chain(*factors))
        M = data.draw(general(field, pad * d * d, data.draw(st.integers(0, 3))))
        assert_same(whisker_chain(*factors, (1, M, 1)), dense_chain(*factors, (1, M, 1)))


class TestCases:
    def test_repeated_column_sums_its_terms(self):
        X = ExactMatrix(Q, [[1, 1], [2, 3]])
        M = ExactMatrix(Q, [[0, 1], [0, 1]])
        assert column_map(M)[2] is False
        assert typed(X * M) == [[(1, int, 2)], [(1, int, 5)]]

    def test_integral_fraction_products_are_ints(self):
        half = Fraction(1, 2)
        X = ExactMatrix(Q, [[0, 2], [2, 0]])          # scaled single cells
        D = ExactMatrix(Q, [[half, 0], [0, half]])    # distinct columns
        G = ExactMatrix(Q, [[half, Fraction(3, 2)], [1, 0]])
        column_map(X), column_map(D)
        assert typed(X * G) == [[(0, int, 2)], [(0, int, 1), (1, int, 3)]]
        assert typed(ExactMatrix(Q, [[2, 4]]) * D) == [[(0, int, 1), (1, int, 2)]]
        assert typed(whisker_chain((1, X, 1), (1, D, 1))) == [[(1, int, 1)], [(0, int, 1)]]
        assert typed(D.kron(X)) == [[(1, int, 1)], [(0, int, 1)], [(3, int, 1)], [(2, int, 1)]]

    def test_denominators_two_and_three_cancel(self):
        # a sum of Fraction terms that cancels to an integer is stored as an int
        third, half, sixth = Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)
        ones = ExactMatrix(Q, [[1]] * 4)
        X = ExactMatrix(Q, [[half, half, third, 2 * third],    # 2, an int
                            [half, -third, -sixth, 0],          # 0, no cell
                            [half, third, 0, 0]])               # 5/6
        assert typed(X * ones) == [[(0, int, 2)], [], [(0, Fraction, Fraction(5, 6))]]
        # denominators in the rows of M, and in both factors
        M = ExactMatrix(Q, [[half, third], [half, -third]])
        assert typed(ExactMatrix(Q, [[1, 1]]) * M) == [[(0, int, 1)]]
        assert typed(ExactMatrix(Q, [[third, 3]]) * M) == [[(0, Fraction, Fraction(5, 3)), (1, Fraction, Fraction(-8, 9))]]
        G = ExactMatrix(Q, [[2 * third, 1], [-half, 3 * half]])
        assert typed(ExactMatrix(Q, [[half, third], [3, 4]]) * G) == [
            [(0, Fraction, sixth), (1, int, 1)], [(1, int, 9)]]
        for left, right in ((1, 1), (2, 1), (1, 2)):
            padded = whisker(left, ones, right)
            assert_same(whisker(left, X, right, padded), dense_chain((left, X, right), (left, ones, right)))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        rows, cols = shape
        for field in FIELDS:
            Z = ExactMatrix.zeros(field, rows, cols)
            column_map(Z)
            ident = ExactMatrix.identity(field, cols)
            for left, right in ((1, 1), (2, 3)):
                assert_same(whisker(left, Z, right, whisker(left, ident, right)),
                            dense_chain((left, Z, right), (left, ident, right)))
            assert_same(Z.kron(ident), dense_kron(Z, ident))
            assert_same(ident.kron(Z), dense_kron(ident, Z))

    def test_chain_errors(self):
        c = flip_braiding(Q, 2).c
        general = ExactMatrix(Q, [[1, 1, 0, 0]] * 4)
        for first in (c, general):  # composed maps, and one factor at a time
            with pytest.raises(ShapeError, match="cannot compose"):
                whisker_chain((1, first, 1), (2, c, 1))
        with pytest.raises(FieldMismatch):
            whisker_chain((1, c, 1), (1, flip_braiding(prime_field(5), 2).c, 1))

    def test_exchange_blocks_keep_their_maps(self):
        # the braiding's map is found when the first block is composed, and
        # every block composed from maps keeps its own, with no scan
        for V in (flip_braiding(Q, 2), super_braiding(Q, (0, 1)),
                  diagonal_twist_braiding(prime_field(7), [[2, 3], [5, 6]])):
            cache = BraidRepCache(V)
            for m, n in ((2, 1), (1, 3), (3, 2), (1, 1)):
                cols, _, distinct = cache.block(m, n).cmap
                assert distinct and sorted(cols) == list(range(V.dim ** (m + n)))
