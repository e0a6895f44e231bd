from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from braidalg import (
    RATIONALS,
    BadDegree,
    ExactMatrix,
    TruncatedTensorBialgebra,
    build_truncated,
    check_truncated_axioms,
    prime_field,
)
from braidalg.gallery import (
    braiding_gallery,
    diagonal_twist_braiding,
    flip_braiding,
    scalar_braiding,
    super_braiding,
)
from braidalg import tensoralg
from braidalg.primitives import primitives_of_tensor, tensor_primitive_dims

from oracles import eager_coproduct_blocks, gaussian_binomial, unshuffle_block

F5 = prime_field(5)


class TestGaussianBinomials:
    def test_one_dimensional_coproduct_blocks(self):
        # frozen oracle: inversion-statistic enumeration of subsets
        for q in (2, -1, Fraction(1, 2)):
            T = build_truncated(scalar_braiding(RATIONALS, q), 6)
            for n in range(7):
                for k in range(n + 1):
                    expected = RATIONALS.element(gaussian_binomial(n, k, q))
                    assert T.coproduct_block(k, n)[0, 0] == expected, (q, k, n)

    def test_two_choose_one(self):
        q = 3
        T = build_truncated(scalar_braiding(RATIONALS, q), 2)
        assert T.coproduct_block(1, 2)[0, 0] == 1 + q

    def test_mod_five(self):
        T = build_truncated(scalar_braiding(F5, 2), 6)
        for n in range(7):
            for k in range(n + 1):
                assert T.coproduct_block(k, n)[0, 0] == gaussian_binomial(n, k, 2) % 5


class TestUnshuffleOracle:
    def test_flip_blocks_are_unshuffles(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 4)
        for n in range(1, 5):
            for k in range(n + 1):
                expected = ExactMatrix(RATIONALS, unshuffle_block(2, k, n))
                assert T.coproduct_block(k, n) == expected, (k, n)

    def test_super_blocks_are_signed_unshuffles(self):
        T = build_truncated(super_braiding(RATIONALS, (0, 1)), 4)
        for n in range(1, 5):
            for k in range(n + 1):
                expected = ExactMatrix(RATIONALS, unshuffle_block(2, k, n, parities=(0, 1)))
                assert T.coproduct_block(k, n) == expected, (k, n)

    def test_flip_column_sums_count_unshuffles(self):
        # columns with repeated factors pick up multiplicities, e.g.
        # the (1,2) block sends e1⊗e1 to 2 e1⊗e1, so entries are counts,
        # not 0/1 flags; each column still sums to the number of subsets
        from math import comb

        T = build_truncated(flip_braiding(RATIONALS, 2), 4)
        for n in range(1, 5):
            for k in range(n + 1):
                block = T.coproduct_block(k, n)
                for col in range(block.cols):
                    entries = [block[row, col] for row in range(block.rows)]
                    assert all(isinstance(e, int) and e >= 0 for e in entries)
                    assert sum(entries) == comb(n, k)


class TestAlternateRecursionOracle:
    def test_peel_first_factor_recursion_agrees(self):
        # the production build peels the LAST tensor factor; extending from
        # the left instead gives the dual recursion
        #   D[k,n] = 1_d o D[k-1,n-1]
        #          + (c^{1,k} o 1_{n-1-k}) (1_d o D[k,n-1])
        # and the same algebra map must come out, block by block
        from braidalg import BraidRepCache

        def build_by_left_peeling(V, N):
            cache = BraidRepCache(V)
            f, d = V.field, V.dim
            idp = lambda k: ExactMatrix.identity(f, d ** k)
            blocks = {(0, 0): ExactMatrix.identity(f, 1)}
            for n in range(1, N + 1):
                for k in range(n + 1):
                    total = ExactMatrix.zeros(f, d ** n, d ** n)
                    if k >= 1:
                        total = total + idp(1).kron(blocks[(k - 1, n - 1)])
                    if k <= n - 1:
                        mover = cache.block(1, k).kron(idp(n - 1 - k))
                        total = total + mover * idp(1).kron(blocks[(k, n - 1)])
                    blocks[(k, n)] = total
            return blocks

        for V in (flip_braiding(RATIONALS, 2), super_braiding(RATIONALS, (0, 1)),
                  scalar_braiding(RATIONALS, 2), scalar_braiding(F5, 2)):
            T = build_truncated(V, 4)
            alt = build_by_left_peeling(V, 4)
            for n in range(5):
                for k in range(n + 1):
                    assert T.coproduct_block(k, n) == alt[(k, n)], (k, n)


class TestStructure:
    def test_extreme_blocks_are_identities(self):
        for name, V in braiding_gallery():
            T = build_truncated(V, 3)
            for n in range(4):
                ident = ExactMatrix.identity(V.field, V.dim ** n)
                assert T.coproduct_block(0, n) == ident, name
                assert T.coproduct_block(n, n) == ident, name

    def test_counit_blocks(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 3)
        assert T.counit_block(0) == ExactMatrix.identity(RATIONALS, 1)
        for n in (1, 2, 3):
            assert T.counit_block(n).is_zero()

    def test_multiply_unit_and_indexing(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 3)
        one = ExactMatrix(RATIONALS, [[1]])
        w = ExactMatrix.column(RATIONALS, [5, 7])
        assert T.multiply(one, 0, w, 1) == w
        e1 = ExactMatrix.column(RATIONALS, [1, 0])
        e2 = ExactMatrix.column(RATIONALS, [0, 1])
        prod = T.multiply(e1, 1, e2, 1)
        assert [prod[i, 0] for i in range(4)] == [0, 1, 0, 0]

    def test_multiply_overflow(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 2)
        w = ExactMatrix.column(RATIONALS, [1, 0])
        ww = T.multiply(w, 1, w, 1)
        with pytest.raises(BadDegree, match=r"^degree 2\+1 exceeds truncation 2$"):
            T.multiply(ww, 2, w, 1)

    def test_truncation_gate(self):
        with pytest.raises(BadDegree, match=r"^truncation degree must be >= 1, got 0$"):
            build_truncated(flip_braiding(RATIONALS, 2), 0)

    def test_class_refuses_degree_zero(self):
        with pytest.raises(BadDegree, match=r"^truncation degree must be >= 1, got 0$"):
            TruncatedTensorBialgebra(flip_braiding(RATIONALS, 2), 0)

    def test_blocks_come_from_its_own_braiding(self):
        # no exchange-block cache of another braiding can be supplied
        T = TruncatedTensorBialgebra(flip_braiding(RATIONALS, 2), 3)
        assert T.braid.source is T.V
        assert list(T.coproduct_blocks) == [(0, 0)]
        assert tensor_primitive_dims(T) == [2, 1, 2]
        with pytest.raises(FrozenInstanceError):  # nor can V or N change under built blocks
            T.V = super_braiding(RATIONALS, (0, 1))

    def test_one_input_gives_one_bialgebra(self):
        V = super_braiding(RATIONALS, (0, 1))
        built = build_truncated(V, 3)
        list(built.named_blocks())  # blocks built on demand are not part of the value
        assert TruncatedTensorBialgebra(V, 3) == built
        assert build_truncated(super_braiding(RATIONALS, (0, 1)), 3) == built
        assert build_truncated(V, 4) != built
        assert build_truncated(flip_braiding(RATIONALS, 2), 3) != built

    def test_degree_gate(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 2)
        with pytest.raises(BadDegree):
            T.coproduct_block(1, 3)
        with pytest.raises(BadDegree):
            T.braiding_block(3, 0)

    def test_braiding_block_delegation(self):
        V = flip_braiding(RATIONALS, 2)
        T = build_truncated(V, 3)
        assert T.braiding_block(1, 1) == V.c
        assert T.braiding_block(2, 1) == T.braid.block(2, 1)

    def test_truncation_consistency(self):
        # building deeper never changes the shared range
        V = super_braiding(RATIONALS, (0, 1))
        small = build_truncated(V, 3)
        large = build_truncated(V, 4)
        for n in range(4):
            for k in range(n + 1):
                assert small.coproduct_block(k, n) == large.coproduct_block(k, n)


def cells(m):
    return [(i, j, x, type(x)) for i, row in enumerate(m.nonzeros) for j, x in sorted(row.items())]


class TestOnDemandBuild:
    """Coproduct blocks are built when first read, each from the two blocks
    of one degree less that it needs."""

    def test_build_holds_degree_zero_only(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 5)
        assert list(T.coproduct_blocks) == [(0, 0)]

    @pytest.mark.parametrize("name", [name for name, _ in braiding_gallery()])
    def test_out_of_order_requests_match_the_eager_loop(self, name):
        V = dict(braiding_gallery())[name]
        T = build_truncated(V, 5)
        T.coproduct_block(2, 5)
        # the dependency triangle of (2, 5): Δ_{k,n} needs Δ_{k,n-1} and Δ_{k-1,n-1}
        assert set(T.coproduct_blocks) == {(k, n) for n in range(6) for k in range(n + 1)
                                           if k <= 2 and n - k <= 3}
        eager = eager_coproduct_blocks(V, 5)
        for n in (3, 0, 5, 1, 4, 2):
            for k in range(n + 1):
                got, want = T.coproduct_block(k, n), eager[(k, n)]
                assert (got.rows, got.cols) == (want.rows, want.cols)
                assert cells(got) == cells(want), (name, k, n)

    @pytest.mark.parametrize("name", ["flip_d2_Q", "super_d2_11_Q", "scalar_q2_F5"])
    def test_each_pad_is_built_once(self, monkeypatch, name):
        # Δ_{k,n-1} ⊗ 1_V is read by blocks (k, n) and (k+1, n): degree n
        # pads each of its n sources once and braids n - 1 of the pads
        calls = []
        real = tensoralg.whisker
        monkeypatch.setattr(tensoralg, "whisker", lambda *args: calls.append(args) or real(*args))
        V = dict(braiding_gallery())[name]
        T = build_truncated(V, 6)
        blocks = dict(T.named_blocks())
        assert len(calls) == sum(2 * n - 1 for n in range(2, 7))
        assert T._pad[0] == (5, 5)  # only the last pad built is kept
        eager = eager_coproduct_blocks(V, 6)
        assert all(cells(blocks[f"delta/{k}_{n}"]) == cells(eager[(k, n)]) for k, n in eager)

    def test_pads_no_block_will_read_are_dropped(self):
        # the kernel route of a twist builds (1, n) but never (2, n), the
        # second reader of the pad Δ_{1,n-1} ⊗ 1_V
        T = build_truncated(diagonal_twist_braiding(RATIONALS, [[2, 3], [5, 7]]), 10)
        bases = [primitives_of_tensor(T, n) for n in range(1, 11)]
        assert T._pad[0] == (1, 9)  # one kept pad, the last one built
        assert bases[0] == ExactMatrix.identity(RATIONALS, 2)
        assert [(b.rows, b.cols) for b in bases[1:]] == [(2 ** n, 0) for n in range(2, 11)]

    def test_a_dropped_pad_is_rebuilt(self):
        V = diagonal_twist_braiding(RATIONALS, [[2, 3], [5, 7]])
        T = build_truncated(V, 6)
        tensor_primitive_dims(T)
        assert (2, 3) not in T.coproduct_blocks and T._pad[0] != (1, 2)
        blocks = dict(T.named_blocks())
        eager = eager_coproduct_blocks(V, 6)
        assert all(cells(blocks[f"delta/{k}_{n}"]) == cells(eager[(k, n)]) for k, n in eager)

    def test_a_low_request_builds_no_higher_degree(self):
        T = build_truncated(super_braiding(RATIONALS, (0, 1)), 5)
        T.coproduct_block(1, 3)
        assert max(n for _, n in T.coproduct_blocks) == 3

    def test_image_route_builds_no_coproduct_block(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 7)
        tensor_primitive_dims(T)
        assert list(T.coproduct_blocks) == [(0, 0)]

    def test_kernel_degrees_build_only_up_to_themselves(self):
        # for super (0,1) over F_5 degree 5 takes the kernel route, degrees 6
        # and 7 the image route
        T = build_truncated(super_braiding(F5, (0, 1)), 7)
        tensor_primitive_dims(T)
        assert max(n for _, n in T.coproduct_blocks) == 5


class TestAxiomSuite:
    def test_flip_d2_rationals(self):
        T = build_truncated(flip_braiding(RATIONALS, 2), 4)
        assert check_truncated_axioms(T).passed

    def test_scalar_q2_mod5(self):
        T = build_truncated(scalar_braiding(F5, 2), 4)
        assert check_truncated_axioms(T).passed

    def test_super_d2(self):
        T = build_truncated(super_braiding(RATIONALS, (1, 1)), 3)
        assert check_truncated_axioms(T).passed

    def test_injected_fault_is_detected(self):
        corrupt = build_truncated(flip_braiding(RATIONALS, 2), 3)
        list(corrupt.named_blocks())  # blocks are built on demand: build every block first
        grid = [list(r) for r in corrupt.coproduct_blocks[(1, 2)].data]
        grid[0][0] = RATIONALS.element(1)  # corrupt a single block entry
        corrupt.coproduct_blocks[(1, 2)] = ExactMatrix(RATIONALS, grid)
        rep = check_truncated_axioms(corrupt)
        assert not rep.passed
        failing = {item.name.split("[")[0] for item in rep.failures()}
        assert "coproduct_of_product" in failing
