from braidalg import (
    RATIONALS,
    BraidRepCache,
    ExactMatrix,
    check_hexagon,
    prime_field,
)
from braidalg.gallery import braiding_gallery, flip_braiding, scalar_braiding

from oracles import OracleBraidRepCache, block_transposition

F5 = prime_field(5)


class TestBaseCases:
    def test_block_1_1_is_the_braiding(self):
        for name, V in braiding_gallery():
            assert BraidRepCache(V).block(1, 1) == V.c, name
            assert OracleBraidRepCache(V).block(1, 1) == V.c, name

    def test_degree_zero_blocks_are_identities(self):
        V = flip_braiding(RATIONALS, 2)
        for cache in (BraidRepCache(V), OracleBraidRepCache(V)):
            for n in range(5):
                ident = ExactMatrix.identity(RATIONALS, 2 ** n)
                assert cache.block(0, n) == ident
                assert cache.block(n, 0) == ident

    def test_zero_zero_is_scalar_identity(self):
        V = flip_braiding(RATIONALS, 2)
        assert BraidRepCache(V).block(0, 0) == ExactMatrix.identity(RATIONALS, 1)


class TestScalarBraiding:
    def test_power_law(self):
        # one-dimensional recursion unrolls to m*n factors of q
        for q in (2, -1, 3):
            V = scalar_braiding(RATIONALS, q)
            cache = OracleBraidRepCache(V)
            for m in range(5):
                for n in range(5):
                    assert cache.block(m, n) == ExactMatrix(RATIONALS, [[q ** (m * n)]])


class TestFlipSpecialization:
    def test_block_2_1_and_general_transposition(self):
        V = flip_braiding(RATIONALS, 2)
        cache = BraidRepCache(V)
        assert cache.block(2, 1) == ExactMatrix(RATIONALS, block_transposition(2, 2, 1))
        for m in range(4):
            for n in range(4):
                if m + n > 5:
                    continue
                expected = ExactMatrix(RATIONALS, block_transposition(2, m, n)) \
                    if m + n else ExactMatrix.identity(RATIONALS, 1)
                assert cache.block(m, n) == expected


class TestDualSchedule:
    def test_agreement_on_gallery(self):
        # uniqueness of the block family, made executable
        for name, V in braiding_gallery():
            left = BraidRepCache(V)
            right = OracleBraidRepCache(V)
            for m in range(7):
                for n in range(7 - m):
                    assert left.block(m, n) == right.block(m, n), (name, m, n)


class TestHexagon:
    def test_reduces_to_yang_baxter_at_ones(self):
        for name, V in braiding_gallery():
            assert check_hexagon(1, 1, 1, V), name

    def test_zero_index_trivial(self):
        V = flip_braiding(RATIONALS, 2)
        assert check_hexagon(0, 2, 3, V)
        assert check_hexagon(2, 0, 3, V)
        assert check_hexagon(2, 3, 0, V)

    def test_full_range(self):
        for name, V in braiding_gallery():
            cache = BraidRepCache(V)
            for l in range(7):
                for m in range(7 - l):
                    for n in range(7 - l - m):
                        assert check_hexagon(l, m, n, V, cache), (name, l, m, n)

    def test_flip_2_1_2_permutation(self):
        V = flip_braiding(RATIONALS, 2)
        assert check_hexagon(2, 1, 2, V)


class TestDimensionThree:
    def test_dual_schedule_and_hexagon_spot_checks(self):
        # the full degree-6 hexagon sweep costs ~15s per braiding at d=3,
        # so the wholesale run stays at d<=2; degree 5 on 243-dim blocks
        # still exercises every recursion branch here
        from braidalg.gallery import super_braiding

        for V in (flip_braiding(RATIONALS, 3), super_braiding(RATIONALS, (0, 1, 1))):
            left = BraidRepCache(V)
            right = OracleBraidRepCache(V)
            for m in range(7):
                for n in range(7 - m):
                    assert left.block(m, n) == right.block(m, n), (m, n)
            for l in range(6):
                for m in range(6 - l):
                    for n in range(6 - l - m):
                        assert check_hexagon(l, m, n, V, left), (l, m, n)


class TestInvertibility:
    def test_blocks_invert_by_swapped_inverse_schedule(self):
        for name, V in braiding_gallery():
            fwd = BraidRepCache(V)
            bwd = BraidRepCache(V.inverse_object())
            for m in range(6):
                for n in range(6 - m):
                    prod = fwd.block(m, n) * bwd.block(n, m)
                    assert prod == ExactMatrix.identity(V.field, V.dim ** (m + n)), (name, m, n)

    def test_every_cached_block_is_invertible(self):
        V = flip_braiding(F5, 2)
        cache = BraidRepCache(V)
        for m in range(4):
            for n in range(4 - m):
                cache.block(m, n).inverse()
