"""What each braided-law checker reports on a corrupted input, pinned.

The corrupted flip is invertible but not a Yang-Baxter solution, so every
checker that states a braided law has something to find.  These pins fix
the name, verdict and detail of every report item (or the message of the
raised error), so a refactor of how a law is computed cannot change what
a failure says.  The graded suite is pinned by the sha256 of its items.
"""

import hashlib
import json

import pytest

from braidalg import (
    RATIONALS,
    AlgebraData,
    BialgebraData,
    ExactMatrix,
    NotAMorphism,
    ProductAlgebraSpec,
    SpecViolation,
    check_braided_algebra,
    check_braided_coalgebra,
    check_braided_morphism,
    check_hexagon,
    check_yang_baxter,
    product_algebra,
)
from braidalg.braidrep import BraidRepCache
from braidalg.gallery import corrupted_flip, flip_braiding, group_algebra_z2
from braidalg.primitives import check_bialgebra_morphism
from braidalg.tensoralg import build_truncated, check_truncated_axioms

Q = RATIONALS
BAD = corrupted_flip(Q, 2)
FLIP = flip_braiding(Q, 2)
Z2 = group_algebra_z2(Q)


def items(report):
    return [(i.name, i.passed, i.detail) for i in report.items]


def digest(pairs):
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


GRADED = {
    2: (106, "df6e83b72f05e4452461bff5e136254cf12a54ca434fd7f45a7824c4cce5b2c5"),
    3: (198, "7b6357bc4f2c79b0f4023416a10399245b13657139a4a1902e5b42ec8ab4adcd"),
    4: (332, "545d7dfc9b22e86760ea542437acf946a394a0f19268dc7b107d396467ed8144"),
}


@pytest.mark.parametrize("N", sorted(GRADED))
def test_graded_suite(N):
    got = items(check_truncated_axioms(build_truncated(BAD, N)))
    assert (len(got), digest(got)) == GRADED[N]


def test_graded_suite_degree_three_failures():
    got = items(check_truncated_axioms(build_truncated(BAD, 3)))
    assert [i for i in got if not i[1]] == [
        ("yang_baxter[1,1,1]", False, "first difference at (0,3): 1 != 2"),
        ("coassociative[3;1,1]", False, "first difference at (0,3): 3 != 2"),
        ("coproduct_braids_left[1,2;1]", False, "first difference at (0,3): 3 != 2"),
        ("coproduct_braids_right[2,1;1]", False, "first difference at (0,3): 1 != 2"),
    ]


def test_braided_algebra():
    assert items(check_braided_algebra(Z2.algebra, BAD.c)) == [
        ("product_braids_left", False, "first difference at (0,1): 1 != 2"),
        ("product_braids_right", False, "first difference at (0,3): 1 != 2"),
        ("unit_braids_left", False, "first difference at (0,1): 1 != 0"),
        ("unit_braids_right", True, ""),
    ]


def test_braided_coalgebra():
    assert items(check_braided_coalgebra(2, Z2.delta, Z2.eps, BAD.c)) == [
        ("coproduct_braids_left", False, "first difference at (2,1): 0 != 1"),
        ("coproduct_braids_right", False, "first difference at (0,1): 1 != 2"),
        ("counit_braids_left", False, "first difference at (0,1): 2 != 1"),
        ("counit_braids_right", False, "first difference at (0,1): 1 != 0"),
    ]


def test_yang_baxter():
    assert items(check_yang_baxter(BAD)) == [
        ("invertible_right", True, ""),
        ("invertible_left", True, ""),
        ("yang_baxter", False, "first difference at (0,3): 2 != 1"),
    ]


def test_hexagon():
    cache = BraidRepCache(BAD)
    failed = [(l, m, n) for l in range(3) for m in range(3) for n in range(3)
              if not check_hexagon(l, m, n, BAD, cache)]
    assert failed == [(l, m, n) for l in (1, 2) for m in (1, 2) for n in (1, 2)]


def test_braided_maps():
    ident = ExactMatrix.identity(Q, 2)
    assert check_braided_morphism(ident, FLIP, FLIP)
    assert not check_braided_morphism(ident, FLIP, BAD)
    target = BialgebraData(Q, 2, Z2.m, Z2.u, Z2.delta, Z2.eps, BAD.c)
    with pytest.raises(NotAMorphism, match="^not braided$"):
        check_bialgebra_morphism(ident, Z2, target)


def _zero_product(unit):
    return AlgebraData(Q, 2, ExactMatrix.zeros(Q, 2, 4), ExactMatrix.column(Q, unit))


# A zero product makes the product laws hold for any exchange operator, so
# the unit laws and the hexagon can be reached one at a time.
PRODUCT_SPECS = [
    (Z2.algebra, Z2.algebra, (FLIP, BAD, BAD, FLIP), "c21 fails for (i,j)=(1,2)"),
    (_zero_product([0, 0]), Z2.algebra, (FLIP, BAD, FLIP, FLIP), "c22 fails for (i,j)=(1,2)"),
    (_zero_product([1, 0]), _zero_product([1, 0]), (BAD, BAD, BAD, BAD),
     "c31 (left unit) fails for (i,j)=(1,1)"),
    (_zero_product([0, 1]), _zero_product([0, 1]), (BAD, BAD, BAD, BAD),
     "c31 (right unit) fails for (i,j)=(1,1)"),
    (_zero_product([0, 0]), _zero_product([0, 0]), (BAD, BAD, BAD, BAD),
     "cij fails for (i,j,k)=(1,1,1)"),
    (_zero_product([0, 0]), _zero_product([0, 0]), (FLIP, BAD, BAD, FLIP),
     "cij fails for (i,j,k)=(1,2,1)"),
]


@pytest.mark.parametrize("a1, a2, cs, message", PRODUCT_SPECS)
def test_product_spec(a1, a2, cs, message):
    keys = [(1, 1), (1, 2), (2, 1), (2, 2)]
    spec = ProductAlgebraSpec(a1, a2, {k: V.c for k, V in zip(keys, cs)})
    with pytest.raises(SpecViolation) as err:
        product_algebra(spec)
    assert str(err.value) == message
