"""What the braided-law checkers report on a monomial braiding that fails
Yang-Baxter, pinned.

The braiding swaps only ``e0⊗e0`` and ``e0⊗e1`` and fixes ``e1⊗e0`` and
``e1⊗e1``.  It is invertible with one cell per row, so its exchange blocks
take the column-map paths of the product kernels, which the corrupted flip
of ``test_failure_pins`` (two cells in a row) never reaches.  The scaled
variant carries the coefficients 2 and 1/2 on the swapped pair, so the
scaled picks and relabels are pinned as well.  The pins were computed
before those paths existed.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from braidalg import (
    RATIONALS,
    ExactMatrix,
    check_braided_algebra,
    check_braided_coalgebra,
    check_hexagon,
    check_yang_baxter,
)
from braidalg.braided import BraidedObject
from braidalg.braidrep import BraidRepCache
from braidalg.gallery import group_algebra_z2
from braidalg.tensoralg import build_truncated, check_truncated_axioms

Q = RATIONALS
Z2 = group_algebra_z2(Q)


def swap(a, b):
    """``e0⊗e0 -> b·e0⊗e1``, ``e0⊗e1 -> a·e0⊗e0``; the other two fixed."""
    c = ExactMatrix(Q, [[0, a, 0, 0], [b, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return BraidedObject(Q, 2, c)


SWAP = swap(1, 1)
SCALED = swap(2, Fraction(1, 2))


def items(report):
    return [(i.name, i.passed, i.detail) for i in report.items]


def digest(pairs):
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


GRADED = {
    ("swap", 2): (106, "df6e83b72f05e4452461bff5e136254cf12a54ca434fd7f45a7824c4cce5b2c5"),
    ("swap", 3): (198, "0b7cbba09c083612980890786d0cae9335bd666580a02fb7f352a33c92589325"),
    ("swap", 4): (332, "c7df4303fb8658701af81a9b53172b54479e22c24a2f7e3e769626d561f0a3b8"),
    ("scaled", 2): (106, "df6e83b72f05e4452461bff5e136254cf12a54ca434fd7f45a7824c4cce5b2c5"),
    ("scaled", 3): (198, "0b7cbba09c083612980890786d0cae9335bd666580a02fb7f352a33c92589325"),
    ("scaled", 4): (332, "5142b2c1e8189422af8ac4a38020f555ced62a0fb5e066dbc152ba35b1df0f1e"),
}
BRAIDINGS = {"swap": SWAP, "scaled": SCALED}


@pytest.mark.parametrize("name, N", sorted(GRADED))
def test_graded_suite(name, N):
    got = items(check_truncated_axioms(build_truncated(BRAIDINGS[name], N)))
    assert (len(got), digest(got)) == GRADED[(name, N)]


@pytest.mark.parametrize("name", sorted(BRAIDINGS))
def test_graded_suite_degree_three_failures(name):
    got = items(check_truncated_axioms(build_truncated(BRAIDINGS[name], 3)))
    assert [i for i in got if not i[1]] == [
        ("yang_baxter[1,1,1]", False, "first difference at (0,0): 0 != 1"),
        ("coassociative[3;1,1]", False, "first difference at (0,0): 2 != 1"),
        ("coproduct_braids_left[1,2;1]", False, "first difference at (0,0): 1 != 0"),
        ("coproduct_braids_right[2,1;1]", False, "first difference at (0,0): 0 != 1"),
    ]


def test_scaled_degree_four_failures():
    got = items(check_truncated_axioms(build_truncated(SCALED, 4)))
    assert [i for i in got if not i[1]] == [
        ("yang_baxter[1,1,1]", False, "first difference at (0,0): 0 != 1"),
        ("yang_baxter[1,1,2]", False, "first difference at (0,2): 0 != 2"),
        ("yang_baxter[1,2,1]", False, "first difference at (0,1): 0 != 2"),
        ("yang_baxter[2,1,1]", False, "first difference at (0,3): 0 != 4"),
        ("coassociative[3;1,1]", False, "first difference at (0,0): 2 != 1"),
        ("coassociative[4;1,1]", False, "first difference at (0,0): 2 != 1"),
        ("coassociative[4;1,2]", False, "first difference at (0,1): 6 != 2"),
        ("coassociative[4;2,1]", False, "first difference at (0,0): 2 != 1"),
        ("coproduct_braids_left[1,2;1]", False, "first difference at (0,0): 1 != 0"),
        ("coproduct_braids_left[1,3;1]", False, "first difference at (0,1): 4 != 0"),
        ("coproduct_braids_left[1,3;2]", False, "first difference at (0,2): 2 != 0"),
        ("coproduct_braids_right[2,1;1]", False, "first difference at (0,0): 0 != 1"),
        ("coproduct_braids_left[2,2;1]", False, "first difference at (0,3): 4 != 0"),
        ("coproduct_braids_right[2,2;1]", False, "first difference at (0,2): 0 != 2"),
        ("coproduct_braids_right[3,1;1]", False, "first difference at (0,1): 0 != 2"),
        ("coproduct_braids_right[3,1;2]", False, "first difference at (0,1): 0 != 2"),
    ]


@pytest.mark.parametrize("V", [SWAP, SCALED], ids=["swap", "scaled"])
def test_yang_baxter(V):
    assert items(check_yang_baxter(V)) == [
        ("invertible_right", True, ""),
        ("invertible_left", True, ""),
        ("yang_baxter", False, "first difference at (0,0): 1 != 0"),
    ]


@pytest.mark.parametrize("V", [SWAP, SCALED], ids=["swap", "scaled"])
def test_hexagon(V):
    cache = BraidRepCache(V)
    failed = [(l, m, n) for l in range(3) for m in range(3) for n in range(3)
              if not check_hexagon(l, m, n, V, cache)]
    assert failed == [(l, m, n) for l in (1, 2) for m in (1, 2) for n in (1, 2)]


def test_braided_coalgebra():
    assert items(check_braided_coalgebra(2, Z2.delta, Z2.eps, SWAP.c)) == [
        ("coproduct_braids_left", False, "first difference at (1,0): 1 != 0"),
        ("coproduct_braids_right", False, "first difference at (0,1): 1 != 0"),
        ("counit_braids_left", False, "first difference at (0,0): 0 != 1"),
        ("counit_braids_right", False, "first difference at (0,1): 1 != 0"),
    ]
    assert items(check_braided_coalgebra(2, Z2.delta, Z2.eps, SCALED.c)) == [
        ("coproduct_braids_left", False, "first difference at (0,1): 2 != 4"),
        ("coproduct_braids_right", False, "first difference at (0,1): 2 != 0"),
        ("counit_braids_left", False, "first difference at (0,0): 0 != 1"),
        ("counit_braids_right", False, "first difference at (0,0): 1/2 != 1"),
    ]


def test_braided_algebra():
    assert items(check_braided_algebra(Z2.algebra, SWAP.c)) == [
        ("product_braids_left", False, "first difference at (0,0): 0 != 1"),
        ("product_braids_right", False, "first difference at (0,1): 1 != 0"),
        ("unit_braids_left", False, "first difference at (0,0): 0 != 1"),
        ("unit_braids_right", False, "first difference at (0,0): 0 != 1"),
    ]
    assert items(check_braided_algebra(Z2.algebra, SCALED.c)) == [
        ("product_braids_left", False, "first difference at (0,0): 0 != 1/4"),
        ("product_braids_right", False, "first difference at (0,1): 2 != 0"),
        ("unit_braids_left", False, "first difference at (0,0): 0 != 1"),
        ("unit_braids_right", False, "first difference at (0,0): 0 != 1"),
    ]
