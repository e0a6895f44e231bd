"""Every stored cell is canonical for its field, end to end.

Over Q an integral cell is an ``int`` and any other a ``Fraction`` with
denominator > 1; over F_p a cell is an ``int`` in ``[1, p)``.  The inputs
are tensor-bialgebra blocks, so the cells checked are ones that chains of
products, sums and eliminations made, not ones the constructor parsed.
"""

from fractions import Fraction

import pytest

from braidalg import RATIONALS, build_truncated, prime_field, primitives_of_tensor
from braidalg.gallery import diagonal_twist_braiding, flip_braiding, super_braiding
from oracles import noncanonical_cells

F5 = prime_field(5)
BRAIDINGS = {
    "flip": (lambda f: flip_braiding(f, 2), 4),
    "super": (lambda f: super_braiding(f, (0, 1, 1)), 3),
    # non-integral coefficients whose products are integral: 2 * 1/2, 3 * 2/3
    "diagonal_twist": (lambda f: diagonal_twist_braiding(
        f, [[2, Fraction(1, 2)], [Fraction(2, 3), 3]]), 4),
}


def assert_canonical(label, m):
    assert noncanonical_cells(m) == [], label


@pytest.mark.parametrize("field", [RATIONALS, F5], ids=str)
@pytest.mark.parametrize("name", sorted(BRAIDINGS))
def test_outputs_hold_canonical_cells(name, field):
    make, N = BRAIDINGS[name]
    V = make(field)
    T = build_truncated(V, N)
    assert_canonical("c", V.c)
    assert_canonical("c_inv", V.c_inv)
    for n in range(1, N + 1):
        assert_canonical(f"primitives[{n}]", primitives_of_tensor(T, n))
        for k in range(n + 1):
            delta = T.coproduct_block(k, n)
            braid = T.braiding_block(k, n - k)
            for label, m in (
                ("delta", delta),
                ("braid", braid),
                ("nullspace", delta.nullspace()),
                ("inverse", braid.inverse()),
                ("solve", braid.solve(delta)),
                ("scale 3/2", delta.scale(Fraction(3, 2))),
                ("scale 2", braid.scale(2)),
                ("difference", delta - braid),
                ("negation", -delta),
            ):
                assert_canonical(f"{label}[{k},{n}]", m)
