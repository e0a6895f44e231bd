"""The row-space image route against the formula it replaces, bit for bit.

On the image route each degree's primitive basis is kept as rows, and the
braided commutators ``[x, v] = x⊗v - c^{n-1,1}(x⊗v)`` of the next degree are
made in one pass over each basis row ``x``, through the kept column map of
the exchange block.  They must equal the rows of
``((1 - c^{n-1,1})(ξ_{n-1} ⊗ 1_V))ᵀ`` in every cell and in the Python type
of every cell, and the pass must call no padding, product or difference
kernel.  Every route keeps the pivots of its basis rows, which must be the
first nonzero of each basis column.
"""

import sys

import pytest

from braidalg import RATIONALS, ExactMatrix, build_truncated, prime_field
from braidalg import matrix
from braidalg.gallery import diagonal_twist_braiding, flip_braiding, super_braiding
from braidalg.matrix import column_map
from braidalg.primitives import primitives_of_tensor
from test_primitive_stack import assert_same

# the module, not the function ``braidalg.primitives`` the package exports
primitives_module = sys.modules["braidalg.primitives"]

FIELDS = {"Q": RATIONALS, "F2": prime_field(2), "F5": prime_field(5),
          "Fbig": prime_field(10 ** 9 + 7)}
BRAIDINGS = {
    **{f"flip_{k}": (lambda F=F: flip_braiding(F, 2)) for k, F in FIELDS.items()},
    **{f"super_{k}": (lambda F=F: super_braiding(F, (0, 1))) for k, F in FIELDS.items()},
    # a symmetric grid whose exchange blocks keep cells other than one
    "grid_Q": lambda: diagonal_twist_braiding(RATIONALS, [[1, 2], ["1/2", 1]]),
}


def formula_rows(T, n):
    """The commutator rows by the padded product, as before the one pass."""
    lifted = matrix.whisker(1, primitives_module._tensor_primitives(T, n - 1)[0], T.V.dim)
    brackets = (lifted - T.braid.block(n - 1, 1) * lifted).transpose()
    return list(brackets.nonzeros)


@pytest.mark.parametrize("name", sorted(BRAIDINGS))
def test_one_pass_rows_equal_the_formula(name):
    T = build_truncated(BRAIDINGS[name](), 6)
    for n in range(2, 7):
        cmap = column_map(T.braid.block(n - 1, 1))
        assert cmap and cmap[2]  # the one-pass path is the one taken
        got, want = primitives_module._commutator_rows(T, n), formula_rows(T, n)
        width = T.component_dim(n)
        assert_same(ExactMatrix._raw(T.field, got, len(got), width),
                    ExactMatrix._raw(T.field, want, len(want), width))
    if name == "grid_Q":
        assert column_map(T.braid.block(5, 1))[1] is not None


@pytest.mark.parametrize("V, N, route", [
    (flip_braiding(RATIONALS, 2), 7, "image"),
    (flip_braiding(prime_field(2), 2), 8, "restricted"),
    (diagonal_twist_braiding(RATIONALS, [[2, 3], [5, 7]]), 6, "certificate"),
    (diagonal_twist_braiding(RATIONALS, [[-1, 2], ["-1/2", -1]]), 6, "kernel"),
])
def test_kept_pivots_lead_each_basis_column(monkeypatch, V, N, route):
    certified, real = [], primitives_module._zero_kernel_mod_prime
    monkeypatch.setattr(primitives_module, "_zero_kernel_mod_prime",
                        lambda stack: certified.append(real(stack)) or certified[-1])
    T, taken, p = build_truncated(V, N), set(), V.field.p
    for n in range(1, N + 1):
        xi = primitives_of_tensor(T, n)
        if primitives_module._image_route(T, n):
            taken.add("restricted" if p and n % p == 0 else "image")
        else:
            taken.add("certificate" if certified[-1] else "kernel")
        assert primitives_module._tensor_primitives(T, n)[0] is xi
        rows, pivots = primitives_module._tensor_primitives(T, n)[1:]
        assert rows == xi.transpose()
        assert list(pivots) == [min(col) for col in xi.transpose().nonzeros]
    assert route in taken


@pytest.mark.parametrize("V", [flip_braiding(RATIONALS, 2), super_braiding(RATIONALS, (0, 1))],
                         ids=["flip", "super"])
def test_image_route_pads_multiplies_and_subtracts_nothing(monkeypatch, V):
    T = build_truncated(V, 7)
    assert T.symmetric and T.V.yang_baxter.passed  # the gates, decided before counting
    calls = []

    def counting(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for module in [m for key, m in sys.modules.items() if key.startswith("braidalg")]:
        if getattr(module, "whisker", None) is matrix.whisker:
            monkeypatch.setattr(module, "whisker", counting("whisker", matrix.whisker))
    monkeypatch.setattr(ExactMatrix, "__mul__", counting("mul", ExactMatrix.__mul__))
    monkeypatch.setattr(ExactMatrix, "__sub__", counting("sub", ExactMatrix.__sub__))
    for n in range(1, 8):
        primitives_of_tensor(T, n)
    assert calls == []
    # the formula path would have counted
    formula_rows(T, 3)
    assert set(calls) == {"whisker", "mul", "sub"}
