"""The truncated braided tensor bialgebra on a braided object.

Grading: component ``n`` is ``V^{⊗n}``, kept for all ``n <= N``.  The product
is concatenation (an identity under the row-major Kronecker identification),
the braiding acts blockwise through the exchange operators, and the coproduct
is the unique algebra map into the braided product on ``T ⊗ T`` that sends a
degree-1 element ``v`` to ``v⊗1 + 1⊗v``.

Every structure map here preserves total degree, so truncating at ``N`` is
exact: any axiom restricted to total degree ``<= N`` involves only stored
blocks, and building with ``N`` or ``N+1`` gives identical shared blocks.

Coproduct blocks are built on demand, one block at a time: ``build_truncated``
stores degree 0 only, and the first request for ``Δ_{k,n-k}`` builds it from
``Δ_{k,n-1-k}`` and ``Δ_{k-1,n-k}``, recursively, so it builds only the
triangle of blocks it depends on.  Whatever reads a block (the axiom suite, a
build dump, the kernel route of the graded primitives) builds what it reads.
The image route of the graded primitives (a symmetric braiding in degrees
nonzero in the field, and the flip in every degree) reads exchange blocks
only, so it never builds a coproduct block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce

from .braided import AxiomReport, BraidedObject, compare, coproduct_braids, hexagon, mirror
from .braidrep import BraidRepCache
from .errors import BadDegree
from .matrix import ExactMatrix, whisker, whisker_chain


@dataclass
class TruncatedTensorBialgebra:
    """Graded components ``V^{⊗0..N}`` with all structure blocks."""

    V: BraidedObject
    N: int
    braid: BraidRepCache
    # (k, n) -> Δ_{k,n-k}, filled block by block by ``coproduct_block``
    coproduct_blocks: dict[tuple[int, int], ExactMatrix]
    # degree -> (primitive basis as columns, as rows, its pivots), filled by ``primitives_of_tensor``
    _primitive_memo: dict = dc_field(default_factory=dict, compare=False, repr=False)
    # ((k, n), Δ_{k,n} ⊗ 1_V): the last pad ``_padded`` built, kept for its second reader
    _pad: tuple | None = dc_field(default=None, compare=False, repr=False)

    @property
    def field(self):
        return self.V.field

    def component_dim(self, n: int) -> int:
        return self.V.dim ** n

    def _degree_gate(self, n: int) -> None:
        if not (0 <= n <= self.N):
            raise BadDegree(f"degree {n} outside 0..{self.N}")

    @cached_property
    def symmetric(self) -> bool:
        """Whether the braiding is a symmetry, ``c·c = 1`` on ``V⊗V``."""
        return (self.V.c * self.V.c).is_identity()

    @cached_property
    def flip(self) -> bool:
        """Whether the braiding is the flip ``e_i ⊗ e_j -> e_j ⊗ e_i``."""
        d = self.V.dim
        return all(row == {(r % d) * d + r // d: 1} for r, row in enumerate(self.V.c.nonzeros))

    def coproduct_block(self, k: int, n: int) -> ExactMatrix:
        """Component ``V^{⊗n} -> V^{⊗k} ⊗ V^{⊗(n-k)}`` of the coproduct,
        built on first request from the two blocks of degree ``n - 1`` it
        needs, and kept.

        The extreme blocks ``k = 0, n`` are identities.  Otherwise degree
        ``n`` is reached by peeling the last tensor factor: with ``w ⊗ v`` in
        ``V^{⊗(n-1)} ⊗ V``, the two coproduct summands of ``v`` contribute
        ``Δ_{k,n-1} ⊗ 1_V`` and ``(1_{k-1} ⊗ c^{n-k,1})(Δ_{k-1,n-1} ⊗ 1_V)``,
        the exchange operator carrying ``v`` through the right leg.
        """
        self._degree_gate(n)
        if not (0 <= k <= n):
            raise BadDegree(f"block ({k},{n}) outside 0<=k<=n")
        block = self.coproduct_blocks.get((k, n))
        if block is None:
            if k in (0, n):
                block = ExactMatrix.identity(self.field, self.component_dim(n))
            else:
                moved = whisker(self.V.dim ** (k - 1), self.braid.block(n - k, 1), 1,
                                self._padded(k - 1, n - 1))
                block = self._padded(k, n - 1) + moved
            self.coproduct_blocks[(k, n)] = block
        return block

    def _padded(self, k: int, n: int) -> ExactMatrix:
        """``Δ_{k,n} ⊗ 1_V``, read by blocks ``(k, n+1)`` and ``(k+1, n+1)``.  In build
        order the second reader comes right after the first, so the last pad
        built is kept for it; a reader that comes later rebuilds it."""
        if self._pad is not None and self._pad[0] == (k, n):
            return self._pad[1]
        pad = whisker(1, self.coproduct_block(k, n), self.V.dim)
        self._pad = ((k, n), pad)
        return pad

    def counit_block(self, n: int) -> ExactMatrix:
        """The counit kills every positive degree and fixes degree 0."""
        self._degree_gate(n)
        if n == 0:
            return ExactMatrix.identity(self.field, 1)
        return ExactMatrix.zeros(self.field, 1, self.component_dim(n))

    def braiding_block(self, m: int, n: int) -> ExactMatrix:
        """The ``(m, n)`` block of the braiding under the grading."""
        self._degree_gate(m)
        self._degree_gate(n)
        return self.braid.block(m, n)

    def named_blocks(self):
        """``(key, block)`` for every structure block a build dump stores, in
        dump order: ``delta/{k}_{n}``, then ``cT/{m}_{n}``, then ``eps/{n}``."""
        for n in range(self.N + 1):
            for k in range(n + 1):
                yield f"delta/{k}_{n}", self.coproduct_block(k, n)
        for m in range(self.N + 1):
            for n in range(self.N + 1 - m):
                yield f"cT/{m}_{n}", self.braiding_block(m, n)
        for n in range(self.N + 1):
            yield f"eps/{n}", self.counit_block(n)

    def multiply(self, w1: ExactMatrix, a: int, w2: ExactMatrix, b: int) -> ExactMatrix:
        """Concatenation product of column vectors in degrees ``a`` and ``b``.

        Partial above the truncation degree; silently truncating to zero
        would break associativity, so overflow raises instead.
        """
        if a < 0 or b < 0:
            raise BadDegree(f"degrees must be non-negative, got ({a},{b})")
        if a + b > self.N:
            raise BadDegree(f"degree {a}+{b} exceeds truncation {self.N}")
        if w1.rows != self.component_dim(a) or w2.rows != self.component_dim(b):
            raise BadDegree("vector length does not match its declared degree")
        return w1.kron(w2)


def build_truncated(V: BraidedObject, N: int) -> TruncatedTensorBialgebra:
    """The truncated tensor bialgebra up to total degree ``N``, holding the
    degree-0 coproduct block; ``coproduct_block`` builds the others."""
    if N < 1:
        raise BadDegree(f"truncation degree must be >= 1, got {N}")
    return TruncatedTensorBialgebra(V, N, BraidRepCache(V), {(0, 0): ExactMatrix.identity(V.field, 1)})


def check_truncated_axioms(T: TruncatedTensorBialgebra) -> AxiomReport:
    """Every braided-bialgebra axiom, blockwise, in total degree ``<= T.N``.

    Identities quantified over the whole tensor algebra are checked only on
    degrees ``<= T.N``; by gradedness this is complete for those degrees.
    """
    f, d, N = T.field, T.V.dim, T.N
    ct = T.braiding_block
    dl = T.coproduct_block
    eps = T.counit_block
    report = AxiomReport()

    # Yang-Baxter for the graded braiding, blockwise on three factors.
    for l in range(N + 1):
        for m in range(N + 1 - l):
            for n in range(N + 1 - l - m):
                lhs, rhs = hexagon(ct(l, m), ct(l, n), ct(m, n), d ** l, d ** m, d ** n)
                report.add(compare(f"yang_baxter[{l},{m},{n}]", lhs, rhs))

    # Product/braiding compatibility: stacking strands on the left...
    for a in range(N + 1):
        for b in range(N + 1 - a):
            for n in range(N + 1 - a - b):
                lhs = ct(a + b, n)
                rhs = whisker_chain((1, ct(a, n), d ** b), (d ** a, ct(b, n), 1))
                report.add(compare(f"product_braids_left[{a},{b};{n}]", lhs, rhs))
    # ...and on the right.
    for m in range(N + 1):
        for a in range(N + 1 - m):
            for b in range(N + 1 - m - a):
                lhs = ct(m, a + b)
                rhs = whisker_chain((d ** a, ct(m, b), 1), (1, ct(m, a), d ** b))
                report.add(compare(f"product_braids_right[{m};{a},{b}]", lhs, rhs))

    # Unit/braiding compatibility: degree-0 blocks are identities.
    for n in range(N + 1):
        ident = ExactMatrix.identity(f, d ** n)
        report.add(compare(f"unit_braids_left[{n}]", ct(0, n), ident))
        report.add(compare(f"unit_braids_right[{n}]", ct(n, 0), ident))

    # Coassociativity blockwise.
    for n in range(N + 1):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                lhs = whisker(1, dl(i, i + j), d ** (n - i - j), dl(i + j, n))
                rhs = whisker(d ** i, dl(j, n - i), 1, dl(i, n))
                report.add(compare(f"coassociative[{n};{i},{j}]", lhs, rhs))

    # Counit laws: the extreme blocks are identities, so only the k=0 and
    # k=n summands of (ε⊗1)Δ and (1⊗ε)Δ survive and give the identity.
    for n in range(N + 1):
        ident = ExactMatrix.identity(f, d ** n)
        report.add(compare(f"counit_left[{n}]", dl(0, n), ident))
        report.add(compare(f"counit_right[{n}]", dl(n, n), ident))

    # Coproduct of a product: Δ∘m = (m⊗m)(1⊗c⊗1)(Δ⊗Δ), blockwise over
    # input degrees (a, b) and output split k.
    for a in range(N + 1):
        for b in range(N + 1 - a):
            n = a + b
            for k in range(n + 1):
                # the summands are the splits k = i + j with i <= a and j <= b
                terms = (whisker(d ** i, ct(a - i, k - i), d ** (b - k + i),
                                 dl(i, a).kron(dl(k - i, b)))
                         for i in range(max(0, k - b), min(a, k) + 1))
                rhs = reduce(operator.add, terms)
                report.add(compare(f"coproduct_of_product[{a},{b};{k}]", dl(k, n), rhs))

    # Coproduct/braiding compatibility, blockwise.
    for m in range(N + 1):
        for n in range(N + 1 - m):
            for k in range(n + 1):
                lhs, rhs = coproduct_braids(whisker, dl(k, n), ct(m, n), ct(m, k), ct(m, n - k),
                                            d ** m, d ** k, d ** (n - k))
                report.add(compare(f"coproduct_braids_left[{m},{n};{k}]", lhs, rhs))
            for k in range(m + 1):
                lhs, rhs = coproduct_braids(mirror, dl(k, m), ct(m, n), ct(m - k, n), ct(k, n),
                                            d ** n, d ** (m - k), d ** k)
                report.add(compare(f"coproduct_braids_right[{m},{n};{k}]", lhs, rhs))

    # Counit/braiding compatibility, blockwise.
    for m in range(N + 1):
        for n in range(N + 1 - m):
            lhs = whisker(1, eps(n), d ** m, ct(m, n))
            report.add(compare(f"counit_braids_left[{m},{n}]", lhs, whisker(d ** m, eps(n), 1)))
            lhs = whisker(d ** n, eps(m), 1, ct(m, n))
            report.add(compare(f"counit_braids_right[{m},{n}]", lhs, whisker(1, eps(m), d ** n)))

    # Coproduct of the unit, counit of products, counit of the unit.
    report.add(compare("coproduct_of_unit", dl(0, 0), ExactMatrix.identity(f, 1)))
    for a in range(N + 1):
        for b in range(N + 1 - a):
            report.add(compare(f"counit_of_product[{a},{b}]", eps(a + b), eps(a).kron(eps(b))))
    report.add(compare("counit_of_unit", eps(0), ExactMatrix.identity(f, 1)))

    return report
