"""Braided objects, algebras, coalgebras and bialgebras as structure matrices.

Everything lives in strict finite-dimensional vector spaces with a chosen
basis, so the unit object is the base field itself and all associativity and
unit constraints are identity matrices.  Each axiom becomes a plain matrix
identity and every checker reports, per axiom, either a pass or the first
violating entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import NotInvertible, ShapeError, SpecViolation
from .fields import FieldSpec
from .matrix import ExactMatrix, whisker


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
    for i, (ra, rb) in enumerate(zip(lhs.nonzeros, rhs.nonzeros)):
        if ra != rb:
            j = min(j for j in ra.keys() | rb.keys() if ra.get(j, 0) != rb.get(j, 0))
            a = lhs.field.format(ra.get(j, lhs.field.zero))
            b = rhs.field.format(rb.get(j, rhs.field.zero))
            return CheckItem(name, False, f"first difference at ({i},{j}): {a} != {b}")
    return CheckItem(name, True)


# -- domain types -----------------------------------------------------------


@dataclass(frozen=True)
class BraidedObject:
    """A space of dimension ``dim`` with an invertible Yang-Baxter operator."""

    field: FieldSpec
    dim: int
    c: ExactMatrix
    c_inv: ExactMatrix

    @classmethod
    def from_c(cls, field: FieldSpec, dim: int, c: ExactMatrix) -> "BraidedObject":
        if c.rows != dim * dim or c.cols != dim * dim:
            raise ShapeError(f"braiding must be {dim * dim}x{dim * dim}, got {c.rows}x{c.cols}")
        return cls(field, dim, c, c.inverse())

    def inverse_object(self) -> "BraidedObject":
        """The same space braided by the inverse operator."""
        return BraidedObject(self.field, self.dim, self.c_inv, self.c)


@dataclass(frozen=True)
class AlgebraData:
    """An associative unital algebra: product ``m: A⊗A -> A`` and unit ``u: k -> A``."""

    field: FieldSpec
    dim: int
    m: ExactMatrix
    u: ExactMatrix


@dataclass(frozen=True)
class BraidedAlgebra:
    algebra: AlgebraData
    c: ExactMatrix


@dataclass(frozen=True)
class BialgebraData:
    """A braided bialgebra: algebra, coalgebra and braiding on one space."""

    field: FieldSpec
    dim: int
    m: ExactMatrix
    u: ExactMatrix
    delta: ExactMatrix
    eps: ExactMatrix
    c: ExactMatrix

    @property
    def algebra(self) -> AlgebraData:
        return AlgebraData(self.field, self.dim, self.m, self.u)

    def braided_object(self) -> BraidedObject:
        return BraidedObject.from_c(self.field, self.dim, self.c)


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


# -- checkers ---------------------------------------------------------------


def _shape_gate(c: ExactMatrix, dim: int, what: str) -> None:
    if c.rows != dim * dim or c.cols != dim * dim:
        raise ShapeError(f"{what} must be {dim * dim}x{dim * dim}, got {c.rows}x{c.cols}")


def yang_baxter_holds(c: ExactMatrix, dim: int) -> CheckItem:
    cV = whisker(1, c, dim)
    Vc = whisker(dim, c, 1)
    return compare("yang_baxter", cV * Vc * cV, Vc * cV * Vc)


def check_yang_baxter(V: BraidedObject) -> AxiomReport:
    """Invertibility plus the quantum Yang-Baxter equation for ``V.c``."""
    _shape_gate(V.c, V.dim, "braiding")
    report = AxiomReport()
    ident2 = ExactMatrix.identity(V.field, V.dim * V.dim)
    report.add(compare("invertible_right", V.c * V.c_inv, ident2))
    report.add(compare("invertible_left", V.c_inv * V.c, ident2))
    report.add(yang_baxter_holds(V.c, V.dim))
    return report


def check_braided_morphism(f: ExactMatrix, V: BraidedObject, W: BraidedObject) -> bool:
    """True iff ``c_W (f⊗f) = (f⊗f) c_V``."""
    if f.rows != W.dim or f.cols != V.dim:
        raise ShapeError(f"morphism must be {W.dim}x{V.dim}, got {f.rows}x{f.cols}")
    ff = f.kron(f)
    return W.c * ff == ff * V.c


def check_algebra(A: AlgebraData) -> AxiomReport:
    """Associativity and the two unit laws."""
    report = AxiomReport()
    d = A.dim
    ident = ExactMatrix.identity(A.field, d)
    report.add(compare("associative", A.m * whisker(1, A.m, d), A.m * whisker(d, A.m, 1)))
    report.add(compare("unit_left", A.m * whisker(1, A.u, d), ident))
    report.add(compare("unit_right", A.m * whisker(d, A.u, 1), ident))
    return report


def check_coalgebra(field: FieldSpec, dim: int, delta: ExactMatrix, eps: ExactMatrix) -> AxiomReport:
    report = AxiomReport()
    ident = ExactMatrix.identity(field, dim)
    report.add(compare("coassociative", whisker(1, delta, dim) * delta, whisker(dim, delta, 1) * delta))
    report.add(compare("counit_left", whisker(1, eps, dim) * delta, ident))
    report.add(compare("counit_right", whisker(dim, eps, 1) * delta, ident))
    return report


def check_braided_algebra(A: AlgebraData, c: ExactMatrix) -> AxiomReport:
    """Compatibility of product and unit with the braiding (with strict
    unit constraints, so the unit laws lose their ``l, r`` factors)."""
    _shape_gate(c, A.dim, "braiding")
    report = AxiomReport()
    d = A.dim
    report.add(compare(
        "product_braids_left",  # c(m⊗A) = (A⊗m)(c⊗A)(A⊗c)
        c * whisker(1, A.m, d),
        whisker(d, A.m, 1) * whisker(1, c, d) * whisker(d, c, 1),
    ))
    report.add(compare(
        "product_braids_right",  # c(A⊗m) = (m⊗A)(A⊗c)(c⊗A)
        c * whisker(d, A.m, 1),
        whisker(1, A.m, d) * whisker(d, c, 1) * whisker(1, c, d),
    ))
    report.add(compare("unit_braids_left", c * whisker(1, A.u, d), whisker(d, A.u, 1)))
    report.add(compare("unit_braids_right", c * whisker(d, A.u, 1), whisker(1, A.u, d)))
    return report


def check_braided_coalgebra(field: FieldSpec, dim: int, delta: ExactMatrix,
                            eps: ExactMatrix, c: ExactMatrix) -> AxiomReport:
    """Compatibility of coproduct and counit with the braiding."""
    _shape_gate(c, dim, "braiding")
    report = AxiomReport()
    report.add(compare(
        "coproduct_braids_left",  # (Δ⊗C)c = (C⊗c)(c⊗C)(C⊗Δ)
        whisker(1, delta, dim) * c,
        whisker(dim, c, 1) * whisker(1, c, dim) * whisker(dim, delta, 1),
    ))
    report.add(compare(
        "coproduct_braids_right",  # (C⊗Δ)c = (c⊗C)(C⊗c)(Δ⊗C)
        whisker(dim, delta, 1) * c,
        whisker(1, c, dim) * whisker(dim, c, 1) * whisker(1, delta, dim),
    ))
    report.add(compare("counit_braids_left", whisker(1, eps, dim) * c, whisker(dim, eps, 1)))
    report.add(compare("counit_braids_right", whisker(dim, eps, 1) * c, whisker(1, eps, dim)))
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
    report.extend(check_algebra(B.algebra), prefix="algebra.")
    report.extend(check_coalgebra(B.field, B.dim, B.delta, B.eps), prefix="coalgebra.")
    report.extend(check_braided_algebra(B.algebra, B.c))
    report.extend(check_braided_coalgebra(B.field, B.dim, B.delta, B.eps, B.c))
    one = ExactMatrix.identity(B.field, 1)
    report.add(compare(
        "coproduct_of_product",  # Δm = (m⊗m)(B⊗c⊗B)(Δ⊗Δ)
        B.delta * B.m,
        B.m.kron(B.m) * whisker(B.dim, B.c, B.dim) * B.delta.kron(B.delta),
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
    for i in (1, 2):
        for j in (1, 2):
            Ai, Aj = spec.algebra(i), spec.algebra(j)
            di, dj = Ai.dim, Aj.dim
            cij = spec.c(i, j)
            lhs = cij * whisker(1, Ai.m, dj)
            rhs = whisker(dj, Ai.m, 1) * whisker(1, cij, di) * whisker(di, cij, 1)
            if lhs != rhs:
                raise SpecViolation(f"c21 fails for (i,j)=({i},{j})")
            lhs = cij * whisker(di, Aj.m, 1)
            rhs = whisker(1, Aj.m, di) * whisker(dj, cij, 1) * whisker(1, cij, dj)
            if lhs != rhs:
                raise SpecViolation(f"c22 fails for (i,j)=({i},{j})")
            if cij * whisker(1, Ai.u, dj) != whisker(dj, Ai.u, 1):
                raise SpecViolation(f"c31 (left unit) fails for (i,j)=({i},{j})")
            if cij * whisker(di, Aj.u, 1) != whisker(1, Aj.u, di):
                raise SpecViolation(f"c31 (right unit) fails for (i,j)=({i},{j})")
            for k in (1, 2):
                dk = spec.algebra(k).dim
                lhs = whisker(dk, cij, 1) * whisker(1, spec.c(i, k), dj) * whisker(di, spec.c(j, k), 1)
                rhs = whisker(1, spec.c(j, k), di) * whisker(dj, spec.c(i, k), 1) * whisker(1, cij, dk)
                if lhs != rhs:
                    raise SpecViolation(f"cij fails for (i,j,k)=({i},{j},{k})")


def product_algebra(spec: ProductAlgebraSpec, i: int, j: int) -> BraidedAlgebra:
    """The braided algebra on ``A_i ⊗ A_j`` with the exchange-twisted product
    and the assembled braiding, after verifying the hypotheses."""
    verify_product_spec(spec)
    f = spec.a1.field
    Ai, Aj = spec.algebra(i), spec.algebra(j)
    di, dj = Ai.dim, Aj.dim
    m = Ai.m.kron(Aj.m) * whisker(di, spec.c(j, i), dj)
    u = Ai.u.kron(Aj.u)
    c = (
        whisker(di, spec.c(i, j), dj)
        * spec.c(i, i).kron(spec.c(j, j))
        * whisker(di, spec.c(j, i), dj)
    )
    return BraidedAlgebra(AlgebraData(f, Ai.dim * Aj.dim, m, u), c)


@dataclass(frozen=True)
class DoubledAlgebra:
    """``A ⊗ A`` as a braided algebra, with the exchange operators between
    ``A`` and ``A ⊗ A`` that make the pair satisfy the product hypotheses."""

    product: BraidedAlgebra
    c21: ExactMatrix  # (A⊗A)⊗A -> A⊗(A⊗A)
    c12: ExactMatrix  # A⊗(A⊗A) -> (A⊗A)⊗A
    c22: ExactMatrix  # braiding of A⊗A


def double_braiding_operators(c: ExactMatrix, dim: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """The exchange operators a braiding induces between a space and its
    square: ``(c21, c12, c22)`` with

    ``c21 = (c⊗1)(1⊗c)``, ``c12 = (1⊗c)(c⊗1)``,
    ``c22 = (1⊗c⊗1)(c⊗c)(1⊗c⊗1)``.
    """
    c21 = whisker(1, c, dim) * whisker(dim, c, 1)
    c12 = whisker(dim, c, 1) * whisker(1, c, dim)
    middle = whisker(dim, c, dim)
    c22 = middle * c.kron(c) * middle
    return c21, c12, c22


def double_braiding(A: AlgebraData, c: ExactMatrix) -> DoubledAlgebra:
    """Braided algebra structure on ``A ⊗ A`` induced by a braided algebra
    ``(A, c)``, with the derived exchange operators."""
    gate = check_braided_algebra(A, c)
    if not gate.passed:
        raise SpecViolation(f"input is not a braided algebra: {gate.failures()[0].name}")
    c21, c12, c22 = double_braiding_operators(c, A.dim)
    spec = ProductAlgebraSpec(A, A, {(1, 1): c, (1, 2): c, (2, 1): c, (2, 2): c})
    prod = product_algebra(spec, 1, 2)
    assert prod.c == c22
    return DoubledAlgebra(prod, c21, c12, c22)
