"""Exact matrices: the carrier of every structure map in the package.

Storage is sparse: each row is a ``{col: value}`` dict of its nonzero
cells.  Every kernel walks nonzeros only and drops results that cancel, so
no zero is ever stored and equal matrices have equal rows.  ``data`` is a
dense view for inspection and tests; no kernel reads it.

Every stored cell is canonical for its field (see ``fields``): over Q an
``int`` when integral and a ``Fraction`` with denominator > 1 otherwise,
over F_p an ``int`` in ``[1, p)``.  Kernels keep this by passing each cell
they compute through a ``FieldSpec`` op; cells they only copy are canonical
already.  So equal matrices also agree in the Python type of every cell.

Conventions, pinned once and used everywhere:

* matrices act on column vectors, so ``g after f`` is ``g * f``;
* ``kron`` is row-major: ``(a ⊗ b)[i*rows_b + k, j*cols_b + l] = a[i,j] * b[k,l]``,
  matching the basis identification ``e_i ⊗ e_j -> i*d + j``;
* ``whisker(left, X, right)`` is ``1_left ⊗ X ⊗ 1_right``, the one way to
  pad a map with identity strands; ``whisker(left, X, right, M)`` applies
  that map to ``M`` without building it, and ``X * M`` is the same kernel
  with ``left = right = 1``, so there is one product loop.  A row of ``X``
  whose single nonzero is one shares the row of ``M`` it picks out.
  ``kron`` is kept for tensor products of two maps that are not identities;
* row and column counts of zero are legal (the zero object shows up as the
  primitive space of a group algebra, for instance).

``nullspace`` returns a pinned canonical kernel basis so distinct runs and
distinct construction routes yield bit-identical matrices; ``column_basis``
is that canonical form, for any spanning set of a subspace.
"""

from __future__ import annotations

from .errors import LinearSolveError, NotInvertible, ShapeError
from .fields import FieldSpec, require_same_field


class ExactMatrix:
    """Immutable sparse matrix over a ``FieldSpec``.  ``nonzeros`` holds one
    ``{col: value}`` dict per row; rows are shared, so never mutate them."""

    __slots__ = ("field", "rows", "cols", "nonzeros")

    def __init__(self, field: FieldSpec, entries, rows: int | None = None, cols: int | None = None):
        rows = len(entries) if rows is None else rows
        if cols is None:
            if not entries:
                raise ShapeError("column count required for a matrix with no rows")
            cols = len(entries[0])
        element = field.element
        parsed = {}  # cell string -> scalar: each distinct string is parsed once
        out = []
        for r in entries:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            row = {}
            for j, x in enumerate(r):
                # the string "0" is element("0") over every field
                if x != "0":
                    if type(x) is str:
                        y = parsed.get(x)
                        if y is None:
                            y = parsed[x] = element(x)
                    else:
                        y = element(x)
                    if y:
                        row[j] = y
            out.append(row)
        if len(out) != rows:
            raise ShapeError("row count mismatch")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzeros", tuple(out))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _raw(cls, field, nonzeros, rows, cols):
        """A matrix on rows that already hold only nonzero field elements."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "nonzeros", tuple(nonzeros))
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        one = field.one
        return cls._raw(field, ({i: one} for i in range(n)), n, n)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        return cls._raw(field, ({} for _ in range(rows)), rows, cols)

    @classmethod
    def column(cls, field: FieldSpec, values) -> "ExactMatrix":
        return cls(field, [[v] for v in values], cols=1)

    # -- basics ----------------------------------------------------------

    @property
    def data(self) -> tuple[tuple, ...]:
        """The dense row-major grid, zeros included, built on each access."""
        zero = self.field.zero
        out = []
        for row in self.nonzeros:
            dense = [zero] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    def __getitem__(self, ij):
        i, j = ij
        return self.nonzeros[i].get(range(self.cols)[j], self.field.zero)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nonzeros == other.nonzeros
        )

    def __hash__(self) -> int:
        rows = tuple(frozenset(row.items()) for row in self.nonzeros)
        return hash((self.field, self.rows, self.cols, rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(row) for row in self.to_strings())
        return f"ExactMatrix({self.field}, {self.rows}x{self.cols}: [{body}])"

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def is_identity(self) -> bool:
        one = self.field.one
        return self.rows == self.cols and all(
            len(row) == 1 and row.get(i) == one for i, row in enumerate(self.nonzeros))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._merge(other, negate=False)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._merge(other, negate=True)

    def _merge(self, other: "ExactMatrix", negate: bool) -> "ExactMatrix":
        """``self + other``, or ``self - other``, row by row over nonzeros."""
        require_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"cannot {'subtract' if negate else 'add'} "
                             f"{self.rows}x{self.cols} and {other.rows}x{other.cols}")
        norm = self.field.normalize
        out = []
        for ra, rb in zip(self.nonzeros, other.nonzeros):
            if not rb:
                out.append(ra)
                continue
            row = dict(ra)
            for j, b in rb.items():
                a = row.get(j, 0)
                x = norm(a - b if negate else a + b)
                if x:
                    row[j] = x
                else:
                    del row[j]
            out.append(row)
        return ExactMatrix._raw(self.field, out, self.rows, self.cols)

    def __neg__(self) -> "ExactMatrix":
        norm = self.field.normalize
        out = ({j: norm(-x) for j, x in row.items()} for row in self.nonzeros)
        return ExactMatrix._raw(self.field, out, self.rows, self.cols)

    def scale(self, s) -> "ExactMatrix":
        s = self.field.element(s)
        if not s:
            return ExactMatrix.zeros(self.field, self.rows, self.cols)
        norm = self.field.normalize
        out = ({j: norm(s * x) for j, x in row.items()} for row in self.nonzeros)
        return ExactMatrix._raw(self.field, out, self.rows, self.cols)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Matrix product, ``whisker(1, self, 1, other)``: each row is the sum
        of the rows of ``other`` picked out by its nonzeros."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return _apply(1, self, 1, other)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, the tensor product of linear maps."""
        require_same_field(self.field, other.field)
        norm = self.field.normalize
        width = other.cols
        out = (
            {j * width + l: norm(a * b) for j, a in ra.items() for l, b in rb.items()}
            for ra in self.nonzeros
            for rb in other.nonzeros
        )
        return ExactMatrix._raw(self.field, out, self.rows * other.rows, self.cols * other.cols)

    def transpose(self) -> "ExactMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nonzeros):
            for j, x in row.items():
                out[j][i] = x
        return ExactMatrix._raw(self.field, out, self.cols, self.rows)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns.

        The RREF of a row space is unique, so the order of elimination does
        not show in the result.  Rows are taken one at a time and cleared
        against the pivot rows found so far, which are kept reduced against
        each other; an update walks only the pivot row's nonzeros, and a row
        that cancels to nothing drops out.  Each pivot row is scaled to a
        leading one when it is found.
        """
        f = self.field
        found: dict[int, dict] = {}
        for row in self.nonzeros:
            hits = [j for j in row if j in found]
            if hits:
                row = dict(row)
                for c in hits:
                    _clear(f, row, found[c], c)
            if not row:
                continue
            lead = min(row)
            inv = f.inv(row[lead])
            row = {j: f.mul(inv, x) for j, x in row.items()}
            for other in found.values():
                if lead in other:
                    _clear(f, other, row, lead)
            found[lead] = row
        pivots = sorted(found)
        out = [found[c] for c in pivots]
        out.extend({} for _ in range(self.rows - len(pivots)))
        return ExactMatrix._raw(f, out, self.rows, self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "ExactMatrix":
        """Canonical kernel basis, one basis vector per column.

        The raw kernel basis from the RREF parameterization is itself put in
        canonical form by ``column_basis``, so any two matrices with the same
        row space give the bit-identical result.
        """
        f = self.field
        R, pivots = self.rref()
        pivot_set = set(pivots)
        vectors = {fc: {fc: f.one} for fc in range(self.cols) if fc not in pivot_set}
        if not vectors:
            return ExactMatrix.zeros(f, self.cols, 0)
        # a reduced pivot row is nonzero only at its pivot and at free columns
        for pc, row in zip(pivots, R.nonzeros):
            for fc, x in row.items():
                if fc != pc:
                    vectors[fc][pc] = f.neg(x)
        return column_basis(ExactMatrix._raw(f, vectors.values(), len(vectors), self.cols))

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise NotInvertible(f"{self.rows}x{self.cols} matrix is not square")
        try:
            return self.solve(ExactMatrix.identity(self.field, self.rows))
        except LinearSolveError as exc:
            raise NotInvertible("matrix is singular") from exc

    def solve(self, rhs: "ExactMatrix") -> "ExactMatrix":
        """Unique exact solution ``X`` of ``self * X = rhs``.

        Raises ``LinearSolveError`` when the system is inconsistent or the
        solution is not unique (callers rely on injective coefficients).
        """
        R, pivots = hstack(self, rhs).rref()
        if any(p >= self.cols for p in pivots):
            raise LinearSolveError("inconsistent system")
        if len(pivots) < self.cols:
            raise LinearSolveError("solution is not unique")
        # the pivots are exactly 0 .. cols-1, so row r of R solves for x_r
        out = _right_part(R.nonzeros[:self.cols], self.cols)
        return ExactMatrix._raw(self.field, out, self.cols, rhs.cols)

    # -- serialization -----------------------------------------------------

    def to_strings(self) -> list[list[str]]:
        fmt = self.field.format
        out = []
        for row in self.nonzeros:
            strings = ["0"] * self.cols
            for j, x in row.items():
                strings[j] = fmt(x)
            out.append(strings)
        return out


def _clear(f: FieldSpec, row: dict, pivot_row: dict, c: int) -> None:
    """Clear column ``c`` of the sparse ``row`` in place: the pivot row has a
    one there, so this is ``row -= row[c] * pivot_row`` over its nonzeros.
    ``sub`` normalizes the raw ``x - t*y``: one field call per updated cell,
    which the benchmark tracer counts as ``fields.sub``."""
    t = row[c]
    for j, y in pivot_row.items():
        x = f.sub(row.get(j, 0), t * y)
        if x:
            row[j] = x
        else:
            del row[j]


def column_basis(spanning: ExactMatrix) -> ExactMatrix:
    """Canonical basis of the span of the rows of ``spanning``, one vector
    per column: the RREF with its zero rows dropped, transposed.

    The RREF of a row space is unique, so any two spanning sets of one space
    give the bit-identical basis, and so does any order of the rows.  The
    sparsest rows go first: pivot rows found early are then sparse, and
    clearing against them fills in fewer cells.
    """
    f, cols = spanning.field, spanning.cols
    rows = sorted(spanning.nonzeros, key=len)
    canon, piv = ExactMatrix._raw(f, rows, len(rows), cols).rref()
    return ExactMatrix._raw(f, canon.nonzeros[:len(piv)], len(piv), cols).transpose()


def _right_part(rows, offset: int):
    """The cells at columns ``>= offset`` of each row, shifted left by it."""
    return ({j - offset: x for j, x in row.items() if j >= offset} for row in rows)


def hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    require_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise ShapeError(f"hstack needs equal row counts, got {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    shift = a.cols
    out = ({**ra, **{j + shift: x for j, x in rb.items()}} for ra, rb in zip(a.nonzeros, b.nonzeros))
    return ExactMatrix._raw(a.field, out, a.rows, a.cols + b.cols)


def stack_rows(mats: list[ExactMatrix], field: FieldSpec, cols: int) -> ExactMatrix:
    """The rows of ``mats`` stacked in order; ``cols`` fixes the shape when the list is empty."""
    for m in mats:
        require_same_field(field, m.field)
        if m.cols != cols:
            raise ShapeError("stack_rows needs equal column counts")
    out = tuple(row for m in mats for row in m.nonzeros)
    return ExactMatrix._raw(field, out, len(out), cols)


def whisker(left: int, X: ExactMatrix, right: int, M: ExactMatrix | None = None) -> ExactMatrix:
    """``1_left ⊗ X ⊗ 1_right``: ``X`` acting on the middle tensor factor.

    With ``M``, the product ``(1_left ⊗ X ⊗ 1_right) · M``, computed from the
    rows of ``X`` and ``M`` without building the padded matrix.  Without it,
    each nonzero of ``X`` is copied onto its ``left * right`` diagonal
    positions, so the result holds ``left * right * nnz(X)`` cells, each the
    value that ``identity(left).kron(X).kron(identity(right))`` gives.
    """
    if M is not None:
        return _apply(left, X, right, M)
    if left == right == 1:
        return X
    out = []
    for s in range(left):
        shift = s * X.cols
        for row in X.nonzeros:
            for t in range(right):
                out.append({(shift + j) * right + t: x for j, x in row.items()})
    return ExactMatrix._raw(X.field, out, left * X.rows * right, left * X.cols * right)


def _apply(left: int, X: ExactMatrix, right: int, M: ExactMatrix) -> ExactMatrix:
    """``(1_left ⊗ X ⊗ 1_right) · M``, the one product loop.

    Output row ``(s, r, t)`` sums the rows ``(s * X.cols + k) * right + t`` of
    ``M``, weighted by ``X[r, k]``.  A row of ``X`` with a single nonzero picks
    out ``right`` consecutive rows of ``M``: when that nonzero is one they are
    shared, not copied, and otherwise each cell is scaled with no zero test,
    since a product of two nonzeros in a field is nonzero.
    """
    require_same_field(X.field, M.field)
    rows, inner = left * X.rows * right, left * X.cols * right
    if inner != M.rows:
        raise ShapeError(f"cannot compose {rows}x{inner} with {M.rows}x{M.cols}")
    norm, one = X.field.normalize, X.field.one
    mrows = M.nonzeros
    out = []
    for s in range(left):
        base = s * X.cols
        for row in X.nonzeros:
            if len(row) == 1:
                [(k, a)] = row.items()
                start = (base + k) * right
                picked = mrows[start:start + right]
                if a == one:
                    out.extend(picked)
                else:
                    out.extend({j: norm(a * b) for j, b in r.items()} for r in picked)
                continue
            for t in range(right):
                acc = {}
                for k, a in row.items():
                    for j, b in mrows[(base + k) * right + t].items():
                        acc[j] = acc.get(j, 0) + a * b
                out.append({j: x for j, y in acc.items() if (x := norm(y))})
    return ExactMatrix._raw(X.field, out, rows, M.cols)


def kron_power(m: ExactMatrix, n: int) -> ExactMatrix:
    if n == 0:
        return ExactMatrix.identity(m.field, 1)
    out = m
    for _ in range(n - 1):
        out = out.kron(m)
    return out
