"""Exact matrices: the carrier of every structure map in the package.

Storage is a dense grid of field elements.  Elimination (``rref`` and so
``nullspace``, ``solve`` and ``inverse``) runs on sparse rows and touches
only nonzeros.

Conventions, pinned once and used everywhere:

* matrices act on column vectors, so ``g after f`` is ``g * f``;
* ``kron`` is row-major: ``(a ⊗ b)[i*rows_b + k, j*cols_b + l] = a[i,j] * b[k,l]``,
  matching the basis identification ``e_i ⊗ e_j -> i*d + j``;
* ``whisker(left, X, right)`` is ``1_left ⊗ X ⊗ 1_right``, the one way to
  pad a map with identity strands; ``kron`` is kept for tensor products of
  two maps that are not identities;
* row and column counts of zero are legal (the zero object shows up as the
  primitive space of a group algebra, for instance).

``nullspace`` returns a pinned canonical kernel basis so distinct runs and
distinct construction routes yield bit-identical matrices.
"""

from __future__ import annotations

from .errors import LinearSolveError, NotInvertible, ShapeError
from .fields import FieldSpec, require_same_field


class ExactMatrix:
    """Immutable dense matrix over a ``FieldSpec``."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, entries, rows: int | None = None, cols: int | None = None):
        rows = len(entries) if rows is None else rows
        if cols is None:
            if rows == 0:
                raise ShapeError("column count required for a matrix with no rows")
            cols = len(entries[0])
        grid = []
        for r in entries:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            grid.append(tuple(field.element(x) for x in r))
        if len(grid) != rows:
            raise ShapeError("row count mismatch")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(grid))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _raw(cls, field, grid, rows, cols):
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", tuple(tuple(r) for r in grid))
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        one, zero = field.one, field.zero
        return cls._raw(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        zero = field.zero
        return cls._raw(field, [[zero] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def column(cls, field: FieldSpec, values) -> "ExactMatrix":
        return cls(field, [[v] for v in values], cols=1)

    @classmethod
    def from_strings(cls, field: FieldSpec, rows, cols: int | None = None) -> "ExactMatrix":
        return cls(field, rows, cols=cols)

    # -- basics ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(self.field.format(x) for x in row) for row in self.data)
        return f"ExactMatrix({self.field}, {self.rows}x{self.cols}: [{body}])"

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(x == zero for row in self.data for x in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one, zero = self.field.one, self.field.zero
        return all(
            self.data[i][j] == (one if i == j else zero)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    # -- arithmetic --------------------------------------------------------

    def _check_field(self, other: "ExactMatrix") -> None:
        require_same_field(self.field, other.field)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        norm = self.field.normalize
        grid = [
            [norm(a + b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ]
        return ExactMatrix._raw(self.field, grid, self.rows, self.cols)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}")
        norm = self.field.normalize
        grid = [
            [norm(a - b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ]
        return ExactMatrix._raw(self.field, grid, self.rows, self.cols)

    def __neg__(self) -> "ExactMatrix":
        norm = self.field.normalize
        grid = [[norm(-a) for a in row] for row in self.data]
        return ExactMatrix._raw(self.field, grid, self.rows, self.cols)

    def scale(self, s) -> "ExactMatrix":
        s = self.field.element(s)
        norm = self.field.normalize
        grid = [[norm(s * a) for a in row] for row in self.data]
        return ExactMatrix._raw(self.field, grid, self.rows, self.cols)

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Matrix product; skips zero entries, which keeps the ubiquitous
        signed-permutation products near quadratic instead of cubic."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        norm = self.field.normalize
        zero = self.field.zero
        out = [[0] * other.cols for _ in range(self.rows)]
        odata = other.data
        for i, row in enumerate(self.data):
            oi = out[i]
            for k, a in enumerate(row):
                if a == zero:
                    continue
                for j, b in enumerate(odata[k]):
                    if b != zero:
                        oi[j] += a * b
        grid = [[norm(x) for x in row] for row in out]
        return ExactMatrix._raw(self.field, grid, self.rows, other.cols)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, the tensor product of linear maps."""
        self._check_field(other)
        norm = self.field.normalize
        zero = self.field.zero
        R, C = self.rows * other.rows, self.cols * other.cols
        out = [[zero] * C for _ in range(R)]
        for i, row in enumerate(self.data):
            for j, a in enumerate(row):
                if a == zero:
                    continue
                for k, orow in enumerate(other.data):
                    dest = out[i * other.rows + k]
                    base = j * other.cols
                    for l, b in enumerate(orow):
                        if b != zero:
                            dest[base + l] = norm(a * b)
        return ExactMatrix._raw(self.field, out, R, C)

    def transpose(self) -> "ExactMatrix":
        grid = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return ExactMatrix._raw(self.field, grid, self.cols, self.rows)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns.

        The RREF of a row space is unique, so the order of elimination does
        not show in the result.  Rows are taken one at a time as sparse
        ``{col: value}`` dicts and cleared against the pivot rows found so
        far, which are kept reduced against each other; an update walks only
        the pivot row's nonzeros, and a row that cancels to nothing drops out.
        Each pivot row is scaled to a leading one when it is found.
        """
        f = self.field
        found: dict[int, dict] = {}
        for row in self.data:
            r = {j: x for j, x in enumerate(row) if x != 0}
            for c in [j for j in r if j in found]:
                _clear(f, r, found[c], c)
            if not r:
                continue
            lead = min(r)
            inv = f.inv(r[lead])
            r = {j: f.mul(inv, x) for j, x in r.items()}
            for other in found.values():
                if lead in other:
                    _clear(f, other, r, lead)
            found[lead] = r
        pivots = sorted(found)
        zero = f.zero
        grid = [[found[c].get(j, zero) for j in range(self.cols)] for c in pivots]
        grid.extend([zero] * self.cols for _ in range(self.rows - len(pivots)))
        return ExactMatrix._raw(f, grid, self.rows, self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "ExactMatrix":
        """Canonical kernel basis, one basis vector per column.

        The raw kernel basis from the RREF parameterization is itself put in
        column-reduced canonical form (RREF of its transpose, zero rows
        dropped), so any two matrices with the same row space give the
        bit-identical result.
        """
        f = self.field
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        if not free:
            return ExactMatrix.zeros(f, self.cols, 0)
        vectors = []
        for fc in free:
            v = [f.zero] * self.cols
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(R.data[r][fc])
            vectors.append(v)
        raw_t = ExactMatrix._raw(f, vectors, len(vectors), self.cols)
        canon, piv = raw_t.rref()
        kept = [list(canon.data[i]) for i in range(len(piv))]
        basis_t = ExactMatrix._raw(f, kept, len(piv), self.cols)
        return basis_t.transpose()

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise NotInvertible(f"{self.rows}x{self.cols} matrix is not square")
        n = self.rows
        aug = hstack(self, ExactMatrix.identity(self.field, n))
        R, pivots = aug.rref()
        if len(pivots) < n or any(p >= n for p in pivots):
            raise NotInvertible("matrix is singular")
        grid = [row[n:] for row in R.data]
        return ExactMatrix._raw(self.field, grid, n, n)

    def solve(self, rhs: "ExactMatrix") -> "ExactMatrix":
        """Unique exact solution ``X`` of ``self * X = rhs``.

        Raises ``LinearSolveError`` when the system is inconsistent or the
        solution is not unique (callers rely on injective coefficients).
        """
        self._check_field(rhs)
        if rhs.rows != self.rows:
            raise ShapeError(f"rhs has {rhs.rows} rows, expected {self.rows}")
        aug = hstack(self, rhs)
        R, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            raise LinearSolveError("inconsistent system")
        if len(pivots) < self.cols:
            raise LinearSolveError("solution is not unique")
        zero = self.field.zero
        grid = [[zero] * rhs.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            grid[pc] = list(R.data[r][self.cols:])
        return ExactMatrix._raw(self.field, grid, self.cols, rhs.cols)

    # -- serialization -----------------------------------------------------

    def to_strings(self) -> list[list[str]]:
        fmt = self.field.format
        return [[fmt(x) for x in row] for row in self.data]


def _clear(f: FieldSpec, row: dict, pivot_row: dict, c: int) -> None:
    """Clear column ``c`` of the sparse ``row`` in place: the pivot row has a
    one there, so this is ``row -= row[c] * pivot_row`` over its nonzeros."""
    t = row[c]
    for j, y in pivot_row.items():
        x = f.sub(row.get(j, 0), f.mul(t, y))
        if x:
            row[j] = x
        else:
            del row[j]


def hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    require_same_field(a.field, b.field)
    if a.rows != b.rows:
        raise ShapeError("hstack needs equal row counts")
    grid = [list(ra) + list(rb) for ra, rb in zip(a.data, b.data)]
    return ExactMatrix._raw(a.field, grid, a.rows, a.cols + b.cols)


def vstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    require_same_field(a.field, b.field)
    if a.cols != b.cols:
        raise ShapeError("vstack needs equal column counts")
    grid = [list(r) for r in a.data] + [list(r) for r in b.data]
    return ExactMatrix._raw(a.field, grid, a.rows + b.rows, a.cols)


def stack_rows(mats: list[ExactMatrix], field: FieldSpec, cols: int) -> ExactMatrix:
    """vstack of a possibly empty list, with explicit shape for the empty case."""
    for m in mats:
        require_same_field(field, m.field)
        if m.cols != cols:
            raise ShapeError("vstack needs equal column counts")
    grid = [row for m in mats for row in m.data]
    return ExactMatrix._raw(field, grid, len(grid), cols)


def whisker(left: int, X: ExactMatrix, right: int) -> ExactMatrix:
    """``1_left ⊗ X ⊗ 1_right``: ``X`` acting on the middle tensor factor.

    Built in one pass: each entry of ``X`` is copied onto its
    ``left * right`` diagonal positions and every other cell is the field's
    zero, so each cell holds the value that
    ``identity(left).kron(X).kron(identity(right))`` gives.
    """
    zero = X.field.zero
    # kron skips zero entries, so an unreduced zero such as Fraction(0, 1)
    # comes out as the field's zero there too
    rows = [[x if x != zero else zero for x in row] for row in X.data]
    cols = X.cols * right
    width = left * cols
    grid = []
    for s in range(left):
        start = s * cols
        for row in rows:
            for t in range(start, start + right):
                out = [zero] * width
                out[t:start + cols:right] = row
                grid.append(out)
    return ExactMatrix._raw(X.field, grid, left * X.rows * right, width)


def kron_power(m: ExactMatrix, n: int) -> ExactMatrix:
    if n == 0:
        return ExactMatrix.identity(m.field, 1)
    out = m
    for _ in range(n - 1):
        out = out.kron(m)
    return out
