"""Exact matrices: the carrier of every structure map in the package.

Storage is sparse: each row is a ``{col: value}`` dict of its nonzero
cells.  Every kernel walks nonzeros only and drops results that cancel, so
no zero is ever stored and equal matrices have equal rows.  ``data`` is a
dense view for inspection and tests; no kernel reads it.

Every stored cell is canonical for its field (see ``fields``): over Q an
``int`` when integral and a ``Fraction`` with denominator > 1 otherwise,
over F_p an ``int`` in ``[1, p)``.  Kernels keep this by passing each cell
they compute through a ``FieldSpec`` op (the product kernels reduce F_p
cells with an inline ``% p``, and the summing loop over Q normalizes only
a sum that is not an ``int``); cells they only copy are canonical already.
So equal matrices also agree in the Python type of every cell.

Conventions, pinned once and used everywhere:

* matrices act on column vectors, so ``g after f`` is ``g * f``;
* ``kron`` is row-major: ``(a ⊗ b)[i*rows_b + k, j*cols_b + l] = a[i,j] * b[k,l]``,
  matching the basis identification ``e_i ⊗ e_j -> i*d + j``;
* ``whisker(left, X, right)`` is ``1_left ⊗ X ⊗ 1_right``, the one way to
  pad a map with identity strands; ``whisker(left, X, right, M)`` applies
  that map to ``M`` without building it, and ``X * M`` is the same kernel
  with ``left = right = 1``, so there is one product loop.  A matrix with
  one cell per row (an identity, an exchange block of a diagonal braiding)
  keeps its *column map* once ``column_map`` finds it.  The product loop
  then picks rows of ``M`` through the padded map of ``X``, sharing a row
  whose cell is one, or relabels the keys of ``X``'s rows through a map of
  ``M`` with distinct columns; ``whisker_chain`` composes the maps of a
  chain of such factors and builds only the product.  ``kron`` is kept for
  tensor products of two maps that are not identities;
* row and column counts of zero are legal (the zero object shows up as the
  primitive space of a group algebra, for instance).

``nullspace`` returns a pinned canonical kernel basis so distinct runs and
distinct construction routes yield bit-identical matrices; ``column_basis``
is that canonical form, for any spanning set of a subspace.
"""

from __future__ import annotations

from .errors import LinearSolveError, NotInvertible, ShapeError
from .fields import FieldSpec, require_same_field

_set = object.__setattr__  # writes past ExactMatrix.__setattr__, which refuses them


class ExactMatrix:
    """Immutable sparse matrix over a ``FieldSpec``.  ``nonzeros`` holds one
    ``{col: value}`` dict per row; rows are shared, so never mutate them."""

    __slots__ = ("field", "rows", "cols", "nonzeros", "cmap")

    def __init__(self, field: FieldSpec, entries, rows: int | None = None, cols: int | None = None):
        rows = len(entries) if rows is None else rows
        if cols is None:
            if not entries:
                raise ShapeError("column count required for a matrix with no rows")
            cols = len(entries[0])
        element = field.element
        out = []
        for r in entries:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            row = {}
            for j, x in enumerate(r):
                # the string "0" is element("0") over every field
                if x != "0" and (y := element(x)):
                    row[j] = y
            out.append(row)
        if len(out) != rows:
            raise ShapeError("row count mismatch")
        _set(self, "field", field)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "nonzeros", tuple(out))
        _set(self, "cmap", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _raw(cls, field, nonzeros, rows, cols, cmap=None):
        """A matrix on rows that already hold only nonzero field elements,
        with its column map when the caller knows it."""
        m = object.__new__(cls)
        _set(m, "field", field)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "nonzeros", tuple(nonzeros))
        _set(m, "cmap", cmap)
        return m

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        one = field.one
        return cls._raw(field, ({i: one} for i in range(n)), n, n, (range(n), None, True))

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
        """Kronecker product, the tensor product of linear maps.  A factor
        with a kept column map and every cell one (an identity, a flip block)
        makes each output row a row of the other factor with shifted keys."""
        require_same_field(self.field, other.field)
        p, norm = self.field.p, self.field.normalize
        width = other.cols
        if other.cmap and other.cmap[1] is None:
            out = ({j * width + l: a for j, a in ra.items()}
                   for ra in self.nonzeros for l in other.cmap[0])
        elif self.cmap and self.cmap[1] is None:
            out = ({s + l: b for l, b in rb.items()}
                   for s in [j * width for j in self.cmap[0]] for rb in other.nonzeros)
        else:
            out = ({j * width + l: a * b % p if p else norm(a * b)
                    for j, a in ra.items() for l, b in rb.items()}
                   for ra in self.nonzeros for rb in other.nonzeros)
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

        Empty rows are dropped, and the others go highest leading column
        first, the one order of every elimination.  A new pivot then lies
        left of the pivot rows found before it, which hold no cell there
        unless rows shared a leading column, so a pivot row is seldom
        updated once found.  On the flip d=2 up to degree 10 over Q this made
        82,244 cell updates, 5,952 of them touching a ``Fraction``, against
        90,440 and 35,526 with the sparsest rows first.
        """
        f = self.field
        found: dict[int, dict] = {}
        for row in sorted(filter(None, self.nonzeros), key=min, reverse=True):
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
    give the bit-identical basis, and so does any order of the rows.
    """
    return row_basis(spanning)[0].transpose()


def row_basis(spanning: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """The canonical basis of ``column_basis`` as rows, the RREF of
    ``spanning`` without its zero rows, and the pivot of each row."""
    canon, piv = spanning.rref()
    return ExactMatrix._raw(spanning.field, canon.nonzeros[:len(piv)], len(piv), spanning.cols), piv


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
    ``M``, weighted by ``X[r, k]``.  Column maps skip the sum: when ``X``
    keeps one, each output row is the row of ``M`` it picks, shared when the
    cell is one; when ``M`` keeps one with distinct columns, each output row
    is a row of ``X`` with its keys relabelled.  A single-cell row of ``X``
    without a map still picks its rows of ``M``.  A product of two nonzeros
    is nonzero, so only sums are tested for zero.  Over Q a sum that is an
    ``int`` is canonical already, so only a ``Fraction`` sum is normalized.
    """
    require_same_field(X.field, M.field)
    f = X.field
    rows, inner = left * X.rows * right, left * X.cols * right
    if inner != M.rows:
        raise ShapeError(f"cannot compose {rows}x{inner} with {M.rows}x{M.cols}")
    if X.cmap:
        return ExactMatrix._raw(f, _pick(f, *_padded_map(left, X, right), M.nonzeros), rows, M.cols)
    p, norm = f.p, f.normalize
    mrows = M.nonzeros
    out = []
    if M.cmap and M.cmap[2]:
        mcols, mvals, _ = M.cmap
        for s in range(left):
            for row in X.nonzeros:
                for o in range(s * X.cols * right, (s * X.cols + 1) * right):
                    out.append({mcols[o + k * right]: a for k, a in row.items()} if mvals is None else
                               {mcols[i]: a * mvals[i] % p if p else norm(a * mvals[i])
                                for i, a in ((o + k * right, a) for k, a in row.items())})
        return ExactMatrix._raw(f, out, rows, M.cols)
    for s in range(left):
        base = s * X.cols
        for row in X.nonzeros:
            if len(row) == 1:  # a single cell picks right consecutive rows of M
                [(k, a)] = row.items()
                start = (base + k) * right
                picked = mrows[start:start + right]
                out.extend(picked if a == 1 else _pick(f, range(right), [a] * right, picked))
                continue
            for t in range(right):
                acc = {}
                for k, a in row.items():
                    for j, b in mrows[(base + k) * right + t].items():
                        acc[j] = acc.get(j, 0) + a * b
                out.append({j: x for j, y in acc.items()
                            if (x := y % p if p else y if type(y) is int else norm(y))})
    return ExactMatrix._raw(f, out, rows, M.cols)


def column_map(m: ExactMatrix):
    """``(cols, vals, distinct)`` when every row of ``m`` holds one cell: row
    ``r`` holds ``vals[r]`` in column ``cols[r]``, ``vals`` is None when each
    cell is one, and ``distinct`` says that no column repeats.  None when
    some row does not hold exactly one cell.  Found on first request and kept
    on ``m``; the kernels read only kept maps, so they never scan a matrix."""
    if m.cmap is None:
        rows, cmap = m.nonzeros, False
        if all(len(row) == 1 for row in rows):
            cols = [j for row in rows for j in row]
            vals = [x for row in rows for x in row.values()]
            ones = all(x == m.field.one for x in vals)
            cmap = (cols, None if ones else vals, len(set(cols)) == len(cols))
        _set(m, "cmap", cmap)
    return m.cmap or None


def _padded_map(left: int, X: ExactMatrix, right: int):
    """``(cols, vals)`` of ``whisker(left, X, right)``, from the kept map of ``X``."""
    cols, vals, _ = X.cmap
    if left == right == 1:
        return cols, vals
    starts = [s * X.cols * right for s in range(left)]
    if right == 1:
        cols = [s + j for s in starts for j in cols]
    else:
        cols = [s + j * right + t for s in starts for j in cols for t in range(right)]
    return cols, None if vals is None else [x for x in vals for _ in range(right)] * left


def _pick(f: FieldSpec, cols, vals, rows) -> list:
    """``rows[cols[r]]`` scaled by ``vals[r]``, for each ``r``; a row whose
    factor is one is shared."""
    if vals is None:
        return [rows[i] for i in cols]
    p, norm = f.p, f.normalize
    return [rows[i] if a == 1 else {j: a * b % p if p else norm(a * b) for j, b in rows[i].items()}
            for i, a in zip(cols, vals)]


def whisker_chain(*factors) -> ExactMatrix:
    """``W_1 · W_2 ⋯ W_k`` for ``W_i = whisker(*factors[i])``.

    When every middle map has a column map (the exchange blocks of a diagonal
    braiding), the padded maps compose as index lists and only the product
    is built, one cell per row, keeping its map.  Otherwise the factors are
    applied one at a time, from the right.
    """
    if not all(X.cmap if X.cmap is not None else column_map(X) for _, X, _ in factors):
        out = None
        for left, X, right in reversed(factors):
            out = whisker(left, X, right, out)
        return out
    f = factors[0][1].field
    cols, vals = _padded_map(*factors[0])
    width = factors[0][0] * factors[0][1].cols * factors[0][2]
    for left, X, right in factors[1:]:
        require_same_field(f, X.field)
        if left * X.rows * right != width:
            raise ShapeError(f"cannot compose {len(cols)}x{width} with {left * X.rows * right} rows")
        pcols, pvals = _padded_map(left, X, right)
        if pvals is not None:
            vals = [a * pvals[i] for a, i in zip(vals or [1] * len(cols), cols)]
        cols, width = [pcols[i] for i in cols], left * X.cols * right
    if vals is not None:
        p, norm = f.p, f.normalize
        vals = [a % p if p else norm(a) for a in vals]
        vals = None if all(a == 1 for a in vals) else vals
    rows = [{j: 1} for j in cols] if vals is None else [{j: a} for j, a in zip(cols, vals)]
    distinct = all(X.cmap[2] for _, X, _ in factors)
    return ExactMatrix._raw(f, rows, len(cols), width, (cols, vals, distinct))


def kron_power(m: ExactMatrix, n: int) -> ExactMatrix:
    if n == 0:
        return ExactMatrix.identity(m.field, 1)
    out = m
    for _ in range(n - 1):
        out = out.kron(m)
    return out
