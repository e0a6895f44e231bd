"""Independent oracles for the test suite.

Everything here is written against plain Python data (nested lists, dicts,
Fractions) and explicit index manipulation, independent of the package's
matrix and recursion code, so agreement is meaningful.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

from braidalg.braided import CheckItem
from braidalg.braidrep import BraidRepCache
from braidalg.errors import BadDegree
from braidalg.matrix import ExactMatrix, stack_rows, whisker


def digits_of(flat, length, d):
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        flat, out[pos] = divmod(flat, d)
    return out


def flat_of(digits, d):
    out = 0
    for x in digits:
        out = out * d + x
    return out


def apply_two_site(c_rows, vec, pos, d, n):
    """Apply a d^2 x d^2 matrix at tensor sites (pos, pos+1) of a vector."""
    out = [0] * (d ** n)
    for idx, val in enumerate(vec):
        if val == 0:
            continue
        dig = digits_of(idx, n, d)
        col = dig[pos] * d + dig[pos + 1]
        for row in range(d * d):
            coeff = c_rows[row][col]
            if coeff == 0:
                continue
            nd = list(dig)
            nd[pos], nd[pos + 1] = divmod(row, d)
            out[flat_of(nd, d)] += val * coeff
    return out


def qybe_brute(c_rows, d):
    """Direct check of the Yang-Baxter equation on all basis vectors of the
    triple tensor power; returns (holds, first violating basis index)."""
    n = 3
    for basis in range(d ** n):
        v = [0] * (d ** n)
        v[basis] = 1
        lhs = apply_two_site(c_rows, apply_two_site(c_rows, apply_two_site(c_rows, v, 0, d, n), 1, d, n), 0, d, n)
        rhs = apply_two_site(c_rows, apply_two_site(c_rows, apply_two_site(c_rows, v, 1, d, n), 0, d, n), 1, d, n)
        if lhs != rhs:
            return False, basis
    return True, None


def gaussian_binomial(n, k, q):
    """q-binomial coefficient by enumerating k-subsets and summing
    q^(number of inversions); exact in int/Fraction arithmetic."""
    total = 0
    for subset in combinations(range(n), k):
        inversions = sum(s - i for i, s in enumerate(subset))
        total += q ** inversions
    return total


def block_transposition(d, m, n, parities=None):
    """Matrix (list of lists) of e_I ⊗ e_J -> ±e_J ⊗ e_I on V^m ⊗ V^n,
    with the sign (-1)^(|I||J|) when parities are given."""
    size = d ** (m + n)
    out = [[0] * size for _ in range(size)]
    for I in range(d ** m):
        for J in range(d ** n):
            sign = 1
            if parities is not None:
                pI = sum(parities[x] for x in digits_of(I, m, d)) % 2
                pJ = sum(parities[x] for x in digits_of(J, n, d)) % 2
                if pI and pJ:
                    sign = -1
            out[J * d ** m + I][I * d ** n + J] = sign
    return out


class OracleBraidRepCache:
    """The exchange blocks ``c^{m,n}`` by the right-peeling schedule: a
    recursion and a cache separate from ``BraidRepCache``, which peels the
    left block, so that their agreement is the uniqueness of the family."""

    def __init__(self, source):
        self.source = source
        self.table = {}

    def block(self, m, n):
        if m < 0 or n < 0:
            raise BadDegree(f"block indices must be non-negative, got ({m},{n})")
        key = (m, n)
        hit = self.table.get(key)
        if hit is not None:
            return hit
        d = self.source.dim
        if m == 0 or n == 0:
            out = ExactMatrix.identity(self.source.field, d ** (m + n))
        elif m == 1 and n == 1:
            out = self.source.c
        elif n == 1:
            out = whisker(1, self.block(m - 1, 1), d, whisker(d ** (m - 1), self.source.c, 1))
        else:
            out = whisker(d ** (n - 1), self.block(m, 1), 1, whisker(1, self.block(m, n - 1), d))
        self.table[key] = out
        return out


def unshuffle_block(d, k, n, parities=None):
    """Classical (k, n-k) unshuffle sum on basis tensors, with Koszul signs
    computed by explicitly bubbling selected factors to the front."""
    size = d ** n
    out = [[0] * size for _ in range(size)]
    for col in range(size):
        dig = digits_of(col, n, d)
        for subset in combinations(range(n), k):
            chosen = set(subset)
            # bubble chosen positions to the front, one adjacent swap at a time
            arrangement = list(range(n))
            sign = 1
            target = 0
            for s in subset:
                where = arrangement.index(s)
                while where > target:
                    left = arrangement[where - 1]
                    if parities is not None and left not in chosen:
                        if parities[dig[left]] and parities[dig[s]]:
                            sign = -sign
                    arrangement[where - 1], arrangement[where] = arrangement[where], arrangement[where - 1]
                    where -= 1
                target += 1
            row = flat_of([dig[p] for p in arrangement], d)
            out[row][col] += sign
    return out


def per_term_power_braiding(field, q, m, n):
    """The diagonal braiding of the grid ``q`` on ``V^{⊗m} ⊗ V^{⊗n}``, one
    product ``Π_{a∈I, b∈J} q_ab`` per cell: the reference for the list
    products of ``transport.direct_power_braiding``."""
    q = [[field.element(x) for x in row] for row in q]
    dim = len(q)
    size = dim ** (m + n)
    out = [None] * size
    for I, front in enumerate(product(range(dim), repeat=m)):
        weight = [prod(q[a][b] for a in front) for b in range(dim)]  # Π_{a∈I} q_ab
        for J, back in enumerate(product(range(dim), repeat=n)):
            coeff = prod(weight[b] for b in back)
            out[J * (dim ** m) + I] = {I * (dim ** n) + J: field.element(coeff)}
    return ExactMatrix._raw(field, out, size, size)


def per_term_unshuffle_block(field, q, k, n):
    """The ``(k, n-k)`` quantum unshuffle block of the grid ``q``, one term
    per basis tensor and ``k``-subset of positions moved to the front: the
    term picks up ``q_{digit(a), digit(b)}`` for each back position ``a``
    before a front position ``b``.  The reference for the one-pass deal of
    ``transport.classical_unshuffle_blocks``."""
    q = [[field.element(x) for x in row] for row in q]
    dim = len(q)
    size = dim ** n
    out = [{} for _ in range(size)]
    for col, digits in enumerate(product(range(dim), repeat=n)):
        for front in combinations(range(n), k):
            back = [a for a in range(n) if a not in front]
            coeff = prod(q[digits[a]][digits[b]] for b in front for a in back if a < b)
            row = 0
            for pos in (*front, *back):
                row = row * dim + digits[pos]
            out[row][col] = out[row].get(col, 0) + coeff
    # terms can cancel, and a sum can vanish mod p
    cells = ({c: y for c, x in row.items() if (y := field.element(x))} for row in out)
    return ExactMatrix._raw(field, cells, size, size)


def full_stack_primitives(T, n):
    """Canonical basis of the degree-``n`` primitives of the truncated tensor
    bialgebra ``T``, from the full stack of all ``n - 1`` interior coproduct
    blocks: the path ``primitives_of_tensor`` took before it kept only the
    rows at the leading coordinates of the lower-degree primitives.

    The extreme coproduct blocks are identities and cancel against the two
    unit summands, so degree-``n`` primitivity is exactly the vanishing of
    the interior blocks; the kernel of their stack is returned.
    """
    if not (1 <= n <= T.N):
        raise BadDegree(f"degree {n} outside 1..{T.N}")
    interior = [T.coproduct_block(k, n) for k in range(1, n)]
    stacked = stack_rows(interior, T.field, T.component_dim(n))
    return stacked.nullspace()


def dynkin_operator(T, n):
    """The Dynkin–Specht–Wever operator ``θ_n`` on ``V^{⊗n}``, built from the
    identity with ``n - 1`` factors ``(1 - c^{k-1,1}) ⊗ 1^{⊗(n-k)}``: the
    operator whose column space ``primitives_of_tensor`` finds, for a
    symmetry in degrees nonzero in the field, as the span of the braided
    commutators ``[P_{n-1}, V]``."""
    d = T.V.dim
    theta = ExactMatrix.identity(T.field, d ** n)
    for k in range(2, n + 1):
        theta = theta - whisker(1, T.braid.block(k - 1, 1), d ** (n - k), theta)
    return theta


def eager_coproduct_blocks(V, N):
    """Every coproduct block of the truncated tensor bialgebra up to degree
    ``N``, by the loop ``build_truncated`` ran before blocks were built on
    demand: all degrees in one pass, in order."""
    braid = BraidRepCache(V)
    f, d = V.field, V.dim
    blocks = {(0, 0): ExactMatrix.identity(f, 1)}
    for n in range(1, N + 1):
        below = None  # Δ_{k-1,n-1} ⊗ V, the first summand of split k - 1
        for k in range(n + 1):
            here = whisker(1, blocks[(k, n - 1)], d) if k < n else None
            if below is None:
                total = here
            else:
                moved = whisker(d ** (k - 1), braid.block(n - k, 1), 1, below)
                total = moved if here is None else here + moved
            blocks[(k, n)] = total
            below = here
    return blocks


def iterated_product_rightfold(A, n):
    """The ``n``-fold product ``A^{⊗n} -> A`` of an algebra ``A`` by the
    right fold ``p[n] = m·(1 ⊗ p[n-1])``, padded with an explicit identity:
    the reference for the left fold of ``iterated_products``."""
    if n == 0:
        return A.u
    identity = ExactMatrix.identity(A.field, A.dim)
    if n == 1:
        return identity
    return A.m * identity.kron(iterated_product_rightfold(A, n - 1))


def mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if n > 1:
        out = -out
    return out


def witt_dimension(alphabet, n):
    """Dimension of the degree-n component of the free Lie algebra on
    ``alphabet`` letters (number of Lyndon words)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * alphabet ** (n // d)
    return total // n


def restricted_witt_dimension(alphabet, n, p):
    """Dimension of the degree-n component of the free restricted Lie algebra
    on ``alphabet`` letters in characteristic ``p``: the free Lie algebra
    in degree n plus the p^k-th powers of its basis in degree n / p^k, that is
    ``W(n) + W(n/p) + W(n/p²) + …`` over the powers of ``p`` dividing n."""
    total = witt_dimension(alphabet, n)
    while n % p == 0:
        n //= p
        total += witt_dimension(alphabet, n)
    return total


def reduced(fr):
    """gcd probe: a Fraction (or int) is in lowest terms with positive denominator."""
    if isinstance(fr, int):
        return True
    return fr.denominator > 0 and gcd(fr.numerator, fr.denominator) == 1


def exterior_square_table(sign):
    """Multiplication table of (1, x) ⊗ (1, x) with exchange sign on x past x:
    (a⊗b)(c⊗d) = sign^(|b||c|) ac ⊗ bd with x·x = 0.  Returns the 4 x 16
    product matrix over ints, basis order (1⊗1, 1⊗x, x⊗1, x⊗x)."""
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {pair: i for i, pair in enumerate(basis)}
    out = [[0] * 16 for _ in range(4)]
    for i, (a, b) in enumerate(basis):
        for j, (c, d) in enumerate(basis):
            if a + c >= 2 or b + d >= 2:
                continue
            coeff = sign if (b and c) else 1
            out[index[(a + c, b + d)]][i * 4 + j] = coeff
    return out


def noncanonical_cells(m):
    """The stored cells ``(i, j, x)`` of ``m`` outside canonical form: over Q
    an ``int``, or a ``Fraction`` with denominator > 1; over F_p an ``int``
    in ``[1, p)``.  Empty for every matrix the package builds."""
    p = m.field.p

    def canonical(x):
        if p is not None:
            return type(x) is int and 1 <= x < p
        return (type(x) is int and x != 0) or (type(x) is Fraction and x.denominator > 1)

    return [(i, j, x) for i, row in enumerate(m.nonzeros) for j, x in row.items()
            if not canonical(x)]


def from_dense(field, grid, rows, cols):
    """An ``ExactMatrix`` holding the nonzero cells of a dense grid exactly
    as given: no coercion, so ``Fraction(k, 1)`` cells stay ``Fraction``."""
    return ExactMatrix._raw(field, [{j: x for j, x in enumerate(row) if x != 0} for row in grid],
                            rows, cols)


# -- the dense kernels ExactMatrix used before its storage went sparse ---------
#
# Each runs over every cell of the dense view ``data``, zeros included, and
# hands its grid to ``from_dense``, so a test can compare values, strings and
# the Python type of every nonzero cell with the sparse kernel it replaced.


def dense_add(a, b):
    norm = a.field.normalize
    grid = [[norm(x + y) for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)]
    return from_dense(a.field, grid, a.rows, a.cols)


def dense_sub(a, b):
    norm = a.field.normalize
    grid = [[norm(x - y) for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)]
    return from_dense(a.field, grid, a.rows, a.cols)


def dense_mul(a, b):
    norm = a.field.normalize
    zero = a.field.zero
    out = [[0] * b.cols for _ in range(a.rows)]
    bdata = b.data
    for i, row in enumerate(a.data):
        oi = out[i]
        for k, x in enumerate(row):
            if x == zero:
                continue
            for j, y in enumerate(bdata[k]):
                if y != zero:
                    oi[j] += x * y
    grid = [[norm(x) for x in row] for row in out]
    return from_dense(a.field, grid, a.rows, b.cols)


def dense_kron(a, b):
    norm = a.field.normalize
    zero = a.field.zero
    R, C = a.rows * b.rows, a.cols * b.cols
    out = [[zero] * C for _ in range(R)]
    for i, row in enumerate(a.data):
        for j, x in enumerate(row):
            if x == zero:
                continue
            for k, brow in enumerate(b.data):
                dest = out[i * b.rows + k]
                base = j * b.cols
                for l, y in enumerate(brow):
                    if y != zero:
                        dest[base + l] = norm(x * y)
    return from_dense(a.field, out, R, C)


def dense_transpose(m):
    grid = [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)]
    return from_dense(m.field, grid, m.cols, m.rows)


def dense_whisker(left, X, right):
    zero = X.field.zero
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
    return from_dense(X.field, grid, left * X.rows * right, width)


def dense_chain(*factors):
    """``W_1 · W_2 ⋯ W_k`` for ``W_i = dense_whisker(*factors[i])``, each
    product the dense ``dense_mul``: the reference for ``whisker_chain`` and,
    with ``(1, M, 1)`` last, for ``whisker(left, X, right, M)``."""
    out = dense_whisker(*factors[-1])
    for left, X, right in reversed(factors[:-1]):
        out = dense_mul(dense_whisker(left, X, right), out)
    return out


def dense_compare(name, lhs, rhs):
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        return CheckItem(name, False, f"shape {lhs.rows}x{lhs.cols} vs {rhs.rows}x{rhs.cols}")
    ldata, rdata = lhs.data, rhs.data
    for i in range(lhs.rows):
        for j in range(lhs.cols):
            if ldata[i][j] != rdata[i][j]:
                a = lhs.field.format(ldata[i][j])
                b = rhs.field.format(rdata[i][j])
                return CheckItem(name, False, f"first difference at ({i},{j}): {a} != {b}")
    return CheckItem(name, True)


def dense_rref(self):
    """Reduced row echelon form and the pivot columns, on the dense grid.

    The elimination ``ExactMatrix.rref`` used before it went sparse, kept
    as its reference: every row update runs over every column.  Written as
    a method body so tests can bind it in place of ``ExactMatrix.rref``.

    Deterministic: scans columns left to right, picks the first nonzero
    entry at or below the current row as pivot.
    """
    f = self.field
    zero = f.zero
    grid = [list(row) for row in self.data]
    pivots = []
    r = 0
    for c in range(self.cols):
        if r >= self.rows:
            break
        pr = None
        for i in range(r, self.rows):
            if grid[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        grid[r], grid[pr] = grid[pr], grid[r]
        inv = f.inv(grid[r][c])
        grid[r] = [f.mul(inv, x) for x in grid[r]]
        for i in range(self.rows):
            if i != r and grid[i][c] != zero:
                factor = grid[i][c]
                row_r = grid[r]
                grid[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(grid[i], row_r)]
        pivots.append(c)
        r += 1
    return from_dense(f, grid, self.rows, self.cols), tuple(pivots)
