"""Independent oracles for the test suite.

Everything here is written against plain Python data (nested lists, dicts,
Fractions) and explicit index manipulation, independent of the package's
matrix and recursion code, so agreement is meaningful.
"""

from itertools import combinations
from math import gcd

from braidalg.matrix import ExactMatrix


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
    return ExactMatrix._raw(f, grid, self.rows, self.cols), tuple(pivots)
