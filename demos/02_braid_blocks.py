"""Exchange operators between tensor powers.

A single braiding c on V determines operators c^{m,n} swapping the blocks
V^m x V^n -> V^n x V^m.  The recursion that builds them (peel a strand off
the left block) must agree with the closed form of a diagonal braiding,
e_I x e_J -> (prod q_ab) e_J x e_I, evaluated with no recursion at all.
"""

from braidalg import RATIONALS, BraidRepCache, check_hexagon
from braidalg.gallery import flip_braiding, scalar_braiding
from braidalg.transport import direct_power_braiding

# For the flip, c^{m,n} is the permutation that moves the first m tensor
# factors past the last n, in one piece.
V = flip_braiding(RATIONALS, 2)
cache = BraidRepCache(V)
block = cache.block(2, 1)
print("c^{2,1} for the flip (8x8 permutation):")
print("  image of e0 x e0 x e1:", [block[i, 1] for i in range(8)].index(1), "(= e1 x e0 x e0)")

# In dimension 1 with c = [q], the block is just q^{ m*n }.
q2 = scalar_braiding(RATIONALS, 2)
qcache = BraidRepCache(q2)
print("\nq = 2 blocks q^(m n):")
for m in range(4):
    print("  ", [qcache.block(m, n)[0, 0] for n in range(4)])

# The recursion agrees with the closed form of the flip's all-ones grid.
flip_grid = [[1, 1], [1, 1]]
agree = all(cache.block(m, n) == direct_power_braiding(RATIONALS, flip_grid, m, n)
            for m in range(6) for n in range(6 - m))
print("\nrecursion and closed form agree up to total degree 5:", agree)

# Exchanging three stacked blocks in the two possible orders agrees too.
print("hexagon identity at (2,1,2):", check_hexagon(2, 1, 2, V, cache))
print("hexagon reduces to Yang-Baxter at (1,1,1):", check_hexagon(1, 1, 1, V, cache))
