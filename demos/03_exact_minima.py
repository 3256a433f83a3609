"""Certified minimum code sizes at small dimensions.

The exhaustive search walks candidate codes in a fixed order, prunes
branches that can no longer cover or separate everything, and ascends
sizes so the first hit is provably minimal.
"""

import time

from idcodes import min_discriminating, min_identifying, min_separating

print("minimum 1-identifying sizes:")
for n in (2, 3, 4, 5):
    t0 = time.time()
    out = min_identifying(1, n)
    print(f"  n={n}: size {out.size}  ({out.nodes} nodes, {time.time()-t0:.2f}s)")
    print(f"        one minimum code: {out.code.words}")

# Radius 3 in F^5: the table brackets this cell as 9..10; the search
# exhausts size 9 and certifies that 10 is the true minimum.
out = min_identifying(3, 5)
print("\nminimum 3-identifying size in F^5:", out.size)
print("sizes proved infeasible on the way:", out.infeasible_sizes)

# Separating codes may leave one vertex uncovered, which sometimes saves
# a codeword over the identifying minimum.
for p in (3, 4, 5):
    sep = min_separating(p, 1)
    ident = min_identifying(1, p)
    print(f"\nF^{p}: 1-separating minimum {sep.size} vs 1-identifying {ident.size}")

# Discriminating codes live in the even-weight half and must identify the
# odd-weight vertices; their minimum sits one dimension above the
# matching identifying minimum.  That is the paper's theorem; the test
# suite checks it by exhaustion for every odd r and n <= 5 with r < n
# (tests/test_exact.py, TestTheorem).
disc = min_discriminating(1, 5)
print("\nminimum 1-discriminating size in F^5:", disc.size)
print("equals the 1-identifying minimum in F^4:", min_identifying(1, 4).size)
