"""Heuristic construction at sizes the exact search cannot reach.

greedy_construct adds the best vertex until the code identifies; prune
strips codewords whose removal costs nothing; noising_search does
randomized swap descent with shrinking noise and tends to find much
smaller codes.
"""

import time

from idcodes import (
    NoisingParams,
    diagnose,
    greedy_construct,
    noising_search,
    prune,
)
from idcodes.bounds import lookup

r, n = 1, 7

code = greedy_construct(r, n, seed=0)
print(f"greedy at r={r}, n={n}: size {len(code)}  (f = {diagnose(code, r).f})")

smaller = prune(code, r, restarts=8, seed=0)
print(f"after pruning: size {len(smaller)}")

# The noising search starts from a random code of the target size and
# swaps one codeword at a time.  A strictly improving swap is always
# taken; otherwise noise proportional to rho may accept a sideways or
# uphill move, and rho anneals to zero.
params = NoisingParams(target_size=32, rho_init=3.0, max_iterations=60_000, seed=6)
t0 = time.time()
report = noising_search(r, n, params, stop_size=32)
print(f"\nnoising from size 32: best {len(report.best_code)} "
      f"in {report.iterations_used} iterations ({time.time()-t0:.1f}s)")
print("sizes on the way down:", [s for s, _ in report.sizes_achieved])

rec = lookup(r, n)
print(f"\ntabulated bounds for r={r}, n={n}: {rec.lower}..{rec.upper}")
print("noising reached the known minimum:", len(report.best_code) == rec.upper)
