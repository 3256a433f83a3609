"""Growing verified codes into higher dimensions.

Both constructions start from an r1-identifying code C in F^n and emit an
(r1+r2)-identifying code in F^(n+p).  The direct sum C (+) F^p alone
almost works; the X set collects the vertices it fails on, and a small
patch built from a greedy cover Y repairs them.  One planner,
plan_extension, plans both: without k it is C1, with k it is C2.
"""

from idcodes import min_identifying, min_separating
from idcodes.extend import apply_plan, extend_c2, plan_extension
from idcodes.heuristics import greedy_construct

base = min_identifying(1, 5).code
print("base: 1-identifying in F^5, size", len(base))

# Adding one coordinate: five vertices land in X and one patch vertex
# covers them all.
plan = plan_extension(base, 1, 1)
print(f"\nplan {plan.construction} for p=1: |X| = {len(plan.x_set)}, "
      f"|Y| = {len(plan.y_set)}, output radius {plan.out_radius} in F^{plan.out_dim}")
out = apply_plan(plan)
print("output size:", len(out), "(verified on return)")

# With p=2 the band widens enough that X is empty and the direct sum
# alone suffices.
plan = plan_extension(base, 1, 2)
print(f"\np=2: |X| = {len(plan.x_set)}, output is the plain product "
      f"of size {len(apply_plan(plan))}")

# Raising the radius too: r1 >= p >= r2 >= 1.
out = apply_plan(plan_extension(min_identifying(1, 4).code, 1, 1, r2=1))
print("\nradius-raising step: 2-identifying in F^5, size", len(out))

# The second construction swaps the full patch cube for a k-separating
# factor, which is smaller whenever such a factor exists.
base36 = greedy_construct(3, 6, seed=0)
separ = min_separating(2, 1).code
out = extend_c2(base36, 3, 2, 2, 1, separ)
print(f"\nseparating-factor construction: 5-identifying in F^8, size {len(out)}")
