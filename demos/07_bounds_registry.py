"""Querying and cross-checking the table of best known bounds."""

from idcodes import min_identifying
from idcodes.bounds import (
    check_consistency,
    classify_size,
    compare,
    discriminating_lookup,
    load_registry,
    lookup,
)

rec = lookup(1, 9)
print(f"r=1, n=9: lower {rec.lower}, upper {rec.upper}, exact: {rec.exact}")

rec = lookup(1, 7)
print(f"r=1, n=7: lower {rec.lower}, upper {rec.upper}, exact: {rec.exact}")

# Discriminating bounds are the identifying bounds one dimension down.
print("\n1-discriminating bounds in F^10:", discriminating_lookup(1, 10))

# Where does a freshly found code sit?  compare() verifies first.
code = min_identifying(1, 5).code
print("\nverified 10-word code at r=1, n=5:", compare(code, 1))
print("a hypothetical size 12 would be:", classify_size(1, 5, 12))
print("a hypothetical size 9 would be:", classify_size(1, 5, 9))

# Every arithmetic relation the table cells must satisfy, re-verified.
report = check_consistency()
print(f"\nconsistency: {len(report.checks)} checks, {len(report.failures)} failures")

# A slice of the registry.
table = load_registry()
print("\nthe r=2 row:")
for (r, n), rec in sorted(table.items()):
    if r == 2 and n <= 10:
        mark = "=" if rec.exact else " "
        print(f"  n={n:2d}: {rec.lower:4d}..{rec.upper:<4d}{mark}")
