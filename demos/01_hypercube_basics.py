"""Tour of the F^n primitives: words, distances, balls, codes."""

from idcodes import Code, ball_size, direct_sum
from idcodes.hypercube import annulus_offsets, ball_offsets

# Vertices are plain ints.  Coordinate 1 is the most significant bit, so
# the printed form reads left to right.
v = 385
print("vector:", format(v, "09b"), "  decimal:", v, "  weight:", v.bit_count())

w = 0b110000000
print("distance to", format(w, "09b"), "is", (v ^ w).bit_count())

# Balls and spheres around a center are XOR masks, with the closed-form
# count alongside.
center = 0
print("\n|B(x, 2)| in F^5 =", ball_size(5, 2))
print("enumerated:", len(ball_offsets(5, 2) ^ center))
print("sphere at distance 2:", sorted((annulus_offsets(5, 2, 2) ^ center).tolist()))

# Codes are sorted duplicate-free word tuples.
code = Code.from_words([6, 3, 17, 3], 5)
print("\ncode words:", code.words, " size:", len(code))
print("contains 17?", 17 in code)

# The direct sum concatenates coordinates; sizes multiply.
left = Code.from_words([0, 3], 2)
right = Code.from_words([0, 1], 1)
total = direct_sum(left, right)
print("\ndirect sum of", left.words, "and", right.words, "->", total.words)
print("dimension:", total.dim)
