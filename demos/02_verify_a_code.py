"""Check codes for the identifying property and read the witnesses.

A code C is r-identifying when every vertex of F^n has at least one
codeword within distance r (covered) and no two vertices see the same
set of codewords (separated).  f = NC + NS counts the violations.
"""

from importlib import resources

from idcodes import Code, diagnose
from idcodes.codefile import parse_code_text

# Three words in F^3: every pair of vertices is separated, but vertex 111
# has no codeword within distance 1, so the code is not 1-identifying.
code = Code.from_words([0b000, 0b001, 0b100], 3)
rep = diagnose(code, 1)
print("code:", code.words)
print("NC =", rep.nc, " NS =", rep.ns, " identifying:", rep.identifying)
print("uncovered witness:", rep.uncovered, "=", format(rep.uncovered, "03b"))

# Dropping to two words breaks separation as well.
rep = diagnose(Code.from_words([0, 1], 3), 1)
print("\ntwo words: NC =", rep.nc, " NS =", rep.ns)
print("one unseparated pair:", rep.unseparated)

# The packaged reference code: 114 words, 1-identifying in F^9.
text = resources.files("idcodes").joinpath("data/code_1_9_114.txt").read_text()
ref = parse_code_text(text).code
ev = diagnose(ref, 1)
print("\nreference code: size", len(ref), " f =", ev.f)
print("first ten words:", ref.words[:10])
