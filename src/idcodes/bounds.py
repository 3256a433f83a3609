"""Registry of best known bounds on minimum identifying-code sizes.

The table lives in ``data/bounds_table.txt`` as plain text so a corrected
bound never requires a code change.  Each record gives, for a radius r and
dimension n, the best known lower and upper bounds on the minimum size of
an r-identifying code in F^n, together with one provenance key per bound.

Lower bounds are trusted data: their derivations come from prior published
work and are never recomputed here.  Upper bounds are witnessed by actual
codes (exact values, heuristic finds, or arithmetic consequences of other
table cells).  ``check_consistency`` re-checks the closed-form cells, the
symmetry intervals and every relation that ties cells together, so a
transcription error cannot hide.  ``discriminating_lookup`` reads the
identifying cell one dimension down (the paper's parity bijection).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .hypercube import ODD_RADII, Code
from .signatures import NotIdentifyingError, require_identifying

MIN_RADIUS = 1
MAX_RADIUS = 5
MAX_DIM_TABULATED = 21

#: What each provenance key stands for.  Letters are bounds taken from
#: earlier published work (trusted, not recomputed); symbols mark how an
#: upper bound was produced.
KEY_LEGEND = {
    "a": "published lower bound (a)",
    "b": "published lower bound (b)",
    "c": "published lower bound (c)",
    "d": "published lower bound (d)",
    "e": "published lower bound (e)",
    "f": "exact value 2^n - 1 for r = n - 1",
    "g": "published lower bound (g)",
    "h": "published lower bound (h)",
    "i": "published lower bound (i)",
    "j": "published lower bound (j)",
    "k": "published lower bound (k)",
    "l": "dimension-symmetry inequality applied to an exact value",
    "m": "published lower bound (m)",
    "A": "published exact construction (A)",
    "B": "exact value 2^n - 1 for r = n - 1",
    "C": "published exact construction (C)",
    "D": "published construction (D)",
    "E": "published exact construction (E)",
    "F": "published construction (F)",
    "G": "published construction (G)",
    "H": "published exact construction (H)",
    "*": "noising heuristic",
    "**": "greedy heuristic",
    "***": "codeword removal from a direct-sum construction",
    "(x)": "arithmetic relation with label x",
}


@dataclass(frozen=True)
class BoundRecord:
    """Best known bounds for one (r, n) cell."""

    r: int
    n: int
    lower: int
    upper: int
    lower_key: str
    upper_key: str

    def __post_init__(self) -> None:
        if not MIN_RADIUS <= self.r <= MAX_RADIUS:
            raise ValueError(f"radius {self.r} outside tabulated range")
        if not self.r + 1 <= self.n <= MAX_DIM_TABULATED:
            raise ValueError(f"dimension {self.n} outside tabulated range for r={self.r}")
        if not 0 < self.lower <= self.upper:
            raise ValueError(f"bad bounds {self.lower}..{self.upper} for r={self.r} n={self.n}")

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


_REGISTRY: dict[tuple[int, int], BoundRecord] | None = None


def _parse_registry(text: str) -> dict[tuple[int, int], BoundRecord]:
    table: dict[tuple[int, int], BoundRecord] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"registry line {line_no}: expected 6 fields, got {len(parts)}")
        r, n, lower, upper = (int(p) for p in parts[:4])
        rec = BoundRecord(r, n, lower, upper, parts[4], parts[5])
        if (r, n) in table:
            raise ValueError(f"registry line {line_no}: duplicate cell r={r} n={n}")
        table[(r, n)] = rec
    return table


def load_registry() -> dict[tuple[int, int], BoundRecord]:
    """Parse (once) and return the full bounds table keyed by (r, n)."""
    global _REGISTRY
    if _REGISTRY is None:
        text = resources.files("idcodes").joinpath("data/bounds_table.txt").read_text()
        _REGISTRY = _parse_registry(text)
    return _REGISTRY


def lookup(r: int, n: int) -> BoundRecord:
    """Return the registry record for (r, n); raise KeyError when untabulated."""
    table = load_registry()
    try:
        return table[(r, n)]
    except KeyError:
        raise KeyError(f"no tabulated bounds for r={r}, n={n}") from None


def discriminating_lookup(r: int, n: int) -> BoundRecord:
    """Bounds on the minimum r-discriminating code size in F^n.

    The minimum r-discriminating size in F^n equals the minimum
    r-identifying size in F^(n-1) (append a parity bit one way, delete a
    coordinate the other), so the record is the identifying cell one
    dimension down.  Defined for odd r only.
    """
    if r % 2 == 0:
        raise ValueError(f"discriminating bounds are {ODD_RADII}")
    return lookup(r, n - 1)


# Arithmetic relations between table cells.  Each row asserts
#   result == sum(coef * upper(br, bn)) + sum(a * b over extras)
# and that the table's upper bound for the target cell is <= result.
# A relation's result is itself a valid upper bound for the target, and
# for some cells it is the tabulated one (upper_key "(label)").
_Relation = tuple[str, int, int, tuple[tuple[int, int, int], ...], tuple[tuple[int, int], ...], int]

RELATIONS: tuple[_Relation, ...] = (
    ("(6)", 1, 21, ((4, 1, 19),), (), 262144),
    ("(7)", 2, 19, ((8, 2, 16),), (), 14864),
    ("(7)", 2, 20, ((16, 2, 16),), (), 29728),
    ("(8)", 2, 21, ((32, 2, 16),), (), 59456),
    ("(9)", 3, 18, ((16, 3, 14),), (), 2896),
    ("(9)", 3, 19, ((32, 3, 14),), (), 5792),
    ("(10)", 3, 20, ((64, 3, 14),), (), 11584),
    ("(10)", 3, 21, ((128, 3, 14),), (), 23168),
    ("(11)", 4, 19, ((32, 4, 14),), (), 2432),
    ("(11)", 4, 20, ((64, 4, 14),), (), 4864),
    ("(12)", 4, 21, ((128, 4, 14),), (), 9728),
    ("(13)", 5, 19, ((64, 5, 13),), (), 1792),
    ("(13)", 5, 20, ((128, 5, 13),), (), 3584),
    ("(14)", 5, 21, ((256, 5, 13),), (), 7168),
    ("(15)", 1, 14, ((2, 1, 13),), (), 2644),
    ("(16)", 1, 16, ((2, 1, 15),), ((128, 1),), 9824),
    ("(17)", 1, 20, ((2, 1, 19),), (), 131072),
    ("(18)", 2, 17, ((2, 2, 16),), ((151, 1),), 3867),
    ("(19)", 2, 18, ((4, 2, 16),), ((105, 3),), 7747),
    ("(20)", 3, 15, ((2, 3, 14),), ((13, 1),), 375),
    ("(21)", 3, 16, ((4, 3, 14),), ((4, 3),), 736),
    ("(22)", 3, 17, ((8, 3, 14),), (), 1448),
    ("(23)", 4, 15, ((2, 4, 14),), ((4, 1),), 156),
    ("(24)", 4, 16, ((4, 4, 14),), ((2, 3),), 310),
    ("(25)", 4, 17, ((8, 4, 14),), ((2, 3),), 614),
    ("(25)", 4, 18, ((16, 4, 14),), ((2, 6),), 1228),
    ("(26)", 5, 14, ((2, 5, 13),), ((4, 1),), 60),
    ("(27)", 5, 15, ((4, 5, 13),), ((1, 3),), 115),
    ("(28)", 5, 16, ((8, 5, 13),), (), 224),
    ("(28)", 5, 17, ((16, 5, 13),), (), 448),
    ("(28)", 5, 18, ((32, 5, 13),), (), 896),
    ("(29)", 2, 21, ((2, 2, 20),), (), 58692),
    ("(30)", 3, 20, ((2, 3, 19),), (), 11064),
    ("(30)", 3, 21, ((4, 3, 19),), (), 22128),
    ("(31)", 4, 19, ((2, 4, 18),), ((2, 1),), 2092),
    ("(32)", 4, 20, ((4, 4, 18),), (), 4180),
    ("(32)", 4, 21, ((8, 4, 18),), (), 8360),
    ("(33)", 5, 19, ((2, 5, 18),), ((1, 1),), 909),
    ("(34)", 5, 20, ((4, 5, 18),), ((1, 3),), 1819),
    ("(35)", 5, 21, ((8, 5, 18),), (), 3632),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ConsistencyReport:
    checks: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_consistency() -> ConsistencyReport:
    """Re-check the closed-form cells, symmetry intervals and relations."""
    table = load_registry()
    checks: list[CheckResult] = []

    # Exact cells at r = n - 1 hold the closed-form value 2^n - 1.
    for (r, n), rec in sorted(table.items()):
        if r == n - 1:
            want = (1 << n) - 1
            ok = rec.lower == rec.upper == want
            checks.append(
                CheckResult(
                    f"closed-form r={r} n={n}",
                    ok,
                    f"expected exact {want}, table has {rec.lower}..{rec.upper}",
                )
            )

    # Dimension symmetry: r-separation and (n-r-1)-separation coincide,
    # so with r' = n - r - 1 and r < r',
    #   M_r'(n) <= M_r(n) <= M_r'(n) + 1.
    # On tabulated intervals this is checkable as interval consistency.
    for (r, n), rec in sorted(table.items()):
        mirror_r = n - r - 1
        if mirror_r <= r or (mirror_r, n) not in table:
            continue
        hi = table[(mirror_r, n)]  # larger radius: the smaller minimum
        lo = rec
        ok = hi.lower <= lo.upper and lo.lower <= hi.upper + 1
        checks.append(
            CheckResult(
                f"(3) symmetry n={n} r={r}/{mirror_r}",
                ok,
                f"need lower(r={mirror_r}) <= upper(r={r}) and "
                f"lower(r={r}) <= upper(r={mirror_r}) + 1; cells are "
                f"{hi.lower}..{hi.upper} and {lo.lower}..{lo.upper}",
            )
        )

    # Direct-sum arithmetic between cells.
    for label, r, n, terms, extras, result in RELATIONS:
        value = sum(coef * table[(br, bn)].upper for coef, br, bn in terms)
        value += sum(a * b for a, b in extras)
        target = table[(r, n)]
        ok = value == result and target.upper <= result
        checks.append(
            CheckResult(
                f"{label} r={r} n={n}",
                ok,
                f"computed {value}, recorded {result}, table upper {target.upper}",
            )
        )

    return ConsistencyReport(tuple(checks))


def classify_size(r: int, n: int, size: int) -> str:
    """Place a verified code size against the registry bounds for (r, n).

    Returns one of four labels:

    * "violates-lower": size < lower.  No genuinely r-identifying code is
      that small, so the verification pipeline itself is broken somewhere.
    * "beats-upper": lower <= size < upper, smaller than the best known code.
    * "matches-upper": size == upper.
    * "between": size > upper, larger than the best known code.  Only then.
    """
    rec = lookup(r, n)
    if size < rec.lower:
        return "violates-lower"
    if size < rec.upper:
        return "beats-upper"
    if size == rec.upper:
        return "matches-upper"
    return "between"


def compare(code: Code, r: int) -> str:
    """Verify ``code`` is r-identifying, then classify its size.

    Raises NotIdentifyingError, a ValueError, if the code fails verification:
    comparing an unverified code against the table would be meaningless.
    """
    require_identifying(code, r, "code", NotIdentifyingError)
    return classify_size(r, code.dim, len(code))
