"""Length/radius extension constructions for identifying codes.

Starting from an r1-identifying code C in F^n, both constructions here
produce an (r1 + r2)-identifying code in F^(n + p):

* construction C1 glues the full p-cube onto C and patches the problem
  spots with a covering set Y:  (C (+) F^p)  union  (Y (+) (F^p \\ {0^p}));
* construction C2 replaces the patch factor by a k-separating code S in
  F^p:  (C (+) F^p)  union  (Y (+) S), which is cheaper whenever a small
  k-separating code exists.

The problem spots form the X set: vertices of F^n that no codeword sees
at a distance inside the band [r1 - p + r2 + 1, r1 + r2].  Vertices
outside X are already identified by the C (+) F^p part alone; members of
X need a neighbor in Y at band distance (C1) or at the exact distance
r1 + r2 - k (C2).  Y is built by greedy covering.  One planner,
``plan_extension``, serves both: k None is C1, and a given k is C2, with
S = F^p \\ {0^p} unless a factor is given.

Every output is re-verified from the definition before it is returned,
whatever the parameters were, so a misuse caught nowhere else still
cannot produce an unverified code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .hypercube import Code, annulus_offsets, direct_sum, full_space
from .signatures import is_separating, require_identifying


class ExtensionError(ValueError):
    """Raised when extension parameters are out of range."""


class VerificationFailed(ExtensionError):
    """Raised when an input or output code fails its property check."""


def _as_words(xs: Iterable[int], n: int) -> list[int]:
    words = []
    for x in xs:
        w = int(x)
        if not 0 <= w < (1 << n):
            raise ValueError(f"vertex {w} out of range for dim {n}")
        words.append(w)
    return sorted(set(words))


def _band(r1: int, p: int, r2: int, n: int) -> tuple[int, int]:
    """Distance band a codeword must avoid for a vertex to land in X."""
    lo = max(0, r1 - p + r2 + 1)
    hi = min(n, r1 + r2)
    return lo, hi


def compute_x_set(code: Code, r1: int, p: int, r2: int = 0) -> tuple[int, ...]:
    """Vertices of F^n with no codeword in the band [r1-p+r2+1, r1+r2], as sorted words.

    These are exactly the vertices the plain direct sum with F^p fails to
    identify at radius r1 + r2.  With p large enough (p > r1 when r2 = 0)
    the band widens to [0, r1 + r2] and X is empty for any code covering
    everything at radius r1.
    """
    if r1 < 1 or p < 1 or r2 < 0:
        raise ExtensionError("need r1 >= 1, p >= 1, r2 >= 0")
    n = code.dim
    lo, hi = _band(r1, p, r2, n)
    if lo > hi:
        return tuple(range(1 << n))
    counts = np.bincount((code.array[:, None] ^ annulus_offsets(n, lo, hi)).ravel(), minlength=1 << n)
    return tuple(np.flatnonzero(counts == 0).tolist())


def cover_annulus(xset: Iterable[int], lo: int, hi: int, n: int) -> tuple[int, ...]:
    """Greedy cover: pick vertices seeing the most uncovered X-members in [lo, hi].

    Returns the chosen words, sorted.  Ties go to the smallest word, so
    the result is deterministic.  With lo = hi this is exact-distance
    covering (used by construction C2).  Every x is at distance lo from
    some vertex, so the cover always completes.
    """
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"need 0 <= lo <= hi <= {n}")
    offs = annulus_offsets(n, lo, hi)
    uncovered = np.array(_as_words(xset, n), dtype=np.uint32)
    chosen = []
    while len(uncovered):
        gain = np.bincount((uncovered[:, None] ^ offs).ravel(), minlength=1 << n)
        y = int(np.argmax(gain))  # first maximum = smallest word
        if gain[y] == 0:
            raise AssertionError("uncoverable X member; annulus range broken")
        chosen.append(y)
        d = np.bitwise_count(uncovered ^ np.uint32(y))
        uncovered = uncovered[(d < lo) | (d > hi)]
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class ExtensionPlan:
    """Everything needed to carry out one extension, fully precomputed.

    ``k`` is None for construction C1; construction C2 additionally
    carries the k-separating factor ``separ``.  ``x_set`` and ``y_set``
    are sorted words of F^n.  The output radius is r1 + r2 and the output
    dimension base.dim + p.
    """

    base: Code
    r1: int
    p: int
    r2: int
    k: int | None
    x_set: tuple[int, ...]
    y_set: tuple[int, ...]
    separ: Code | None

    @property
    def construction(self) -> str:
        return "C1" if self.k is None else "C2"

    @property
    def out_radius(self) -> int:
        return self.r1 + self.r2

    @property
    def out_dim(self) -> int:
        return self.base.dim + self.p

    def predicted_size(self) -> int:
        """Size of the output before deduplication of overlapping parts."""
        patch = (1 << self.p) - 1 if self.separ is None else len(self.separ)
        return len(self.base) * (1 << self.p) + len(self.y_set) * patch


def _check_ranges(r1: int, p: int, r2: int, k: int | None, force: bool) -> None:
    if r1 < 1 or p < 1 or r2 < 0:
        raise ExtensionError("need r1 >= 1, p >= 1, r2 >= 0")
    if k is not None and not 0 <= k <= p - 1:
        # outside this the separating factor cannot do its job at all
        raise ExtensionError(f"need 0 <= k <= p-1, got k={k}, p={p}")
    if force:
        return
    if r2 >= 1 and not r1 >= p >= r2:
        raise ExtensionError(
            f"radius-increasing extension needs r1 >= p >= r2 >= 1, "
            f"got r1={r1}, p={p}, r2={r2} (force=True to try anyway)"
        )
    if k is not None and r2 == 0 and not (3 <= p <= r1 and 1 <= k <= p - 2):
        raise ExtensionError(
            f"construction C2 pays off only for 3 <= p <= r1 and 1 <= k <= p-2, "
            f"got p={p}, k={k}, r1={r1} (force=True to try anyway)"
        )


def _nonzero_cube(p: int) -> Code:
    return Code.from_words(range(1, 1 << p), p)


def plan_extension(
    code: Code, r1: int, p: int, r2: int = 0, k: int | None = None, separ: Code | None = None, force: bool = False
) -> ExtensionPlan:
    """Plan construction C1 (k None) or C2 (k given) from an r1-identifying code.

    ``separ`` is C2's k-separating factor, F^p - {0^p} when None; C1 takes none.
    """
    _check_ranges(r1, p, r2, k, force)
    if k is None and separ is not None:
        raise ExtensionError("a separating factor needs k: it is construction C2's patch")
    if k is not None:
        separ = _nonzero_cube(p) if separ is None else separ
        if separ.dim != p:
            raise ExtensionError(f"separating factor lives in F^{separ.dim}, expected F^{p}")
        if not is_separating(separ, k):
            raise VerificationFailed(f"factor code is not {k}-separating in F^{p}")
    require_identifying(code, r1, "base code", VerificationFailed)
    n = code.dim
    xset = compute_x_set(code, r1, p, r2)
    lo, hi = _band(r1, p, r2, n) if k is None else (r1 + r2 - k,) * 2
    if xset and not 0 <= lo <= hi <= n:
        raise ExtensionError(f"Y must cover X at distances {lo}..{hi}, impossible in F^{n}")
    yset = cover_annulus(xset, lo, hi, n) if xset else ()
    return ExtensionPlan(code, r1, p, r2, k, xset, yset, separ)


def apply_plan(plan: ExtensionPlan) -> Code:
    """Carry out a plan and verify the result; returns the extended code."""
    out = direct_sum(plan.base, full_space(plan.p))  # sorted and duplicate-free
    if plan.y_set:
        patch = _nonzero_cube(plan.p) if plan.separ is None else plan.separ
        patched = direct_sum(Code(plan.base.dim, plan.y_set), patch)
        out = Code.from_words(np.concatenate((out.array, patched.array)), plan.out_dim)
    require_identifying(out, plan.out_radius, "extension output", VerificationFailed)
    return out


def extend_c1(code: Code, r1: int, p: int, r2: int = 0, force: bool = False) -> Code:
    """Extend an r1-identifying code to an (r1+r2)-identifying one in F^(n+p)."""
    return apply_plan(plan_extension(code, r1, p, r2, force=force))


def extend_c2(
    code: Code, r1: int, p: int, r2: int, k: int, separ: Code, force: bool = False
) -> Code:
    """Like extend_c1 but patches X with a k-separating factor instead of F^p - 0."""
    return apply_plan(plan_extension(code, r1, p, r2, k, separ, force))
