"""Certified minimum-size searches at small dimensions.

Finds minimum codes for three target properties over F^n:

* identifying  — every vertex covered, all cover sets distinct;
* separating   — all cover sets distinct (at most one vertex uncovered);
* discriminating — codewords even, odd vertices covered and distinguished.

The search fixes 0^n as a codeword (any solution translates onto one that
contains it), walks candidate words in increasing order, and ascends
candidate sizes so the first feasible size is the minimum.  Partial codes
carry the current partition of vertices into cover-set classes, as vertex
bitmasks; a branch dies as soon as some class can no longer be split into
small enough pieces, some vertex can no longer be covered, or some pair
has no remaining separator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .hypercube import Code, ball_offsets, ball_size, odd_mask, permute_words
from .signatures import evaluate

# Largest n any exact search accepts, whatever its cap says.  The ball
# bitsets and cover masks take 2 * 4^n / 8 bytes and the lex-leader tables
# (n! - 1) * 2^n words: as uint32, about 41 MB at n = 8 and 0.74 GB at n = 9.
MAX_EXACT_DIM = 8
# Partial codes are tested for lex-leadership while they have at most this
# many words besides 0^n.
_CANONICAL_DEPTH = 3


class BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a minimum-size search.

    minimal means the size is certified relative to the start size: every
    smaller size down to start_size was proved infeasible (start_size
    itself comes from the trusted lower-bound registry unless overridden).
    """

    code: Code | None
    size: int | None
    minimal: bool
    nodes: int
    start_size: int
    infeasible_sizes: tuple[int, ...] = field(default_factory=tuple)


def is_separating(code: Code, k: int) -> bool:
    """True iff no two vertices share a cover set at radius k.

    Vertices may go uncovered, but only one: two uncovered vertices would
    share the empty cover set.
    """
    return evaluate(code, k).ns == 0


class _Searcher:
    def __init__(
        self,
        n: int,
        r: int,
        candidates: list[int],
        targets: int,
        allow_one_uncovered: bool,
        budget: int | None,
        canonical: bool,
    ) -> None:
        self.n = n
        self.r = r
        self.cands = candidates
        self.allow_one_uncovered = allow_one_uncovered
        self.budget = budget
        self.nodes = 0
        self.vol = ball_size(n, r)
        offs = ball_offsets(n, r)
        # ball masks restricted to target vertices; cover masks say which
        # candidate indices reach a given vertex
        self.ballmask = []
        cover = [0] * (1 << n)
        for i, w in enumerate(candidates):
            mask = 0
            for v in (offs ^ np.uint32(w)).tolist():
                mask |= 1 << v
                cover[v] |= 1 << i
            self.ballmask.append(mask & targets)
        self.covermask = cover
        self.targets = targets
        m = len(candidates)
        self.suffix = [(((1 << m) - 1) >> i) << i for i in range(m + 1)]
        self.perms = []
        if canonical:
            others = itertools.islice(itertools.permutations(range(1, n + 1)), 1, None)
            perms = np.array(list(others), dtype=np.int64).reshape(-1, n)
            self.perms = permute_words(np.arange(1 << n), perms, n).tolist()

    def _feasible(self, classes: list[int], uncov: int, remaining: int, rmask: int) -> bool:
        limit = 1 << remaining
        cover = self.covermask
        for c in classes:
            if c.bit_count() > limit:
                return False
            u = (c & -c).bit_length() - 1
            rest = c & (c - 1)
            v = (rest & -rest).bit_length() - 1
            if (cover[u] ^ cover[v]) & rmask == 0:
                return False
        pu = uncov.bit_count()
        if pu:
            if self.allow_one_uncovered:
                if pu > limit:
                    return False
            else:
                if pu > limit - 1 or pu > remaining * self.vol:
                    return False
            stuck = 0
            m = uncov
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if cover[v] & rmask == 0:
                    if self.allow_one_uncovered:
                        stuck += 1
                        if stuck >= 2:
                            return False
                    else:
                        return False
            if pu >= 2:
                u = (uncov & -uncov).bit_length() - 1
                rest = uncov & (uncov - 1)
                v = (rest & -rest).bit_length() - 1
                if (cover[u] ^ cover[v]) & rmask == 0:
                    return False
        return True

    def _canonical(self, words: tuple[int, ...]) -> bool:
        ref = list(words)
        for table in self.perms:
            img = sorted(table[w] for w in words)
            if img < ref:
                return False
        return True

    def _dfs(self, lo: int, words: tuple[int, ...], classes: list[int],
             uncov: int, remaining: int):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExhausted
        if remaining == 0:
            ok_uncov = uncov == 0 or (self.allow_one_uncovered and uncov.bit_count() == 1)
            if not classes and ok_uncov:
                return words
            return None
        if not self._feasible(classes, uncov, remaining, self.suffix[lo]):
            return None
        last = len(self.cands) - remaining
        for j in range(lo, last + 1):
            ball = self.ballmask[j]
            new_classes = []
            for c in classes:
                a = c & ball
                if a.bit_count() >= 2:
                    new_classes.append(a)
                b = c & ~ball
                if b.bit_count() >= 2:
                    new_classes.append(b)
            fresh = uncov & ball
            if fresh.bit_count() >= 2:
                new_classes.append(fresh)
            new_words = words + (self.cands[j],)
            if self.perms and len(new_words) - 1 <= _CANONICAL_DEPTH:
                if not self._canonical(new_words):
                    continue
            hit = self._dfs(j + 1, new_words, new_classes, uncov & ~ball, remaining - 1)
            if hit is not None:
                return hit
        return None

    def search_size(self, size: int):
        """One feasibility run; words include the fixed 0^n."""
        ball0 = self.ballmask[0]
        classes = [ball0] if ball0.bit_count() >= 2 else []
        uncov = self.targets & ~ball0
        return self._dfs(1, (0,), classes, uncov, size - 1)


def _check_cap(n: int, cap: int) -> None:
    cap = min(cap, MAX_EXACT_DIM)
    if n > cap:
        raise ValueError(f"n={n} exceeds the exhaustive cap {cap}")


def _run_min_search(
    n: int,
    r: int,
    candidates: np.ndarray,
    targets: np.ndarray,
    allow_one_uncovered: bool,
    start_size: int,
    budget: int | None,
    canonical: bool | None,
) -> SearchOutcome:
    """Ascend sizes from start_size; candidates and targets are boolean masks over F^n."""
    words = np.flatnonzero(candidates).tolist()
    if not 1 <= start_size <= len(words):
        raise ValueError(f"start_size {start_size} outside [1, {len(words)}]")
    target_bits = int.from_bytes(np.packbits(targets, bitorder="little").tobytes(), "little")
    if canonical is None:
        canonical = n <= 5
    searcher = _Searcher(
        n, r, words, target_bits, allow_one_uncovered, budget, canonical
    )
    infeasible = []
    for size in range(start_size, len(words) + 1):
        try:
            hit = searcher.search_size(size)
        except BudgetExhausted:
            return SearchOutcome(
                code=None,
                size=None,
                minimal=False,
                nodes=searcher.nodes,
                start_size=start_size,
                infeasible_sizes=tuple(infeasible),
            )
        if hit is not None:
            return SearchOutcome(
                code=Code.from_words(hit, n),
                size=size,
                minimal=True,
                nodes=searcher.nodes,
                start_size=start_size,
                infeasible_sizes=tuple(infeasible),
            )
        infeasible.append(size)
    raise AssertionError("the full candidate set always satisfies the property")


def min_identifying(
    r: int,
    n: int,
    budget: int | None = None,
    start_size: int | None = None,
    cap: int = 5,
    canonical: bool | None = None,
) -> SearchOutcome:
    """Minimum r-identifying code in F^n, sizes ascending from the
    registry lower bound (or start_size).  Exhaustive-scale only."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    if r >= n:
        raise ValueError(f"no identifying code exists for r={r}, n={n}")
    _check_cap(n, cap)
    if start_size is None:
        try:
            start_size = bounds.lookup(r, n).lower
        except KeyError:
            start_size = 1
    everything = np.ones(1 << n, dtype=bool)
    return _run_min_search(
        n, r, everything, everything, False, start_size, budget, canonical
    )


def min_separating(
    p: int,
    k: int,
    budget: int | None = None,
    canonical: bool | None = None,
) -> SearchOutcome:
    """Minimum k-separating code in F^p (exhaustive; p <= 5).

    The result size is checked against the bracket [M_k(p) - 1, M_k(p)]
    whenever the registry knows M_k(p) exactly.
    """
    _check_cap(p, 5)
    if not 0 <= k <= p - 1:
        raise ValueError(f"need 0 <= k <= p-1, got k={k}, p={p}")
    everything = np.ones(1 << p, dtype=bool)
    outcome = _run_min_search(p, k, everything, everything, True, 1, budget, canonical)
    if outcome.size is not None:
        try:
            record = bounds.lookup(k, p)
        except KeyError:
            record = None
        if record is not None and record.exact:
            if outcome.size not in (record.upper - 1, record.upper):
                raise RuntimeError(
                    f"separating minimum {outcome.size} outside "
                    f"[{record.upper - 1}, {record.upper}] for k={k}, p={p}"
                )
    return outcome


def min_discriminating(
    r: int,
    n: int,
    budget: int | None = None,
    start_size: int | None = None,
    cap: int = 6,
    canonical: bool | None = None,
) -> SearchOutcome:
    """Minimum r-discriminating code in F^n (r odd, codewords even,
    odd vertices identified).  Sizes ascend from start_size (default 1),
    so the result is independent of the identifying tables."""
    if r % 2 == 0:
        raise ValueError("the property is defined for odd radii only")
    if not 1 <= r <= n:
        raise ValueError(f"radius {r} out of range for dim {n}")
    _check_cap(n, cap)
    odd = odd_mask(n)
    return _run_min_search(
        n, r, ~odd, odd, False, 1 if start_size is None else start_size, budget, canonical
    )
