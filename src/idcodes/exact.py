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

from .hypercube import Code, ball_offsets, ball_size
from .signatures import evaluate


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


def _perm_tables(n: int) -> list[list[int]]:
    tables = []
    for perm in itertools.permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        table = []
        for w in range(1 << n):
            img = 0
            for q, p in enumerate(perm):
                img |= ((w >> p) & 1) << q
            table.append(img)
        tables.append(table)
    return tables


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
        canonical_depth: int = 3,
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
        self.perms = _perm_tables(n) if canonical else []
        self.canonical_depth = canonical_depth

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
            if self.perms and len(new_words) - 1 <= self.canonical_depth:
                if not self._canonical(new_words):
                    continue
            hit = self._dfs(j + 1, new_words, new_classes, uncov & ~ball, remaining - 1)
            if hit is not None:
                return hit
        return None

    def search_size(self, size: int):
        """One feasibility run; words include the fixed 0^n."""
        if size < 1 or size > len(self.cands):
            return None
        ball0 = self.ballmask[0]
        classes = [ball0] if ball0.bit_count() >= 2 else []
        uncov = self.targets & ~ball0
        return self._dfs(1, (0,), classes, uncov, size - 1)


def _run_min_search(
    n: int,
    r: int,
    candidates: list[int],
    targets: int,
    allow_one_uncovered: bool,
    start_size: int,
    budget: int | None,
    canonical: bool,
) -> SearchOutcome:
    searcher = _Searcher(
        n, r, candidates, targets, allow_one_uncovered, budget, canonical
    )
    infeasible = []
    for size in range(start_size, len(candidates) + 1):
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


def _registry_lower(r: int, n: int) -> int | None:
    from . import bounds

    try:
        return bounds.lookup(r, n).lower
    except KeyError:
        return None


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
    if n > cap:
        raise ValueError(f"n={n} exceeds the exhaustive cap {cap}")
    if start_size is None:
        start_size = _registry_lower(r, n) or 1
    if canonical is None:
        canonical = n <= 5
    candidates = list(range(1 << n))
    targets = (1 << (1 << n)) - 1
    return _run_min_search(
        n, r, candidates, targets, False, start_size, budget, canonical
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
    if p > 5:
        raise ValueError(f"p={p} exceeds the exhaustive cap 5")
    if not 0 <= k <= p - 1:
        raise ValueError(f"need 0 <= k <= p-1, got k={k}, p={p}")
    if canonical is None:
        canonical = True
    candidates = list(range(1 << p))
    targets = (1 << (1 << p)) - 1
    outcome = _run_min_search(p, k, candidates, targets, True, 1, budget, canonical)
    if outcome.size is not None:
        from . import bounds

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
    if n > cap:
        raise ValueError(f"n={n} exceeds the exhaustive cap {cap}")
    if canonical is None:
        canonical = n <= 5
    words = np.arange(1 << n, dtype=np.uint32)
    parities = np.bitwise_count(words) & 1
    candidates = [int(w) for w in words[parities == 0]]
    targets = 0
    for w in words[parities == 1].tolist():
        targets |= 1 << w
    return _run_min_search(
        n, r, candidates, targets, False, start_size or 1, budget, canonical
    )
