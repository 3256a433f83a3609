"""Certified minimum-size searches at small dimensions.

Finds minimum codes for three target properties over F^n:

* identifying  — every vertex covered, all cover sets distinct;
* separating   — all cover sets distinct (at most one vertex uncovered);
* discriminating — codewords even, odd vertices covered and distinguished.

The search fixes 0^n as a codeword (any solution translates onto one that
contains it), walks candidate words in increasing order, and ascends
candidate sizes so the first feasible size is the minimum.  Partial codes
carry the current partition of vertices into cover-set classes, each a
record (mask, size, sep): a vertex bitmask, its popcount, and the highest
candidate index whose ball splits its two lowest members.  A branch dies
as soon as some class can no longer be split into small enough pieces,
some vertex can no longer be covered, or some pair has no remaining
separator.  Each child is counted, then checked cheapest rule first in its
parent's loop; a class its ball leaves whole is re-checked with two
compares.  Children that all fail are counted without a visit: those past
the least sep, or all of them when more vertices are uncovered than one
ball could bring down to what the remaining words may leave.

Coordinate permutations fix 0^n and map codes of each kind onto codes of
the same kind.  So by default, at every n, a partial code with at most
_CANONICAL_DEPTH words besides 0^n is kept only if it is a lex-leader: no
permutation maps it onto a set with a smaller increasing listing.  One
numpy pass checks all n! - 1 permutations: it reads the words' images from
a table of one byte per image and sorts them per permutation with a min/max
network.  A search keeps its verdicts, at most Σ_{k <= _CANONICAL_DEPTH}
C(m - 1, k) for m candidates (41,727 at m = 64).  canonical=False: no test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .hypercube import Code, ball_offsets, ball_size, odd_mask, permute_words
from .signatures import diagnose

# Largest n any exact search accepts, whatever its cap says.  The ball
# bitsets and cover masks take 2 * 4^n / 8 bytes and the lex-leader table
# (n! - 1) * 2^n bytes: 10.3 MB at n = 8 and 0.19 GB at n = 9.  Filled in
# slices of (n - 1)! permutations, the whole n = 8 searcher peaks about
# 31 MB above the interpreter's footprint (60 MB RSS), the table included.
MAX_EXACT_DIM = 8
# Partial codes are tested for lex-leadership while they have at most this
# many words besides 0^n.  With each verdict kept per search, bench `exact`
# wall_s read 0.35-0.36 s at depth 2 (1.7 times the nodes), 0.28-0.31 s at 3
# and 0.32 s at 4, where the extra tests still cost more than they prune.
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
    return diagnose(code, k).ns == 0


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
        # reach[i]: the target vertices candidates i, i+1, ... still cover
        reach = itertools.accumulate(reversed(self.ballmask), int.__or__, initial=0)
        self.reach = list(reach)[::-1]
        self.images, self.verdicts = None, {}  # words -> _canonical(words)
        if canonical:
            others = itertools.islice(itertools.permutations(range(1, n + 1)), 1, None)
            perms = np.array(list(others), dtype=np.int64).reshape(-1, n)
            # row w: w's image under every permutation but the identity,
            # filled (n-1)! permutations at a time to bound the uint32 temporaries
            words, step = np.arange(1 << n), math.factorial(n - 1)
            self.images = np.empty((1 << n, len(perms)), dtype=np.min_scalar_type((1 << n) - 1))
            for i in range(0, len(perms), step):
                self.images[:, i:i + step] = permute_words(words, perms[i:i + step], n).T

    def _canonical(self, words: tuple[int, ...]) -> bool:
        """True iff no permutation maps the increasing words onto a set with a
        smaller increasing listing.  Every permutation fixes words[0] = 0^n;
        the other images are sorted per permutation (one column each) by an
        insertion min/max network, packed n bits a word, first word highest,
        so integer order is list order.  Each size re-tests the same short
        prefixes, so every verdict is kept for the rest of the search."""
        if words in self.verdicts:
            return self.verdicts[words]
        rows = [self.images[w] for w in words[1:]]
        for i in range(1, len(rows)):
            for j in range(i, 0, -1):
                a, b = rows[j - 1], rows[j]
                rows[j - 1], rows[j] = np.minimum(a, b), np.maximum(a, b)
        packed, ref = np.zeros(self.images.shape[1], dtype=np.int64), 0
        for row, w in zip(rows, words[1:]):
            packed = packed << self.n | row
            ref = ref << self.n | w
        verdict = self.verdicts[words] = not (packed < ref).any()
        return verdict

    def _dfs(self, lo: int, hi: int, words: tuple[int, ...],
             classes: list[tuple[int, int, int]], uncov: int, remaining: int):
        """Try candidates lo..hi-1 as the next word; return the first code.

        Each child is counted, then decided here, cheapest rule first, and
        only a feasible child is recursed into.  At a leaf the first two rules
        are the leaf test: no class keeps two members, and no vertex (for
        separating codes, at most one) stays uncovered.
        """
        remaining -= 1  # words each child still has to place
        limit = 1 << remaining  # cover sets those words can tell apart
        # uncovered vertices need distinct cover sets, nonempty unless one
        # may stay uncovered, and each word covers at most vol of them
        most = limit if self.allow_one_uncovered else min(limit - 1, remaining * self.vol)
        ballmask, suffix, reach, cands, cover = (
            self.ballmask, self.suffix, self.reach, self.cands, self.covermask)
        budget = self.budget
        lex = self.images is not None and len(words) <= _CANONICAL_DEPTH
        end = hi  # counted, not visited: every child if uncov exceeds most by more
        # than the vol targets one ball covers, else the children past the least sep
        if not lex and uncov.bit_count() - most > self.vol:
            end = lo
        elif classes and not lex:
            end = min(hi, 1 + min(cls[2] for cls in classes))  # each sep >= lo
        for j in range(lo, end):
            if lex and not self._canonical(words + (cands[j],)):
                continue
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                raise BudgetExhausted
            ball = ballmask[j]
            left = uncov & ~ball  # 1. the uncovered count
            if left.bit_count() > most:
                continue
            kids = self._split(classes, uncov & ball, ball, limit, j)  # 2. the class split
            if kids is None:
                continue
            if remaining == 0:  # 3. the leaf test
                return words + (cands[j],)
            if left:  # 4. no uncovered vertex out of reach (for separating
                # codes, at most one), and the first two still separable
                if (left & ~reach[j + 1]).bit_count() > self.allow_one_uncovered:
                    continue
                rest = left & (left - 1)
                u, v = (left & -left).bit_length() - 1, (rest & -rest).bit_length() - 1
                if rest and (cover[u] ^ cover[v]) & suffix[j + 1] == 0:
                    continue
            hit = self._dfs(j + 1, len(cands) - remaining + 1,
                            words + (cands[j],), kids, left, remaining)
            if hit is not None:
                return hit
        self.nodes += hi - end
        if budget is not None and self.nodes > budget:
            self.nodes = budget + 1
            raise BudgetExhausted
        return None

    def _split(self, classes: list[tuple[int, int, int]], fresh: int, ball: int, limit: int,
               j: int) -> list[tuple[int, int, int]] | None:
        """Each class cut by candidate j's ball, plus the freshly covered
        vertices; None at the first class bigger than limit or with sep <= j,
        none of candidates j+1, ... splitting its two lowest members.  A class
        the ball leaves whole passes on as the same record."""
        cover = self.covermask
        kids, cut = [], [fresh]
        for cls in classes:
            c, size, sep = cls
            a = c & ball
            if a == 0 or a == c:
                if size > limit or sep <= j:
                    return None
                kids.append(cls)
            else:
                cut += (a, c ^ a)
        for piece in cut:
            rest = piece & (piece - 1)
            if rest:
                size = piece.bit_count()
                sep = (cover[(piece & -piece).bit_length() - 1]
                       ^ cover[(rest & -rest).bit_length() - 1]).bit_length() - 1
                if size > limit or sep <= j:
                    return None
                kids.append((piece, size, sep))
        return kids

    def search_size(self, size: int):
        """One feasibility run.  The root, the fixed word 0^n, is the one child
        tried from the empty code, so it is counted and decided like any node."""
        return self._dfs(0, 1, (), [], self.targets, size)


def _check_cap(n: int, cap: int) -> None:
    cap = min(cap, MAX_EXACT_DIM)
    if n > cap:
        raise ValueError(f"n={n} exceeds the exhaustive cap {cap}")


def _run_min_search(n: int, r: int, candidates: np.ndarray, targets: np.ndarray,
                    allow_one_uncovered: bool, start_size: int, budget: int | None,
                    canonical: bool) -> SearchOutcome:
    """Ascend sizes from start_size; candidates and targets are boolean masks over F^n."""
    words = np.flatnonzero(candidates).tolist()
    if not 1 <= start_size <= len(words):
        raise ValueError(f"start_size {start_size} outside [1, {len(words)}]")
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} must be >= 0")
    target_bits = int.from_bytes(np.packbits(targets, bitorder="little").tobytes(), "little")
    searcher = _Searcher(n, r, words, target_bits, allow_one_uncovered, budget, canonical)
    infeasible = []
    hit = None
    try:
        for size in range(start_size, len(words) + 1):
            hit = searcher.search_size(size)
            if hit is not None:
                break
            infeasible.append(size)
        else:
            raise AssertionError("the full candidate set always satisfies the property")
    except BudgetExhausted:
        pass
    return SearchOutcome(
        code=None if hit is None else Code.from_words(hit, n),
        size=None if hit is None else len(hit),
        minimal=hit is not None,
        nodes=searcher.nodes,
        start_size=start_size,
        infeasible_sizes=tuple(infeasible),
    )


def min_identifying(
    r: int,
    n: int,
    budget: int | None = None,
    start_size: int | None = None,
    cap: int = 5,
    canonical: bool = True,
) -> SearchOutcome:
    """Minimum r-identifying code in F^n, sizes ascending from the
    registry lower bound (or start_size).  Exhaustive-scale only.
    canonical=True, the default at every n, skips partial codes that are
    not lex-leaders: fewer nodes, perhaps another code, the same size."""
    if r < 1:
        raise ValueError("radius must be at least 1")
    if r >= n:
        raise ValueError(f"no identifying code exists for r={r}, n={n}")
    _check_cap(n, cap)
    if start_size is None:
        record = bounds.load_registry().get((r, n))
        start_size = 1 if record is None else record.lower
    everything = np.ones(1 << n, dtype=bool)
    return _run_min_search(
        n, r, everything, everything, False, start_size, budget, canonical
    )


def min_separating(
    p: int,
    k: int,
    budget: int | None = None,
    canonical: bool = True,
) -> SearchOutcome:
    """Minimum k-separating code in F^p (exhaustive; p <= 5).

    The result size is checked against the bracket [M_k(p) - 1, M_k(p)]
    whenever the registry knows M_k(p) exactly.  canonical: as for
    min_identifying.

    k = p - 1 is the slow corner.  A ball then misses only the antipode, so
    every vertex whose antipode is not a codeword has cover set C, and at
    most one such vertex may exist: the minimum is 2^p - 1.  The search has
    to exhaust every smaller size with weak pruning; (5, 4) takes minutes.
    """
    _check_cap(p, 5)
    if not 0 <= k <= p - 1:
        raise ValueError(f"need 0 <= k <= p-1, got k={k}, p={p}")
    everything = np.ones(1 << p, dtype=bool)
    outcome = _run_min_search(p, k, everything, everything, True, 1, budget, canonical)
    record = bounds.load_registry().get((k, p))
    if outcome.size is not None and record is not None and record.exact:
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
    canonical: bool = True,
) -> SearchOutcome:
    """Minimum r-discriminating code in F^n (r odd, codewords even,
    odd vertices identified).  Sizes ascend from start_size (default 1),
    so the result is independent of the identifying tables.  For n >= 2
    a code exists only when r <= n - 2.  canonical: as for min_identifying."""
    if r % 2 == 0:
        raise ValueError("the property is defined for odd radii only")
    if not 1 <= r <= n:
        raise ValueError(f"radius {r} out of range for dim {n}")
    if 2 <= n < r + 2:
        raise ValueError(f"no {r}-discriminating code exists for n={n}: need r <= n - 2")
    _check_cap(n, cap)
    odd = odd_mask(n)
    return _run_min_search(
        n, r, ~odd, odd, False, 1 if start_size is None else start_size, budget, canonical
    )
