"""Cover-set bookkeeping and the evaluation function f = nc + ns.

For a code C in F^n and radius r, every vertex v gets a cover set: the set
of codewords within distance r of v.  A code identifies F^n exactly
when every cover set is nonempty and no two vertices share one.  We track

  nc = number of vertices with an empty cover set,
  ns = number of unordered vertex pairs with identical cover sets,

and f = nc + ns, which is zero precisely on identifying codes.  Pairs of
uncovered vertices count toward ns (two uncovered vertices cannot be told
apart), so f = 0 still characterizes the property exactly.

Two evaluation paths are provided and cross-checked in the test suite:

* ``SignatureTable`` — a mutable table updated ball by ball under codeword
  addition and removal, with one exact intern per distinct class.
  Once asked for a score it keeps three per-word vectors that give the
  f-change of every addition (``add_delta_all``) or swap of one codeword
  (``swap_deltas``, which mutates nothing), at O(2^n) per move.  This is
  what the local-search constructions iterate on.
* ``evaluate`` — a static vectorized pass over all of F^n, used for
  one-shot verification up to dimension MAX_EVAL_DIM.

Cover-set classes are exact on both paths.  The table interns frozensets
of codewords (hash = fingerprint, equality = exact comparison).  The
static path walks the ball offsets: each column codewords ^ offset is
duplicate-free, so it scatters straight into a covered flag and a 64-bit
XOR fingerprint per vertex.  One sort of the covered fingerprints finds
the vertices that might share a cover set; a second pass over the
offsets gives only those their exact cover sets, as sorted rows of
codeword indices, and the rows decide every count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul

import numpy as np

from .hypercube import Code, ball_offsets, odd_mask

# Per-vertex tables get big fast; the incremental engine is meant for the
# search sizes, not for bulk verification (use evaluate for that).
MAX_TABLE_DIM = 20

# The static evaluator's per-vertex arrays peak near 32 bytes a vertex, so
# 2^24 take about half of a 1 GB budget; n = 22 (discriminating) fits.  A
# failing code adds up to about 40 bytes per (vertex, covering codeword)
# pair of its candidates, at most len(words) * V(n, r) pairs.
MAX_EVAL_DIM = 24

_EMPTY_ID = 0
_NO_ID = 1  # never a class, so its count stays 0
_FP_SEED = 0x1DC0DE5


@dataclass(frozen=True)
class Evaluation:
    """Aggregate result: uncovered count, unseparated-pair count, their sum."""

    nc: int
    ns: int
    f: int

    def __post_init__(self) -> None:
        if self.f != self.nc + self.ns:
            raise ValueError("f must equal nc + ns")


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


class SignatureTable:
    """Mutable cover-set table for one (code, radius) pair.

    Cover sets are frozensets of codewords, interned to integer class
    ids.  Membership is ``word_mask`` and ``size``.

    Single-owner semantics: mutate from one thread at a time.
    """

    def __init__(self, dim: int, radius: int) -> None:
        if not 1 <= dim <= MAX_TABLE_DIM:
            raise ValueError(f"table dim must be in [1, {MAX_TABLE_DIM}]")
        self.dim = dim
        self.radius = radius
        n_verts = 1 << dim
        self._offsets = ball_offsets(dim, radius)
        self._key_id = np.zeros(n_verts, dtype=np.int64)
        # class id -> key (frozenset of codewords); id 0 = empty key, never freed
        self._keys: dict[int, frozenset[int]] = {0: frozenset()}
        self._ids: dict[frozenset[int], int] = {frozenset(): 0}
        self._count = np.zeros(8, dtype=np.int64)
        self._count[_EMPTY_ID] = n_verts
        self._free_ids: list[int] = []
        self._next_id = 2
        self.size = 0
        self.ns = _pairs(n_verts)
        self._word_mask = np.zeros(n_verts, dtype=bool)
        self.word_mask = self._word_mask.view()  # read-only, True at the codewords
        self.word_mask.flags.writeable = False
        self._delta = None  # (T0, Cn, Q) per candidate word, from the first score on
        self._after = {}  # {word: (T0, Cn, Q) without it} from swap_deltas, until a mutation

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, code: Code, radius: int) -> "SignatureTable":
        table = cls(code.dim, radius)
        for word in code.words:
            table.add(word)
        return table

    # -- read-only views ---------------------------------------------------

    @property
    def nc(self) -> int:
        return int(self._count[_EMPTY_ID])

    @property
    def f(self) -> int:
        return self.nc + self.ns

    def words(self) -> list[int]:
        return np.flatnonzero(self._word_mask).tolist()

    def code(self) -> Code:
        return Code.from_words(self.words(), self.dim)

    # -- interning ---------------------------------------------------------

    def _intern(self, key: frozenset[int]) -> int:
        cid = self._ids.get(key)
        if cid is not None:
            return cid
        if self._free_ids:
            cid = self._free_ids.pop()
        else:
            cid = self._next_id
            self._next_id += 1
            if cid >= len(self._count):
                grown = np.zeros(2 * len(self._count), dtype=np.int64)
                grown[: len(self._count)] = self._count
                self._count = grown
        self._ids[key] = cid
        self._keys[cid] = key
        self._count[cid] = 0
        return cid

    def _move_ball(self, word: int, sign: int):
        """Move B(word) from each class K to K | {word} (sign +1) or K - {word} (-1)."""
        self._after = {}
        ball = self._offsets ^ np.uint32(word)
        group: dict[int, int] = {}
        inv = np.array([group.setdefault(cid, len(group)) for cid in self._key_id[ball].tolist()])
        old = np.fromiter(group, dtype=np.int64, count=len(group))
        moved = np.bincount(inv)
        keys = [self._keys[cid] | {word} if sign > 0 else self._keys[cid] - {word} for cid in group]
        self._count[old] -= moved
        left = self._count[old]
        for cid, c in zip(group, left.tolist()):
            if c == 0 and cid != _EMPTY_ID:
                del self._ids[self._keys.pop(cid)]
                self._free_ids.append(cid)
        new = np.fromiter(map(self._intern, keys), dtype=np.int64, count=len(keys))
        joined = self._count[new]
        self.ns += int(moved @ (joined - left))
        self._count[new] += moved
        self._key_id[ball] = new[inv]
        return ball, inv, old, moved, left

    # -- mutations ---------------------------------------------------------

    def _require(self, word: int, codeword: bool) -> None:
        if not 0 <= word < (1 << self.dim):
            raise ValueError(f"word {word} out of range for dim {self.dim}")
        if self._word_mask[word] != codeword:
            raise ValueError(f"word {word} is {'not' if codeword else 'already'} a codeword")

    def add(self, word: int) -> None:
        """Add a codeword."""
        self._require(word, False)
        self._word_mask[word] = True
        self.size += 1
        ball, inv, old, moved, left = self._move_ball(word, 1)
        if self._delta is not None:  # the old classes are those of the table without `word`
            self._delta = tuple(map(np.add, self._delta, self._terms(ball, inv, old, moved, left)))

    def remove(self, word: int) -> None:
        """Remove a codeword."""
        self._require(word, True)
        if self._delta is not None:  # as swap_deltas(word) left them, or afresh
            self._delta = self._after.get(word) or self._without(word)[2]
        self._move_ball(word, -1)
        self._word_mask[word] = False
        self.size -= 1

    # -- deltas (no mutation) ----------------------------------------------

    def add_delta_all(self) -> np.ndarray:
        """f-delta of adding each word of F^n as a fresh codeword.

        Entries at current codewords are meaningless; mask them out.  A new
        codeword s splits each class K into its t_K vertices in B(s) and
        the rest, so delta = -sum_K t_K (|K| - t_K) - t_empty
        = V + 2 Q - Cn + T0 (T0 - nc - 2), where over B(s) T0 counts the
        uncovered vertices, Cn sums the class sizes of the covered ones and
        Q counts the pairs sharing a nonempty class.  The first call builds
        T0, Cn and Q; add and remove then keep them current at O(2^n)
        per move, so each call is one vector expression.
        """
        if self._delta is None:
            self._start_tracking()
        return self._add_deltas(*self._delta, self.nc)

    def swap_deltas(self, word: int) -> np.ndarray:
        """f(C - m + s) - f(C) for each word s, m the codeword `word`.

        The table is not touched: remove_delta plus the add_delta_all
        formula over T0, Cn, Q and nc as they would be without m, which
        are computed out of place.  Entries at current codewords, m
        included, are meaningless; mask them out.  A remove(word) before
        any other mutation takes over those vectors.
        """
        if self._delta is None:
            self._start_tracking()
        d_remove, nc, after = self._without(word)
        self._after = {word: after}
        return d_remove + self._add_deltas(*after, nc)

    def _add_deltas(self, t0, cn, q, nc: int) -> np.ndarray:
        return len(self._offsets) + 2 * q - cn + t0 * (t0 - nc - 2)

    def _spread(self, verts: np.ndarray, weights=1) -> np.ndarray:
        """out[s] = sum of weights[i] (default 1) over the verts[i] in B(s)."""
        out = np.zeros(1 << self.dim, dtype=np.int64)
        np.add.at(out, verts[:, None] ^ self._offsets, np.asarray(weights)[..., None])
        return out

    def _start_tracking(self) -> None:
        # T0, Cn and Q depend only on the classes, so adding the codewords to
        # an empty table, where T0 = V and Cn = Q = 0, rebuilds them
        replay = SignatureTable(self.dim, self.radius)
        zero = np.zeros(1 << self.dim, dtype=np.int64)
        replay._delta = (zero + len(self._offsets), zero.copy(), zero)
        for word in self.words():
            replay.add(word)
        self._delta = replay._delta

    def _terms(self, ball, inv, base, k1, k2):
        """What one codeword adds to (T0, Cn, Q); a removal subtracts it.

        ball[i] is in class base[inv[i]] of the table without the codeword;
        class j has k1[j] members in the ball and k2[j] outside it, and no
        vertex outside the ball holds base[j] unless k2[j] > 0.  The
        codeword splits each nonempty class into those two parts and gives
        the uncovered vertices of its ball a class of their own.
        """
        covered = base != _EMPTY_ID
        in_covered = covered[inv]
        fresh = ball[~in_covered]
        inside, ji = ball[in_covered], inv[in_covered]
        group = np.zeros(len(self._count), dtype=np.int64)
        group[base] = np.arange(1, len(base) + 1) * covered
        member = group[self._key_id]
        member[ball] = 0
        outside = member.nonzero()[0]
        jo = member[outside] - 1
        # inside vertices lose the outside part of their class and vice
        # versa; the fresh ones gain each other
        t = self._spread(fresh)
        shrunk = self._spread(np.concatenate((inside, outside)), np.concatenate((k2[ji], k1[jo])))
        # pairs across the ball's boundary stop sharing a class, pairs of
        # formerly uncovered vertices start sharing one
        ia, ib = (ji[:, None] == jo).nonzero()
        s = inside[ia, None] ^ self._offsets
        cross = np.bincount(s[np.bitwise_count(s ^ outside[ib, None]) <= self.radius], minlength=len(t))
        return -t, len(fresh) * t - shrunk, t * (t - 1) // 2 - cross

    def _removal(self, word: int):
        """remove_delta(word) and the vertices it uncovers; then B(word), the
        class ids of its vertices, and per class K among them |K| and the id
        and size of K - {word}.

        Every vertex whose cover set holds `word` lies in B(word), so K sits
        inside the ball and merges with K - {word} outside it: |K| times
        |K - {word}| new pairs, and |K| uncovered vertices if K - {word} is
        empty.  A K - {word} that is no class yet gets the id _NO_ID and
        size 0.  Plain Python values: prune asks for thousands of balls.
        """
        self._require(word, True)
        ball = self._offsets ^ np.uint32(word)
        ids = self._key_id[ball].tolist()
        moved = Counter(ids)
        keys, get, drop = self._keys, self._ids.get, {word}
        target = [get(keys[cid] - drop, _NO_ID) for cid in moved]
        size, k = self._count[target].tolist(), list(moved.values())
        gone = k[target.index(_EMPTY_ID)] if _EMPTY_ID in target else 0
        return sum(map(mul, k, size)) + gone, gone, ball, ids, moved, target, size

    def _without(self, word: int):
        """remove_delta(word), and nc and (T0, Cn, Q) after that removal."""
        delta, gone, ball, ids, moved, target, size = self._removal(word)
        index = {cid: j for j, cid in enumerate(moved)}
        k1, base, k2 = (np.array(v) for v in (list(moved.values()), target, size))
        terms = self._terms(ball, np.array([index[cid] for cid in ids]), base, k1, k2)
        return delta, self.nc + gone, tuple(map(np.subtract, self._delta, terms))

    def remove_delta(self, word: int) -> int:
        """f(C - word) - f(C) for a codeword: each class in its ball merges
        with the class of its key minus `word` (see _removal)."""
        return self._removal(word)[0]

    # -- integrity ---------------------------------------------------------

    def check(self) -> None:
        """Assert internal consistency against a from-scratch recount."""
        n_verts = 1 << self.dim
        live = [int(self._count[cid]) for cid in self._keys]
        assert sum(live) == n_verts, "class counts must cover all vertices"
        counted = Counter(self._key_id.tolist())
        for cid, c in counted.items():
            assert int(self._count[cid]) == c, f"stale count for class {cid}"
        assert self.ns == sum(_pairs(c) for c in counted.values())
        assert self.size == np.count_nonzero(self._word_mask), "stale size"
        covering = frozenset().union(*(self._keys[cid] for cid in counted))
        assert covering == set(self.words()), "cover sets disagree with the codeword mask"


def _marks(k: int) -> np.ndarray:
    """k random odd 64-bit fingerprint marks, one per codeword."""
    rng = np.random.Generator(np.random.PCG64(_FP_SEED))
    return rng.integers(0, 2**63, size=k, dtype=np.uint64) | np.uint64(1)


def _evaluate_static(words: np.ndarray, n: int, r: int, want_witnesses: bool,
                     odd_targets: bool = False):
    """nc/ns over the target vertices (all of F^n, or its odd-weight half),
    plus witnesses following ``diagnose``'s rule.

    Per ball offset, the duplicate-free column words ^ offset takes one
    fancy-indexed store into a covered flag and one XOR of the codewords'
    random marks into a 64-bit fingerprint.  Equal cover sets give equal
    fingerprints, so one sort that finds no repeat among the covered targets
    (every identifying code) ends the pass.  Otherwise a second pass collects
    the (vertex, codeword index) pairs of the candidates, at most
    len(words) * V of them; sorted, they give each candidate's exact cover
    set as a row, and np.unique over the rows of each length gives the
    classes, so no count or witness rests on a fingerprint.
    """
    if n > MAX_EVAL_DIM:
        raise ValueError(f"dimension {n} exceeds MAX_EVAL_DIM = {MAX_EVAL_DIM} for static evaluation")
    n_verts = 1 << n
    offs = ball_offsets(n, r)
    marks = _marks(len(words))
    covered = np.zeros(n_verts, dtype=bool)
    fp = np.zeros(n_verts, dtype=np.uint64)
    for off in offs:
        col = words ^ off
        covered[col] = True
        fp[col] ^= marks
    targets = odd_mask(n) if odd_targets else True
    live = covered & targets
    empty = ~covered & targets
    nc = int(np.count_nonzero(empty))
    ns = _pairs(nc)  # the uncovered vertices form one exact class
    uncovered = pair = None
    if want_witnesses and nc:
        uncovered = int(np.argmax(empty))
        if nc >= 2:
            pair = (uncovered, uncovered + 1 + int(np.argmax(empty[uncovered + 1:])))
    fl = fp[live]
    dup = np.sort(fl)
    dup = dup[1:][dup[1:] == dup[:-1]]
    if not len(dup):
        return nc, ns, uncovered, pair
    # candidates: the covered targets that share their low n fingerprint bits with a repeat
    low = np.uint64(n_verts - 1)
    bucket = np.zeros(n_verts, dtype=bool)
    bucket[dup & low] = True
    live[live] = bucket[fl & low]
    found = []
    for off in offs:
        col = words ^ off
        hit = np.flatnonzero(live[col]).astype(np.uint64)
        found.append(col[hit].astype(np.uint64) << 32 | hit)
    found = np.concatenate(found)
    found.sort()
    cand, start, size = np.unique(found >> 32, return_index=True, return_counts=True)
    member = found.astype(np.uint32)  # the low half: the codeword index
    label = np.empty(len(cand), dtype=np.int64)  # a class is a size and a row
    for k in np.unique(size):
        sel = size == k
        _, inv = np.unique(member[start[sel, None] + np.arange(k)], axis=0, return_inverse=True)
        label[sel] = inv.reshape(-1) * (len(offs) + 1) + k
    _, inv, counts = np.unique(label, return_inverse=True, return_counts=True)
    ns += int((counts * (counts - 1) // 2).sum())
    if want_witnesses and pair is None:
        shared = np.flatnonzero(counts[inv] >= 2)
        if len(shared):
            pair = tuple(int(v) for v in cand[inv == inv[shared[0]]][:2])
    return nc, ns, uncovered, pair


def evaluate(code: Code, radius: int) -> Evaluation:
    """One-shot exact evaluation of f = nc + ns over all of F^n."""
    words = np.array(code.words, dtype=np.uint32)
    nc, ns, _, _ = _evaluate_static(words, code.dim, radius, False)
    return Evaluation(nc, ns, nc + ns)


@dataclass(frozen=True)
class VerifyReport:
    dim: int
    radius: int
    size: int
    nc: int
    ns: int
    identifying: bool
    uncovered: int | None
    unseparated: tuple[int, int] | None


def diagnose(code: Code, radius: int) -> VerifyReport:
    """Evaluation plus canonical witnesses.

    ``uncovered`` is the smallest uncovered vertex.  ``unseparated`` is the
    two smallest uncovered vertices if there are at least two; otherwise
    the two smallest members of the exact cover-set class holding the
    smallest unseparated covered vertex.  Each is None when none exists.
    """
    words = np.array(code.words, dtype=np.uint32)
    nc, ns, uncovered, pair = _evaluate_static(words, code.dim, radius, True)
    return VerifyReport(
        dim=code.dim,
        radius=radius,
        size=len(code),
        nc=nc,
        ns=ns,
        identifying=(nc + ns == 0),
        uncovered=uncovered,
        unseparated=pair,
    )


def is_identifying(code: Code, radius: int) -> bool:
    """True iff every vertex has a nonempty, unique cover set."""
    return evaluate(code, radius).f == 0
