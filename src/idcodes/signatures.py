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
  addition and removal, or built from a code in one pass (``build``).
  Once asked for a score it keeps two per-word vectors that give the
  f-change of every addition (``add_delta_all``) or swap of one codeword
  (``swap_deltas``, which mutates nothing), at O(2^n) per move;
  ``remove_delta_all`` scores every removal in one pass.  This is what the
  local-search constructions iterate on.
* ``diagnose`` — a static vectorized pass over all of F^n, used for
  one-shot verification up to dimension MAX_EVAL_DIM, with witnesses.

Both fingerprint a cover set as the XOR of a random odd mark per codeword,
64-bit in the table and 32-bit on the static path, from independent seeds.
The table keys its classes by fingerprint, so a collision can merge two
(see ``SignatureTable``); its f then reads high, never low.  The static
path is exact: one XOR pass per ball offset (each column codewords ^ offset
is duplicate-free) gives every vertex its fingerprint, nonzero only if it
is covered.  One in-place sort of the nonzero fingerprints finds the
vertices that might share a cover set; a second pass over the offsets, from
the smaller side, gives only those and the vertices at zero their exact
cover sets, as sorted rows of codeword indices, which decide every count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

import numpy as np

from .hypercube import Code, ball_offsets, odd_mask

# Per-vertex tables get big fast; the incremental engine is meant for the
# search sizes, not for bulk verification (use diagnose for that).  Swap
# scores also read a ball-intersection table, cached per (n, r): V(V - 1)
# int32 offsets, two pad rows per row width and a 2^n int32 index, 4.2 MB
# at (1, 20), 41 kB at (2, 12) and 11.5 MB at (3, 20).
MAX_TABLE_DIM = 20

# Static evaluation peaks near 12 bytes a vertex (tracemalloc: 12.1 MiB at
# n = 20, 48 MiB at n = 22), or 4 a vertex and 16 a codeword if more: 0.2 GB
# at 2^24, 0.34 GB for the full space.  A failing code adds up to 40 bytes
# per (vertex, covering codeword) pair of its candidates, |C| V(n, r) at most.
MAX_EVAL_DIM = 24

_EMPTY_ID = 0
_NO_ID = 1  # never a class, so its count stays 0
_FP_SEED = 0x1DC0DE5
_TABLE_FP_SEED = 0x7AB1E5  # the table's marks, apart from the static path's


def _pairs(k: int) -> int:
    return k * (k - 1) // 2


class SignatureTable:
    """Mutable cover-set table for one (code, radius) pair.

    Each vertex holds a dense class id, each id the size and fingerprint of
    its cover set, and a dict maps each live fingerprint to its id (empty
    cover set: id 0, fingerprint 0).  Moving the classes K of B(w) to
    K ^ {w} XORs their fingerprints with mark(w) and looks each up, on
    additions as on removals, so a collision merges classes (or counts
    covered vertices as uncovered) but never splits one: f reads at least
    the true f.  A move makes at most V keys, each meeting one of at most
    2^n live fingerprints with probability 2^-63 (the marks are odd), so it
    collides with probability about V 2^n / 2^63 at most.  Either way the
    classes are the vertices grouped by the fingerprint of their exact
    cover set, which is how ``build`` makes them in one pass.  ``check``
    recounts exactly.  Membership is ``word_mask`` and ``size``.  Mutate
    or score from one thread at a time (scores share a scratch array).
    """

    def __init__(self, dim: int, radius: int) -> None:
        if not 1 <= dim <= MAX_TABLE_DIM:
            raise ValueError(f"table dim must be in [1, {MAX_TABLE_DIM}]")
        self.dim, self.radius = dim, radius
        n_verts = 1 << dim
        self._offsets = ball_offsets(dim, radius)
        self._mark = _table_marks(dim)
        self._key_id = np.zeros(n_verts, dtype=np.int64)
        ids = n_verts + 2 + len(self._offsets)  # 2^n live classes at most, V more mid-move
        self._count = np.zeros(ids, dtype=np.int64)
        self._count[_EMPTY_ID] = n_verts
        self._fp = np.zeros(ids, dtype=np.uint64)
        self._ids = {0: _EMPTY_ID}  # fingerprint -> class id; id 0 is never freed
        self._free, self._top = np.arange(ids - 1, 1, -1), ids - 2  # a stack of the unused ids
        self.size = 0
        self.ns = _pairs(n_verts)
        self._word_mask = np.zeros(n_verts, dtype=bool)
        self.word_mask = self._word_mask.view()  # read-only, True at the codewords
        self.word_mask.flags.writeable = False
        self._delta = self._slot = None  # (T0, P) per candidate word and _terms' scratch, from the first score on
        self._scores = None  # (add_delta_all, 2 T0 - nc - 1), until a mutation
        self._removing = None  # the last _removal, until a mutation

    @classmethod
    def build(cls, code: Code, radius: int) -> "SignatureTable":
        """The table of `code` in one pass: one sort of the vertices'
        fingerprints gives the classes that adding its words would make."""
        table = cls(code.dim, radius)
        words = code.array
        fp = _fingerprints(words, table._mark[words], table._offsets, 1 << code.dim)
        order = fp.argsort()
        fp = fp[order]
        first = np.flatnonzero(np.concatenate(([True], fp[1:] != fp[:-1])))
        keys, counts = fp[first], np.diff(first, append=len(fp))
        fresh = len(keys) - (keys[0] == 0)  # fingerprint 0 is the empty class, id 0
        table._top -= fresh
        ids = np.concatenate((np.full(len(keys) - fresh, _EMPTY_ID), table._free[table._top:table._top + fresh]))
        table._key_id[order] = np.repeat(ids, counts)
        table._count[_EMPTY_ID] = 0
        table._count[ids], table._fp[ids] = counts, keys
        table._ids.update(zip(keys.tolist(), ids.tolist()))
        table.ns = int(counts @ (counts - 1)) // 2
        table._word_mask[words], table.size = True, len(words)
        return table

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

    def _group(self, word: int):
        """B(word), each vertex's index into its distinct class ids `old`,
        their counts in it, and each K ^ {word}: fingerprint and id (_NO_ID
        where it is no class yet)."""
        ball = self._offsets ^ word
        group: dict[int, int] = {}
        inv = np.fromiter([group.setdefault(cid, len(group)) for cid in self._key_id[ball].tolist()],
                          dtype=np.int64, count=len(ball))
        old = np.fromiter(group, dtype=np.int64, count=len(group))
        fps = self._fp[old] ^ self._mark[word]
        new = np.fromiter([self._ids.get(fp, _NO_ID) for fp in fps.tolist()], dtype=np.int64, count=len(old))
        return ball, inv, old, np.bincount(inv), fps, new

    def _move_ball(self, grouped) -> np.ndarray:
        """Move each class K of B(word) to K ^ {word}, given _group(word);
        return each K's count left outside the ball.  Emptied classes are
        freed: a collision can make one a target, and no target is empty."""
        self._scores = self._removing = None
        ball, inv, old, moved, fps, new = grouped
        self._count[old] = left = self._count[old] - moved  # the old ids are distinct, as are the new
        missing = (new == _NO_ID).nonzero()[0]
        if len(missing):
            self._top -= len(missing)
            new[missing] = cids = self._free[self._top:self._top + len(missing)]
            self._fp[cids] = fps[missing]
            self._ids.update(zip(fps[missing].tolist(), cids.tolist()))
        size = self._count[new]  # after the old update: under a collision a new id can be an old one
        self.ns += int(moved @ (size - left))
        self._count[new] = size + moved
        self._key_id[ball] = new[inv]
        dead = old[(self._count[old] == 0) & (old != _EMPTY_ID)]
        if len(dead):
            for fp in self._fp[dead].tolist():
                del self._ids[fp]
            self._free[self._top:self._top + len(dead)] = dead
            self._top += len(dead)
        return left

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
        ball, inv, old, moved, _, _ = grouped = self._group(word)
        left = self._move_ball(grouped)
        if self._delta is not None:  # the old classes are those of the table without `word`
            (t, lin), (t0, p) = self._terms(ball, inv, old, moved, left), self._delta
            t0 -= t  # in place, as is P: every vector handed out is a copy
            p += t * (t - (1 + int(moved @ (old == _EMPTY_ID)))) - lin

    def remove(self, word: int) -> None:
        """Remove a codeword."""
        _, _, gone, grouped, _, terms = self._removal(word, self._delta is not None)
        if terms is not None:  # as swap_deltas(word) left them, or afresh
            (t, lin), (t0, p) = terms, self._delta
            t0 += t
            p += lin - t * (t - (1 + gone))
        self._move_ball(grouped)
        self._word_mask[word] = False
        self.size -= 1

    def add_delta_all(self) -> np.ndarray:
        """f-delta of adding each word of F^n as a fresh codeword.

        Entries at current codewords are meaningless; mask them out.  A new
        codeword s splits each class K into its t_K vertices in B(s) and
        the rest, so delta = -sum_K t_K (|K| - t_K) - t_empty
        = V + P + T0 (T0 - nc - 2), where over B(s) T0 counts the uncovered
        vertices and P = 2 Q - Cn, Cn summing the covered ones' class sizes
        and Q counting the pairs sharing a nonempty class.  add and remove
        keep T0 and P current at O(2^n) per move; the vector is formed once
        per mutation.
        """
        return self._score_vectors()[0].copy()

    def swap_deltas(self, word: int) -> np.ndarray:
        """f(C - m + s) - f(C) for each word s, m the codeword `word`.

        Without touching the table: removing m makes T0 + t and
        P + lin - t (t - 1 - L) (see _terms), so by the add_delta_all
        formula the score is A + remove_delta(m) - L T0 + t (2 T0 - nc - 1)
        + lin, with A = add_delta_all() and 2 T0 - nc - 1 kept until the
        next mutation.  Entries at codewords, m included, are meaningless;
        mask them out.  A remove(word) before any other mutation applies
        this grouping and scatter as they are.
        """
        a, b = self._score_vectors()
        _, d_remove, gone, _, _, (t, lin) = self._removal(word, True)
        out = a + t * b
        out += lin + d_remove
        if gone:
            out -= gone * self._delta[0]
        return out

    def _score_vectors(self):
        if self._delta is None:
            self._start_tracking()
        if self._scores is None:
            (t0, p), nc = self._delta, self.nc
            self._scores = a, b = (t0 - (nc + 2)) * t0, t0 * 2
            a += p + len(self._offsets)
            b -= nc + 1
        return self._scores

    def _start_tracking(self) -> None:
        # T0 and P depend only on the classes, so adding the codewords to an
        # empty table, where T0 = V and P = 0, rebuilds them
        replay = SignatureTable(self.dim, self.radius)
        replay._delta = (np.full(1 << self.dim, len(self._offsets)), np.zeros(1 << self.dim, dtype=np.int64))
        replay._slot = np.zeros(len(self._count), dtype=np.int32)  # _terms' scratch, zero between calls
        for word in self.words():
            replay.add(word)
        self._delta, self._slot = replay._delta, replay._slot

    def _terms(self, ball, inv, base, k1, k2):
        """(t, lin) of one codeword over each B(s): adding it changes T0 by
        -t and P by t (t - 1 - L) - lin; removing it undoes that.

        ball[i] is in class base[inv[i]] of the table without the codeword,
        class j has k1[j] members in the ball and k2[j] outside it, and the
        codeword splits each nonempty class into those parts.  t counts the
        L uncovered vertices of the ball in B(s); lin = 2 cross - shrunk,
        shrunk summing the part each covered vertex in B(s) loses and cross
        counting the pairs in B(s) across the ball's boundary that did share
        a class.  One scatter of the rows gives t and -shrunk, and the cross
        pairs add theirs.
        """
        n_verts = 1 << self.dim
        uncovered, slot = base == _EMPTY_ID, self._slot
        slot[base] = np.arange(1, len(base) + 1, dtype=np.int32)
        slot[_EMPTY_ID] = 0
        member = slot[self._key_id]  # 0 on the ball unless fingerprints collide
        slot[base] = 0
        outside = member.nonzero()[0]
        weight = -k2
        weight[uncovered] = 1
        # the rows of the uncovered vertices land in the second third, t
        rows, weight = ball ^ (uncovered * n_verts)[inv], weight[inv]
        out = np.zeros(3 * n_verts, dtype=np.int64)  # the last third takes the pads of _meets
        if len(outside):
            jo = member[outside] - 1
            ia, ib = (inv[:, None] == jo).nonzero()  # jo holds no uncovered class
            a = ball[ia]
            index, blocks = _meets(self.dim, self.radius)
            row = index[a ^ outside[ib]]
            for shift, block in blocks:
                np.add.at(out, a[:, None] ^ block.take(row - shift, axis=0, mode="clip"), 2)
            rows, weight = np.concatenate((rows, outside)), np.concatenate((weight, -k1[jo]))
        np.add.at(out, (rows[:, None] ^ self._offsets).ravel(), weight.repeat(len(self._offsets)))
        return out[n_verts:2 * n_verts], out[:n_verts]

    def _removal(self, word: int, terms: bool = False):
        """[word, remove_delta(word), L, _group(word), the size of each
        K - {word}, their _terms once asked for], kept until a mutation.

        Each class K of B(word) lies inside the ball and merges with
        K - {word} (size 0 if no class yet) outside it: |K| |K - {word}| new
        pairs, and L = |K| uncovered vertices if K - {word} is empty.
        """
        self._require(word, True)
        if self._removing is None or self._removing[0] != word:
            _, _, _, moved, _, new = grouped = self._group(word)
            size = self._count[new]
            gone = int(moved @ (new == _EMPTY_ID))
            self._removing = [word, int(moved @ size) + gone, gone, grouped, size, None]
        removing = self._removing
        if terms and removing[5] is None:
            ball, inv, _, moved, _, new = removing[3]
            removing[5] = self._terms(ball, inv, new, moved, removing[4])
        return removing

    def remove_delta(self, word: int) -> int:
        """f(C - word) - f(C) for a codeword (see _removal)."""
        return self._removal(word)[1]

    def remove_delta_all(self) -> np.ndarray:
        """remove_delta of every codeword w, as a vector over F^n whose other
        entries are meaningless: as in _removal, each v in B(w) adds the size
        of the class at fingerprint fp(v) ^ mark(w), and 1 if that is 0."""
        live = np.flatnonzero(self._count)  # the empty class only while nc > 0
        live = live[self._fp[live].argsort()]
        keys, sizes, fp = self._fp[live], self._count[live], self._fp[self._key_id]
        words = np.flatnonzero(self._word_mask)
        marks = self._mark[words]
        total = np.zeros(len(words), dtype=np.int64)
        for off in self._offsets:
            q = fp[words ^ off] ^ marks
            at = keys.searchsorted(q)
            total += np.where(keys.take(at, mode="clip") == q, sizes.take(at, mode="clip"), 0) + (q == 0)
        out = np.zeros(1 << self.dim, dtype=np.int64)
        out[words] = total
        return out

    def check(self) -> None:
        """Assert the classes, counts, fingerprints and ns against an exact
        recount of every cover set from the codewords."""
        assert self.size == np.count_nonzero(self._word_mask), "stale size"
        cover = [set() for _ in range(1 << self.dim)]
        for w in self.words():
            for v in (self._offsets ^ w).tolist():
                cover[v].add(w)
        classes: dict[int, frozenset[int]] = {}  # class id -> its one exact cover set
        for v, cid in enumerate(self._key_id.tolist()):
            assert classes.setdefault(cid, frozenset(cover[v])) == cover[v], f"class {cid} mixes cover sets"
        assert len(set(classes.values())) == len(classes), "a cover set is split over classes"
        counted = Counter(self._key_id.tolist())
        for cid, key in classes.items():
            fp = np.bitwise_xor.reduce(self._mark[sorted(key)])  # 0 for the empty set, as for id 0
            assert self._count[cid] == counted[cid] and self._fp[cid] == fp, f"stale class {cid}"
        live = {(int(self._fp[cid]), cid) for cid in classes} | {(0, _EMPTY_ID)}
        assert set(self._ids.items()) == live, "the fingerprint map disagrees with the classes"
        assert not set(self._free[: self._top].tolist()) & set(self._ids.values()), "a live id is free"
        assert self.ns == sum(_pairs(c) for c in counted.values())


@cache
def _meets(dim: int, radius: int):
    """(index, blocks): B(a) ∩ B(b) = a ^ row(a ^ b), row(d) holding the
    offsets o of B_radius with |o ^ d| <= radius, V (V - 1) in all.  Rows of
    one width (it depends only on |d|) form a block (shift, rows) between
    two rows of the pad 2^(dim+1), which puts a ^ pad past F^dim.  index[d]
    numbers the rows from 1, block after block, or is 0: no row for d = 0
    or |d| > 2 radius (a fingerprint collision).  block.take(index[d] -
    shift, mode "clip") is d's row in its block and a pad row in others."""
    offs = ball_offsets(dim, radius).astype(np.int64)
    d = (offs[:, None] ^ offs).ravel()
    width = np.bincount(d, minlength=1 << dim)
    width[0] = 0
    o = np.repeat(offs, len(offs))[np.lexsort((d, -width[d]))].astype(np.int32)  # by row, widest first
    index = np.zeros(1 << dim, dtype=np.int32)
    blocks, shift = [], 0
    for w in sorted(set(width.tolist()) - {0}, reverse=True):
        rows = np.flatnonzero(width == w)
        index[rows] = np.arange(shift + 1, shift + len(rows) + 1)
        pad = np.full((1, w), 2 << dim, dtype=np.int32)
        blocks.append((shift, np.concatenate((pad, o[:len(rows) * w].reshape(-1, w), pad))))
        o, shift = o[len(rows) * w:], shift + len(rows)
    for arr in (index, *(b for _, b in blocks)):
        arr.flags.writeable = False
    return index, tuple(blocks)


def _marks(k: int) -> np.ndarray:
    """k random odd 32-bit fingerprint marks, one per codeword."""
    return (np.random.PCG64(_FP_SEED).random_raw(k) | np.uint64(1)).astype(np.uint32)


@cache
def _table_marks(dim: int) -> np.ndarray:
    """SignatureTable's random odd 64-bit mark of each word of F^dim."""
    marks = np.random.PCG64(_TABLE_FP_SEED).random_raw(1 << dim) | np.uint64(1)
    marks.flags.writeable = False
    return marks


def _fingerprints(words: np.ndarray, marks: np.ndarray, offs: np.ndarray, n_verts: int) -> np.ndarray:
    """Each vertex's XOR of the marks of the codewords within its ball: one
    XOR pass per ball offset, as each column words ^ offset is duplicate-free."""
    fp = np.zeros(n_verts, dtype=marks.dtype)
    col = np.empty(len(words), dtype=np.intp)  # the index dtype: no cast per scatter
    hit = np.empty(len(words), dtype=marks.dtype)
    for off in offs:
        np.bitwise_xor(words, off, out=col)
        np.take(fp, col, out=hit, mode="clip")  # in range anyway; "clip" skips a buffered check
        hit ^= marks
        fp[col] = hit
    return fp


def _cover_pairs(words: np.ndarray, live: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """The sorted pairs vertex << 32 | codeword index of the vertices marked
    `live` and the codewords in their balls, one pass per ball offset from
    the smaller side: the candidates probe a map of codeword index + 1, or
    the codewords probe `live`."""
    small = np.count_nonzero(live) < len(words)
    probe, rank = (np.flatnonzero(live), np.zeros(len(live), dtype=np.int32)) if small else (words, live)
    if small:
        rank[words] = np.arange(1, len(words) + 1, dtype=np.int32)
    found = []
    for off in offs:
        col = probe ^ off
        hit = rank[col]
        at = np.flatnonzero(hit)
        vertex, index = (probe[at], hit[at] - 1) if small else (col[at], at)
        found.append(vertex.astype(np.uint64) << 32 | index.astype(np.uint64))
    found = np.concatenate(found)
    found.sort()
    return found


def _evaluate_static(words: np.ndarray, n: int, r: int, odd_targets: bool = False):
    """nc/ns over the target vertices (all of F^n, or its odd-weight half),
    plus witnesses following ``VerifyReport``'s rule.

    Per ball offset, the duplicate-free column words ^ offset XORs the
    codewords' random marks into a 32-bit fingerprint per vertex.  Equal
    cover sets give equal fingerprints and only covered vertices nonzero
    ones, so if no target is at zero and an in-place sort of the rest finds
    no repeat, the pass ends.  Otherwise (a failing code, or chance repeats:
    about 130 at n = 20, 510 at n = 21) _cover_pairs collects the (vertex,
    codeword index) pairs of the candidates, the targets at zero and those
    whose low n bits match a repeat's: at most len(words) * V pairs, which
    give each covered candidate its exact cover set as a row.  np.unique over
    the rows of each length gives the classes, and a candidate with no row is
    uncovered: no count or witness rests on a fingerprint.
    """
    if n > MAX_EVAL_DIM:
        raise ValueError(f"dimension {n} exceeds MAX_EVAL_DIM = {MAX_EVAL_DIM} for static evaluation")
    n_verts = 1 << n
    offs = ball_offsets(n, r)
    fp = _fingerprints(words, _marks(len(words)), offs, n_verts)
    targets = odd_mask(n) if odd_targets else True
    zero = (fp == 0) & targets  # uncovered, unless their marks cancel out
    live = (fp != 0) & targets
    dup = fp[live]
    dup.sort()
    dup = dup[1:][dup[1:] == dup[:-1]]
    if not len(dup) and not zero.any():
        return 0, 0, None, None
    # candidates: the targets at fingerprint 0, and those that share their low n bits with a repeat
    bucket = np.zeros(n_verts, dtype=bool)
    bucket[dup & (n_verts - 1)] = True
    live &= bucket[fp & (n_verts - 1)]
    live |= zero
    found = _cover_pairs(words, live, offs)
    cand, start, size = np.unique(found >> 32, return_index=True, return_counts=True)
    zero[cand] = False  # now exactly the uncovered targets
    nc = int(np.count_nonzero(zero))
    ns = _pairs(nc)  # the uncovered vertices form one exact class
    uncovered = int(np.argmax(zero)) if nc else None
    pair = (uncovered, uncovered + 1 + int(np.argmax(zero[uncovered + 1:]))) if nc >= 2 else None
    member = found.astype(np.uint32)  # the low half: the codeword index
    label = np.empty(len(cand), dtype=np.int64)  # a class is a size and a row
    for k in np.unique(size):
        sel = size == k
        _, inv = np.unique(member[start[sel, None] + np.arange(k)], axis=0, return_inverse=True)
        label[sel] = inv.reshape(-1) * (len(offs) + 1) + k
    _, inv, counts = np.unique(label, return_inverse=True, return_counts=True)
    ns += int((counts * (counts - 1) // 2).sum())
    if pair is None:
        shared = np.flatnonzero(counts[inv] >= 2)
        if len(shared):
            pair = tuple(int(v) for v in cand[inv == inv[shared[0]]][:2])
    return nc, ns, uncovered, pair


@dataclass(frozen=True)
class VerifyReport:
    """The static verdict on one code: nc, ns and canonical witnesses.

    ``uncovered`` is the smallest uncovered vertex.  ``unseparated`` is the
    two smallest uncovered vertices if there are at least two; otherwise
    the two smallest members of the exact cover-set class holding the
    smallest unseparated covered vertex.  Each is None when none exists.
    """

    dim: int
    radius: int
    size: int
    nc: int
    ns: int
    uncovered: int | None
    unseparated: tuple[int, int] | None

    @property
    def f(self) -> int:
        return self.nc + self.ns

    @property
    def identifying(self) -> bool:
        return self.f == 0


def diagnose(code: Code, radius: int) -> VerifyReport:
    """The exact nc, ns and witnesses of `code` over all of F^n."""
    return VerifyReport(code.dim, radius, len(code), *_evaluate_static(code.array, code.dim, radius))


def is_identifying(code: Code, radius: int) -> bool:
    """True iff every vertex has a nonempty, unique cover set."""
    return diagnose(code, radius).identifying
