"""Shared fixtures and two independent evaluation oracles.

The package computes nc (uncovered vertices), ns (vertex pairs sharing a
cover set) and f = nc + ns along two production paths (incremental table,
vectorized static pass).  The tests check both against two more
implementations written here from scratch with different techniques:

* ``brute_eval`` — pure Python over frozensets, no numpy, no shared code;
* ``bitmatrix_eval`` — numpy boolean membership matrix grouped through
  ``np.unique``, no fingerprints.

``brute_report`` extends the brute force to odd-vertex targets and to the
canonical witnesses that ``diagnose`` and ``discriminating_report`` report.

``reference_parse`` is the per-token code-file reader that the vectorized
``codefile.parse_code_text`` replaced, and ``reference_serialize`` the
one-``str()``-per-word writer that ``codefile.serialize_code`` replaced;
the code-file tests compare against both.

The two oracles are also cross-checked against each other, so a mistake
in any one implementation cannot silently define correctness.

The table's maintained add-delta vector gets its own oracles, which read
only the table's class ids and class sizes: ``full_add_delta_all``
re-scores every candidate from scratch (gather each ball's class ids and
row-sort them), and ``scalar_add_delta`` scores one candidate by counting.
``full_swap_deltas`` stands in for ``SignatureTable.swap_deltas``: it
removes the codeword for real, runs the full pass, and puts it back.
``replay_tracking`` is how the table first started its scores, T0 and P:
it adds every codeword to an empty table that tracks them from the start.
Its moves assume that no class merges and no covered vertex reads as
uncovered, so under forced fingerprint collisions it can drift from the
classes, which ``full_add_delta_all`` reads as they are.
``cover_set`` and ``class_counts`` read a table's classes through the
brute-force cover sets of their vertices, and ``collide_table_marks``
forces fingerprint collisions on the table.

``parity_extend`` and ``delete_coordinate`` are the parity bridge one int
word at a time, the reference for ``convert``'s numpy path, and
``even_words`` lists the even half of F^n.

``reference_prune`` is the pruning that ``heuristics.prune`` replaced: a
fresh table per restart, and passes over the whole code repeated until
one removes nothing.

``ReferenceSearcher`` is the exact search that decided each child only
after recursing into it; the exact tests require identical outcomes and
node counts from the production loop.  ``reference_canonical`` is its
lex-leader test, the first one: a sorted() image per permutation, from
permutation tables built in plain Python, where the production search
sorts every image at once in numpy.

One Hypothesis profile serves the whole suite: no deadline (the examples
build tables and search, so their times vary with the machine) and a
reproduction blob printed with every failure.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from idcodes import Code, signatures
from idcodes.codefile import CodeFile, CodeFileError
from idcodes.exact import _CANONICAL_DEPTH, BudgetExhausted, _Searcher
from idcodes.signatures import SignatureTable, diagnose

settings.register_profile("idcodes", deadline=None, print_blob=True)
settings.load_profile("idcodes")


def brute_cover_sets(words, n, r):
    """vertex -> frozenset of covering codewords, by direct distance."""
    out = {}
    for v in range(1 << n):
        out[v] = frozenset(c for c in words if bin(v ^ c).count("1") <= r)
    return out


def brute_eval(words, n, r):
    """(nc, ns) the slow, obvious way: group cover sets, count collisions."""
    cover = brute_cover_sets(words, n, r)
    nc = sum(1 for s in cover.values() if not s)
    groups = Counter(cover.values())
    ns = sum(k * (k - 1) // 2 for k in groups.values())
    return nc, ns


def brute_report(words, n, r, odd_only=False):
    """(nc, ns, uncovered, unseparated) over all vertices, or only the odd
    ones, straight from the cover sets.  The witnesses follow the canonical
    rule: the smallest uncovered vertex; the two smallest uncovered ones if
    there are two, else the two smallest members of the class holding the
    smallest unseparated covered vertex."""
    cover = brute_cover_sets(words, n, r)
    verts = [v for v in range(1 << n) if not odd_only or bin(v).count("1") % 2]
    empty = [v for v in verts if not cover[v]]
    classes = {}
    for v in verts:
        if cover[v]:
            classes.setdefault(cover[v], []).append(v)
    ns = sum(k * (k - 1) // 2 for k in [len(empty)] + [len(c) for c in classes.values()])
    shared = [c for c in classes.values() if len(c) >= 2]
    if len(empty) >= 2:
        pair = (empty[0], empty[1])
    else:
        pair = tuple(min(shared)[:2]) if shared else None
    return len(empty), ns, (empty[0] if empty else None), pair


def bitmatrix_eval(words, n, r):
    """(nc, ns) via a boolean matrix and np.unique row grouping."""
    verts = np.arange(1 << n, dtype=np.uint32)
    w = np.asarray(sorted(words), dtype=np.uint32)
    member = np.bitwise_count(verts[:, None] ^ w[None, :]) <= r
    nc = int((~member.any(axis=1)).sum())
    _, counts = np.unique(member, axis=0, return_counts=True)
    ns = int(sum(int(k) * (int(k) - 1) // 2 for k in counts))
    return nc, ns


def oracle_eval(words, n, r):
    """Cross-checked ground truth for (nc, ns)."""
    got = bitmatrix_eval(words, n, r)
    if n <= 6:
        assert brute_eval(words, n, r) == got, "test oracles disagree"
    return got


def oracle_identifying(words, n, r):
    nc, ns = oracle_eval(words, n, r)
    return nc + ns == 0


def parity_extend(word):
    """word with its parity bit appended as the new last coordinate."""
    return (word << 1) | (word.bit_count() & 1)


def delete_coordinate(word, pos, dim):
    """word of F^dim without its coordinate pos (1-based, 1 = most
    significant), the other coordinates kept in order."""
    if dim < 2 or not 1 <= pos <= dim:
        raise ValueError(f"cannot delete coordinate {pos} of F^{dim}")
    low_bits = dim - pos  # bits strictly below the deleted coordinate
    return ((word >> (low_bits + 1)) << low_bits) | (word & ((1 << low_bits) - 1))


def even_words(dim):
    """The even-weight words of F^dim, increasing."""
    return [w for w in range(1 << dim) if w.bit_count() % 2 == 0]


def full_add_delta_all(table):
    """f-delta of adding each word of F^n, by a full pass over all balls.

    A new codeword splits each cover-set class K into the part inside its
    ball (t_K vertices) and the rest, so delta_ns = -sum_K t_K (|K| - t_K)
    and delta_nc = -t_empty.  Row-sorting the gathered class ids turns
    sum_K t_K^2 into V + 2 * (equal neighbour pairs within runs).
    """
    verts = np.arange(1 << table.dim, dtype=np.uint32)
    g = table._key_id[verts[:, None] ^ table._offsets[None, :]]
    cs = table._count[g].sum(axis=1)
    t_empty = (g == 0).sum(axis=1)
    gs = np.sort(g, axis=1)
    eq = gs[:, 1:] == gs[:, :-1]
    run = np.cumsum(eq, axis=1)
    resets = np.where(eq, 0, run)
    run -= np.maximum.accumulate(resets, axis=1)
    eq_pairs = run.sum(axis=1)
    t_sq = g.shape[1] + 2 * eq_pairs  # sum_K t_K^2 over each ball
    return t_sq - cs - t_empty


def full_swap_deltas(table, word):
    """f(C - m + s) - f(C) for each word s, m the codeword `word`: the
    f-change of removing m plus the full pass after it.  m is added back,
    so the table ends with the same code."""
    f_before = table.f
    table.remove(word)
    out = table.f - f_before + full_add_delta_all(table)
    table.add(word)
    return out


def replay_tracking(table):
    """A table of the same code whose ``_delta`` holds (T0, P), made by adding
    the codewords one by one to an empty table, whose own start gives T0 = V
    and P = 0."""
    replay = SignatureTable(table.dim, table.radius)
    replay._start_tracking()
    for word in table.words():
        replay.add(word)
    return replay


def reference_prune(code, r, restarts=16, seed=0):
    """Random-order removal passes, repeated until none removes a word, on
    a table built afresh for each restart; the smallest result wins."""
    if diagnose(code, r).f != 0:
        raise ValueError(f"input code is not {r}-identifying")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    best = code
    for _ in range(restarts):
        table = SignatureTable.build(code, r)
        order = [int(i) for i in rng.permutation(len(code.words))]
        words = [code.words[i] for i in order]
        changed = True
        while changed:
            changed = False
            for w in words:
                if not table.word_mask[w]:
                    continue
                if table.size > 1 and table.remove_delta(w) == 0:
                    table.remove(w)
                    changed = True
        result = table.code()
        if len(result) < len(best):
            best = result
    return best


@functools.cache
def reference_images(n):
    """One list per coordinate permutation of F^n but the identity: word ->
    its image, with bit j moved to bit p[j]."""
    others = itertools.islice(itertools.permutations(range(n)), 1, None)
    return [[sum(((w >> j) & 1) << p[j] for j in range(n)) for w in range(1 << n)]
            for p in others]


def reference_canonical(words, n):
    """The first lex-leader test: one sorted() image per permutation,
    compared as a list with the increasing words."""
    ref = list(words)
    for table in reference_images(n):
        if sorted(table[w] for w in words) < ref:
            return False
    return True


class ReferenceSearcher(_Searcher):
    """The exact search as it first stood: the parent splits each class by
    the child's ball and builds the child's class list, recurses, and only
    then does the child test itself against every rule.  Its lex-leader
    test is ``reference_canonical``."""

    def _canonical(self, words):
        return reference_canonical(words, self.n)

    def _feasible(self, classes, uncov, remaining, rmask):
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
            elif pu > limit - 1 or pu > remaining * self.vol:
                return False
            stuck = 0
            m = uncov
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if cover[v] & rmask == 0:
                    stuck += 1
                    if stuck >= 2 or not self.allow_one_uncovered:
                        return False
            if pu >= 2:
                u = (uncov & -uncov).bit_length() - 1
                rest = uncov & (uncov - 1)
                v = (rest & -rest).bit_length() - 1
                if (cover[u] ^ cover[v]) & rmask == 0:
                    return False
        return True

    def _dfs(self, lo, words, classes, uncov, remaining):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExhausted
        if remaining == 0:
            ok_uncov = uncov == 0 or (self.allow_one_uncovered and uncov.bit_count() == 1)
            return words if not classes and ok_uncov else None
        if not self._feasible(classes, uncov, remaining, self.suffix[lo]):
            return None
        for j in range(lo, len(self.cands) - remaining + 1):
            ball = self.ballmask[j]
            new_classes = []
            for c in classes:
                for piece in (c & ball, c & ~ball):
                    if piece.bit_count() >= 2:
                        new_classes.append(piece)
            fresh = uncov & ball
            if fresh.bit_count() >= 2:
                new_classes.append(fresh)
            new_words = words + (self.cands[j],)
            if self.images is not None and len(new_words) - 1 <= _CANONICAL_DEPTH:
                if not self._canonical(new_words):
                    continue
            hit = self._dfs(j + 1, new_words, new_classes, uncov & ~ball, remaining - 1)
            if hit is not None:
                return hit
        return None

    def search_size(self, size):
        ball0 = self.ballmask[0]
        classes = [ball0] if ball0.bit_count() >= 2 else []
        return self._dfs(1, (0,), classes, self.targets & ~ball0, size - 1)


def scalar_add_delta(table, word):
    """f(C + word) - f(C) for one non-codeword, by counting classes."""
    assert not table.word_mask[word]
    t = Counter(table._key_id[table._offsets ^ np.uint32(word)].tolist())
    delta = -t.get(0, 0)
    for cid, tk in t.items():
        delta -= tk * (int(table._count[cid]) - tk)
    return delta


def _class_keys(table):
    """class id -> the one brute-force cover set of all its vertices."""
    cover = brute_cover_sets(table.words(), table.dim, table.radius)
    keys = {}
    for v, cid in enumerate(table._key_id.tolist()):
        assert keys.setdefault(cid, cover[v]) == cover[v], f"class {cid} mixes cover sets"
    return keys


def cover_set(table, vertex):
    """The codewords within the radius of this vertex, read as the cover
    set shared by every vertex of its class."""
    return _class_keys(table)[int(table._key_id[vertex])]


def class_counts(table):
    """Each distinct cover set held by some vertex, with the vertex count
    of its class."""
    out = {}
    for cid, key in _class_keys(table).items():
        assert key not in out, "a cover set is split over classes"
        out[key] = int(table._count[cid])
    return out


def collide_table_marks(monkeypatch, flat=False):
    """Patch SignatureTable's word marks so that distinct cover sets share
    fingerprints.  By default mark(15) = mark(0) ^ mark(3) ^ mark(12), so
    {0, 3} and {12, 15}, among others, collide; with ``flat`` every mark is
    one and a fingerprint is only the parity of the cover count."""
    table_marks = signatures._table_marks

    def marks(dim):
        if flat:
            return np.ones(1 << dim, dtype=np.uint64)
        out = table_marks(dim).copy()
        out[15] = out[0] ^ out[3] ^ out[12]
        return out

    monkeypatch.setattr(signatures, "_table_marks", marks)


_REFERENCE_HEADER = re.compile(r"^n=(\d+)\s+r=(\d+)$")


def reference_parse(text):
    """Line by line, token by token, with a set of the words seen so far.
    Besides non-ASCII digits and dimensions above MAX_DIM, which it lets
    through, it fixes the result, line number and message of every input."""
    lines = text.splitlines()
    dim = radius = None
    words = []
    seen = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            m = _REFERENCE_HEADER.match(line)
            if not m:
                raise CodeFileError(line_no, f"expected 'n=<dim> r=<radius>', got {line!r}")
            dim, radius = int(m.group(1)), int(m.group(2))
            if dim < 1:
                raise CodeFileError(line_no, "dim must be positive")
            continue
        for tok in line.split():
            if not tok.isdigit():
                raise CodeFileError(line_no, f"expected a decimal codeword, got {tok!r}")
            word = int(tok)
            if word >= (1 << dim):
                raise CodeFileError(line_no, f"codeword {word} out of range for n={dim}")
            if word in seen:
                raise CodeFileError(line_no, f"duplicate codeword {word}")
            seen.add(word)
            words.append(word)
    if dim is None:
        raise CodeFileError(max(len(lines), 1), "missing header line 'n=<dim> r=<radius>'")
    if not words:
        raise CodeFileError(len(lines) or 1, "no codewords")
    return CodeFile(Code(dim, tuple(sorted(words))), radius)


def reference_serialize(code, radius, comments=()):
    """The header, one ``# `` line per comment, then one decimal line per word."""
    out = [f"n={code.dim} r={radius}"]
    out.extend(f"# {c}" for c in comments)
    out.extend(str(w) for w in code.words)
    return "\n".join(out) + "\n"


def random_code(rng, n, kmin=2, kmax=None):
    kmax = kmax or min(12, 1 << n)
    k = int(rng.integers(kmin, kmax + 1))
    words = sorted(rng.choice(1 << n, size=k, replace=False).tolist())
    return Code.from_words(words, n)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


# -- acceptance criterion reporting -------------------------------------------

_CRITERIA = {
    1: "exact minima reproduction",
    2: "shipped 114-word code verifies and matches the tabulated upper bound",
    3: "separating-code fixtures and exact separating minima",
    4: "identifying <-> discriminating conversion round trips",
    5: "discriminating minimum in F^(n+1) equals identifying minimum in F^n",
    6: "extension constructions verify over a parameter matrix",
    7: "greedy annulus cover reproduces the five-vector oracle",
    8: "incremental engine equals full recompute over random swap sequences",
    9: "heuristics reach known sizes within budget",
    10: "bounds registry internal consistency",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = []
    for key in ("passed", "failed", "error"):
        reports.extend(terminalreporter.stats.get(key, []))
    results = {}
    for rep in reports:
        if getattr(rep, "when", "call") != "call":
            continue
        name = rep.nodeid.rsplit("::", 1)[-1]
        if not name.startswith("test_criterion_"):
            continue
        try:
            num = int(name.split("_")[2])
        except (IndexError, ValueError):
            continue
        ok = rep.outcome == "passed"
        results[num] = ok and results.get(num, True)
    if not results:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(results):
        verdict = "PASS" if results[num] else "FAIL"
        tw.write_line(f"ACCEPTANCE {num}: {verdict} - {_CRITERIA.get(num, '')}")
