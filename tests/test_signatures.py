import tracemalloc
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Code, bounds, extend, full_space, heuristics, signatures
from idcodes.codefile import parse_code_text, read_code_file, write_code_file
from idcodes.convert import discriminating_report, to_discriminating
from idcodes.extend import extend_c1
from idcodes.hypercube import ball_offsets
from idcodes.signatures import (
    MAX_EVAL_DIM,
    MAX_TABLE_DIM,
    NotIdentifyingError,
    SignatureTable,
    diagnose,
    is_identifying,
)

from conftest import (
    brute_cover_sets,
    brute_report,
    class_counts,
    collide_table_marks,
    cover_set,
    full_add_delta_all,
    full_swap_deltas,
    oracle_eval,
    random_code,
    replay_tracking,
    scalar_add_delta,
)


def grid():
    cases = []
    for n in range(2, 7):
        for r in range(0, n + 1):
            cases.append((n, r))
    return cases


class TestEvaluateAgainstOracles:
    @pytest.mark.parametrize("n,r", grid())
    def test_random_codes_match_oracles(self, n, r, rng):
        for _ in range(8):
            code = random_code(rng, n)
            want_nc, want_ns = oracle_eval(code.words, n, r)
            got = diagnose(code, r)
            assert (got.nc, got.ns) == (want_nc, want_ns)
            assert got.f == want_nc + want_ns

    def test_single_codeword_radius_zero(self):
        # one codeword, r=0: only that vertex is covered, every other
        # vertex shares the empty cover set
        n = 4
        got = diagnose(Code.from_words([5], n), 0)
        empties = (1 << n) - 1
        assert got.nc == empties
        assert got.ns == empties * (empties - 1) // 2

    def test_full_space_large_radius(self):
        # radius n makes all cover sets equal: every pair collides
        n = 3
        got = diagnose(full_space(n), n)
        assert got.nc == 0
        assert got.ns == 8 * 7 // 2

    def test_known_separating_not_identifying(self):
        # {000, 001, 100} covers all of F^3 except 111 at r=1
        rep = diagnose(Code.from_words([0, 1, 4], 3), 1)
        assert rep.nc == 1
        assert rep.uncovered == 7
        assert not rep.identifying

    def test_radius_out_of_range(self):
        with pytest.raises(ValueError):
            diagnose(Code.from_words([0], 3), 4)
        with pytest.raises(ValueError):
            diagnose(Code.from_words([0], 3), -1)


class TestDiagnoseWitnesses:
    @pytest.mark.parametrize("n,r", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2)])
    def test_witnesses_are_real(self, n, r, rng):
        for _ in range(10):
            code = random_code(rng, n)
            rep = diagnose(code, r)
            cover = brute_cover_sets(code.words, n, r)
            if rep.nc > 0:
                assert rep.uncovered is not None
                assert not cover[rep.uncovered]
            else:
                assert rep.uncovered is None
            if rep.ns > 0:
                assert rep.unseparated is not None
                a, b = rep.unseparated
                assert a != b
                assert cover[a] == cover[b]
            else:
                assert rep.unseparated is None
            assert rep.identifying == (rep.nc + rep.ns == 0)

    def test_is_identifying_matches_oracle(self, rng):
        hits = 0
        for _ in range(60):
            code = random_code(rng, 4, kmin=5, kmax=12)
            got = is_identifying(code, 1)
            want_nc, want_ns = oracle_eval(code.words, 4, 1)
            assert got == (want_nc + want_ns == 0)
            hits += got
        assert hits > 0  # the sample must exercise both outcomes


def _random_words(rng, n, even=False):
    """A random code of F^n (even-weight words only if asked), anywhere
    from a single word to half the pool."""
    pool = np.arange(1 << n)
    if even:
        pool = pool[(np.bitwise_count(pool) & 1) == 0]
    k = int(rng.integers(1, len(pool) // 2 + 1))
    return sorted(rng.choice(pool, size=k, replace=False).tolist())


def _assert_real_witnesses(rep, words, n, r, odd_only=False):
    cover = brute_cover_sets(words, n, r)
    if rep.uncovered is not None:
        assert not cover[rep.uncovered]
    if rep.unseparated is not None:
        a, b = rep.unseparated
        assert a < b and cover[a] == cover[b]
    if odd_only:
        named = [rep.uncovered, *(rep.unseparated or ())]
        assert all(bin(v).count("1") % 2 for v in named if v is not None)


class TestCanonicalWitnesses:
    """The witnesses equal the brute-force oracle's canonical choice."""

    def test_diagnose(self, rng):
        branches = set()
        for _ in range(60):
            n = int(rng.integers(3, 11))
            r = int(rng.integers(1, 4))
            words = _random_words(rng, n)
            rep = diagnose(Code.from_words(words, n), r)
            want = brute_report(words, n, r)
            assert (rep.nc, rep.ns, rep.uncovered, rep.unseparated) == want
            branches.add("uncovered" if want[0] >= 2 else "class" if want[3] else "none")
        assert {"uncovered", "class"} <= branches

    def test_discriminating_report(self, rng):
        branches = set()
        for _ in range(40):
            n = int(rng.integers(3, 11))
            r = int(rng.choice([1, 3]))
            words = _random_words(rng, n, even=True)
            rep = discriminating_report(Code.from_words(words, n), r)
            want = brute_report(words, n, r, odd_only=True)
            assert (rep.nc, rep.ns, rep.uncovered, rep.unseparated) == want
            branches.add("uncovered" if want[0] >= 2 else "class" if want[3] else "none")
        assert {"uncovered", "class"} <= branches


def _report(rep):
    return rep.nc, rep.ns, rep.uncovered, rep.unseparated


def _shipped_1_9():
    return parse_code_text(resources.files("idcodes").joinpath("data/code_1_9_114.txt").read_text()).code


class TestExactPassSides:
    """The exact pass walks from the smaller side: a few candidates look
    their balls up in the sorted codewords (searchsorted), and many are
    found by the codewords probing the candidate mask.  Either way the
    counts and witnesses are the oracle's."""

    @pytest.mark.parametrize("case,side", [("near", "candidates"), ("sparse", "codewords")])
    def test_each_side_matches_brute_force(self, case, side, monkeypatch, rng):
        sides = []
        cover_pairs = signatures._cover_pairs

        def spy(words, live, offs):
            sides.append("candidates" if np.count_nonzero(live) < len(words) else "codewords")
            return cover_pairs(words, live, offs)

        monkeypatch.setattr(signatures, "_cover_pairs", spy)
        # 12-bit marks: chance repeats make candidates of vertices in distinct classes
        marks = signatures._marks
        monkeypatch.setattr(signatures, "_marks", lambda k: marks(k) & np.uint32(0xFFF))
        if case == "near":  # an identifying code minus one word, and its parity extension
            n, r = 9, 1
            words = list(_shipped_1_9().words[1:])
            even = to_discriminating(Code.from_words(words, n)).words
        else:  # sparse codes at a large radius: thousands of vertices share a cover set
            n, r = 14, 3
            words = sorted(rng.choice(1 << n, size=60, replace=False).tolist())
            even = [w for w in words if bin(w).count("1") % 2 == 0]
        rep = diagnose(Code.from_words(words, n), r)
        assert rep.ns > 0 and (rep.nc, rep.ns, rep.uncovered, rep.unseparated) == brute_report(words, n, r)
        dim = n + 1 if case == "near" else n
        rep = discriminating_report(Code.from_words(even, dim), r)
        assert rep.ns > 0
        assert (rep.nc, rep.ns, rep.uncovered, rep.unseparated) == brute_report(even, dim, r, odd_only=True)
        assert sides == [side, side]


class _NumpySpy:
    """numpy, but np.zeros records the size of each bool array it makes:
    the static pass makes exactly one, its candidate table."""

    def __init__(self):
        self.tables = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        if dtype is bool:
            self.tables.append(shape)
        return np.zeros(shape, dtype=dtype)


def _cover_witnesses_hold(rep, code):
    words = code.array.astype(np.int64)

    def cover(v):
        return words[np.bitwise_count(words ^ v) <= rep.radius]

    if rep.uncovered is not None:
        assert len(cover(rep.uncovered)) == 0
    if rep.unseparated is not None:
        a, b = rep.unseparated
        assert a < b and np.array_equal(cover(a), cover(b))


class TestCandidateTable:
    """The candidates pass a bool table of 2^bits entries at their
    fingerprints' low bits, bits = min(n, max(16, bit length of the repeat
    count + 4)).  Marks cut short make repeats enough to reach each size;
    the counts and witnesses stay those of the full marks (and of brute
    force where that is affordable)."""

    @staticmethod
    def _short(monkeypatch, code, r, mark_bits):
        """diagnose under marks cut to their low `mark_bits` bits, the table
        sizes it made, and the size the rule gives for its repeats."""
        marks = signatures._marks

        def short(k):  # the low bits of odd marks: still odd
            return marks(k) & np.uint32((1 << mark_bits) - 1)

        fp = signatures._fingerprints(code.array, short(len(code)), ball_offsets(code.dim, r), 1 << code.dim)
        fp = fp[fp != 0]
        repeats = len(fp) - len(np.unique(fp))
        spy = _NumpySpy()
        with monkeypatch.context() as m:
            m.setattr(signatures, "_marks", short)
            m.setattr(signatures, "np", spy)
            rep = diagnose(code, r)
        return rep, spy.tables, min(code.dim, max(16, repeats.bit_length() + 4))

    def test_bits_is_n_below_16(self, monkeypatch):
        words = list(_shipped_1_9().words[1:])
        code = Code.from_words(words, 9)
        rep, tables, bits = self._short(monkeypatch, code, 1, 6)
        assert tables == [1 << bits] and bits == 9
        assert rep.ns > 0 and _report(rep) == _report(diagnose(code, 1)) == brute_report(words, 9, 1)

    @pytest.mark.parametrize("mark_bits,grown", [(24, False), (14, True)])
    def test_bits_is_16_or_grows_past_it(self, mark_bits, grown, monkeypatch):
        # n = 17: 24-bit marks leave a few hundred repeats, 14-bit marks
        # almost every vertex, which a 16-bit table would let through whole
        code = extend_c1(_shipped_1_9(), 1, 8)
        damaged = Code(17, np.delete(code.array, 5000))
        for c in (code, damaged):
            rep, tables, bits = self._short(monkeypatch, c, 1, mark_bits)
            assert tables == [1 << bits] and (bits > 16 if grown else bits == 16)
            assert _report(rep) == _report(diagnose(c, 1))
            _cover_witnesses_hold(rep, c)
        assert diagnose(code, 1).identifying and not rep.identifying

    def test_bits_grows_below_n(self, monkeypatch):
        # n = 19 with 24-bit marks: thousands of repeats, a table past 16 bits but under 2^n
        code = extend_c1(_shipped_1_9(), 1, 10)
        damaged = Code(19, np.delete(code.array, 77))
        rep, tables, bits = self._short(monkeypatch, damaged, 1, 24)
        assert tables == [1 << bits] and 16 < bits < 19
        assert _report(rep) == _report(diagnose(damaged, 1)) and not rep.identifying
        _cover_witnesses_hold(rep, damaged)

    def test_verdicts_stay_small_at_n20_and_n21(self):
        # the identifying pass and the discriminating one through the
        # bijection: about 9 bytes a vertex of F^20 (9.0 MiB), and 0.9 MiB
        # more for the halved words; no 2^n temporary more, such as an
        # uncovered mask of a code that covers every vertex (1 MiB)
        code = extend_c1(_shipped_1_9(), 1, 11)
        disc = to_discriminating(code)
        for call, c, bound in ((diagnose, code, 9.5), (discriminating_report, disc, 10.4)):
            call(c, 1)  # warm the offset cache
            tracemalloc.start()
            try:
                rep = call(c, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.f == 0
            assert peak < bound * 2**20, f"{call.__name__} at n = {c.dim} peaked at {peak / 2**20:.1f} MiB"


class TestFingerprintCollisions:
    """With every mark equal to one, a fingerprint is just the parity of the
    cover count, so covered vertices collide wholesale and only the exact
    cover-set rows can get the counts and witnesses right."""

    @pytest.fixture(autouse=True)
    def _flat_marks(self, monkeypatch):
        monkeypatch.setattr(signatures, "_marks", lambda k: np.ones(k, dtype=np.uint64))

    @pytest.mark.parametrize("odd_only", [False, True])
    def test_counts_and_witnesses_stay_exact(self, odd_only, rng):
        merged_classes = 0
        for _ in range(30):
            n = int(rng.integers(3, 9))
            r = int(rng.choice([1, 3])) if odd_only else int(rng.integers(1, 4))
            words = _random_words(rng, n, even=odd_only)
            code = Code.from_words(words, n)
            want = brute_report(words, n, r, odd_only)
            if odd_only:
                rep = discriminating_report(code, r)
            else:
                rep = diagnose(code, r)
                assert (rep.nc, rep.ns) == oracle_eval(words, n, r)
                ev = diagnose(code, r)
                assert (ev.nc, ev.ns) == (rep.nc, rep.ns)
            assert (rep.nc, rep.ns, rep.uncovered, rep.unseparated) == want
            _assert_real_witnesses(rep, words, n, r, odd_only)
            cover = brute_cover_sets(words, n, r)
            targets = [v for v in range(1 << n)
                       if cover[v] and (not odd_only or bin(v).count("1") % 2)]
            parities = {len(cover[v]) % 2 for v in targets}
            merged_classes += len({cover[v] for v in targets}) > len(parities)
        assert merged_classes > 0  # the fingerprints alone would have been wrong

    def test_an_identifying_code_passes_without_distinct_fingerprints(self):
        rep = diagnose(_shipped_1_9(), 1)
        assert rep.identifying and (rep.nc, rep.ns, rep.unseparated) == (0, 0, None)

    @pytest.mark.parametrize("odd_only", [False, True])
    def test_zero_fingerprints_are_rechecked_exactly(self, odd_only, rng):
        # every target with an even cover count, not only the uncovered ones,
        # is left at fingerprint 0; the recheck must find which are covered
        seen = set()
        for _ in range(40):
            n = int(rng.integers(3, 8))
            r = int(rng.choice([1, 3])) if odd_only else int(rng.integers(1, 4))
            words = _random_words(rng, n, even=odd_only)
            cover = brute_cover_sets(words, n, r)
            counts = {len(cover[v]) for v in range(1 << n) if not odd_only or bin(v).count("1") % 2}
            seen.add(any(c and c % 2 == 0 for c in counts))
            code = Code.from_words(words, n)
            rep = discriminating_report(code, r) if odd_only else diagnose(code, r)
            assert (rep.nc, rep.ns, rep.uncovered, rep.unseparated) == brute_report(words, n, r, odd_only)
        assert seen == {False, True}  # covered targets at fingerprint 0, and none


class TestFingerprintSlices:
    """The static pass walks the codewords in slices of 2^16; sizes on each
    side of a slice edge, and a short last slice, match one unsliced pass."""

    @pytest.mark.parametrize("size", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5])
    def test_sliced_pass_matches_one_xor_at_pass(self, size, rng):
        n = 19
        words = np.sort(rng.choice(1 << n, size=size, replace=False)).astype(np.uint32)
        marks = rng.integers(1, 1 << 32, size=size, dtype=np.uint32)
        for r in (1, 2):
            offs = ball_offsets(n, r)
            want = np.zeros(1 << n, dtype=np.uint32)
            for off in offs:
                np.bitwise_xor.at(want, words ^ off, marks)
            assert np.array_equal(signatures._fingerprints(words, marks, offs, 1 << n), want)


class TestMarks:
    """The static marks are drawn in 2^16-word batches: the same marks as
    one draw, without its k-long uint64 temporary."""

    @pytest.mark.parametrize("k", [1, 5, 1 << 16, (1 << 16) + 3, 1 << 20])
    def test_batches_match_the_one_shot_draw(self, k):
        want = (np.random.PCG64(signatures._FP_SEED).random_raw(k) | np.uint64(1)).astype(np.uint32)
        got = signatures._marks(k)
        assert got.dtype == np.uint32 and np.array_equal(got, want)

    def test_peak_is_near_the_four_bytes_a_mark_kept(self):
        k = 1 << 22
        tracemalloc.start()
        try:
            signatures._marks(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * k


def _verdict(code, r):
    rep = diagnose(code, r)
    return f"is not {r}-identifying (nc={rep.nc}, ns={rep.ns}, uncovered={rep.uncovered}, unseparated={rep.unseparated})"


class TestOneVerifyExit:
    """Every verify-and-raise site goes through ``require_identifying``: its
    own exception type, with diagnose's counts and witnesses."""

    @pytest.mark.parametrize("site,error", [
        (lambda code: heuristics.prune(code, 1), heuristics.NotIdentifyingError),
        (lambda code: extend.plan_extension(code, 1, 2), extend.VerificationFailed),
        (lambda code: bounds.compare(code, 1), NotIdentifyingError),  # a ValueError of its own type
    ], ids=["prune", "plan_extension", "compare"])
    def test_user_input_sites(self, site, error):
        bad = Code.from_words([0, 1, 6], 4)
        with pytest.raises(error) as exc:
            site(bad)
        assert type(exc.value) is error
        assert _verdict(bad, 1) in str(exc.value)

    @pytest.mark.parametrize("site", [
        lambda: heuristics.greedy_construct(1, 4, seed=0),
        lambda: heuristics.noising_search(1, 4, heuristics.NoisingParams(target_size=8, rho_init=3.0, seed=1)),
        lambda: heuristics.prune(full_space(4), 1),
    ], ids=["greedy_construct", "noising_search", "prune"])
    def test_internal_sites_catch_a_table_that_drops_a_word(self, site, monkeypatch):
        dropped = []

        def code(table):
            dropped.append(Code.from_words(table.words()[1:], table.dim))
            return dropped[-1]

        monkeypatch.setattr(SignatureTable, "code", code)
        with pytest.raises(AssertionError) as exc:
            site()
        assert type(exc.value) is AssertionError
        assert _verdict(dropped[-1], 1) in str(exc.value)


class TestStaticLimits:
    def test_dimension_beyond_limit_raises_before_allocating(self):
        code = Code.from_words([0], MAX_EVAL_DIM + 1)
        for call in (diagnose, discriminating_report):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="MAX_EVAL_DIM"):
                    call(code, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, f"{call.__name__} allocated {peak} bytes first"

    def test_sparse_failing_code_at_large_radius_stays_small(self, rng):
        # 60 random words at (r, n) = (3, 14) leave thousands of vertices
        # with a one-word cover set; rows of length V(14, 3) = 470 for every
        # one of them would take about 50 MiB
        n, r = 14, 3
        words = sorted(rng.choice(1 << n, size=60, replace=False).tolist())
        code = Code.from_words(words, n)
        diagnose(Code.from_words([0, 1], n), r)  # warm the offset cache
        tracemalloc.start()
        try:
            rep = diagnose(code, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ns > 10**6 and rep.unseparated is not None
        # about 32 bytes a vertex plus 40 per (vertex, covering codeword) pair
        assert peak < 2 * (32 * (1 << n) + 40 * len(words) * 470)

    def test_discriminating_side_of_n21_is_admitted(self):
        n = 22
        rep = discriminating_report(Code.from_words([0], n), 1)
        assert rep.nc == (1 << (n - 1)) - n  # only the weight-1 vertices are covered
        assert (rep.uncovered, rep.unseparated) == (7, (7, 11))

    def test_n20_extension_pass_then_fail(self, tmp_path):
        text = resources.files("idcodes").joinpath("data/code_1_9_114.txt").read_text()
        extended = extend_c1(parse_code_text(text).code, 1, 11)
        write_code_file(tmp_path / "n20.txt", extended, 1)
        back = read_code_file(tmp_path / "n20.txt").code
        assert back == extended
        for code in (extended, back):
            assert code.dim == 20
            assert diagnose(code, 1).identifying
            damaged = Code(20, code.words[:1000] + code.words[1001:])
            rep = diagnose(damaged, 1)
            assert not rep.identifying
            assert rep.uncovered is not None or rep.unseparated is not None
            words = np.array(damaged.words, dtype=np.int64)

            def cover(v):
                return words[np.bitwise_count(words ^ v) <= 1]

            if rep.uncovered is not None:
                assert len(cover(rep.uncovered)) == 0
            if rep.unseparated is not None:
                a, b = rep.unseparated
                assert a != b and np.array_equal(cover(a), cover(b))


class TestTableBuild:
    @pytest.mark.parametrize("n,r", grid())
    def test_build_matches_static(self, n, r, rng):
        for _ in range(5):
            code = random_code(rng, n)
            table = SignatureTable.build(code, r)
            ev = diagnose(code, r)
            assert (table.nc, table.ns, table.f) == (ev.nc, ev.ns, ev.f)
            table.check()

    def test_empty_table_state(self):
        t = SignatureTable(4, 1)
        assert t.size == 0
        assert t.nc == 16
        assert t.ns == 16 * 15 // 2
        assert t.words() == []

    def test_cover_set_and_class_counts(self):
        code = Code.from_words([0, 7], 3)
        t = SignatureTable.build(code, 1)
        cover = brute_cover_sets(code.words, 3, 1)
        for v in range(8):
            assert cover_set(t, v) == set(cover[v])
        counts = class_counts(t)
        assert sum(counts.values()) == 8
        assert all(c > 0 for c in counts.values())
        assert counts == Counter(cover.values())

    def test_dim_and_radius_guards(self):
        with pytest.raises(ValueError):
            SignatureTable(MAX_TABLE_DIM + 1, 1)
        with pytest.raises(ValueError):
            SignatureTable(4, 5)


class TestMutations:
    def test_add_remove_roundtrip(self, rng):
        n, r = 5, 1
        t = SignatureTable(n, r)
        words = rng.choice(32, size=8, replace=False).tolist()
        for w in words:
            t.add(int(w))
        t.check()
        ev = diagnose(Code.from_words(words, n), r)
        assert (t.nc, t.ns) == (ev.nc, ev.ns)
        for w in words[:4]:
            t.remove(int(w))
        t.check()
        rest = Code.from_words(words[4:], n)
        ev = diagnose(rest, r)
        assert (t.nc, t.ns) == (ev.nc, ev.ns)
        assert t.words() == sorted(words[4:])

    def test_duplicate_add_rejected(self):
        t = SignatureTable(3, 1)
        t.add(5)
        with pytest.raises(ValueError):
            t.add(5)
        t.check()
        assert t.words() == [5]

    def test_out_of_range_add_rejected(self):
        t = SignatureTable(3, 1)
        with pytest.raises(ValueError):
            t.add(8)

    def test_remove_unknown_word(self):
        t = SignatureTable(3, 1)
        t.add(2)
        with pytest.raises(ValueError):
            t.remove(5)
        t.check()
        assert t.words() == [2]

    @pytest.mark.parametrize("call,word", [
        ("remove", 16),  # out of range
        ("remove", -1),  # negative: no wrap-around to the last word
        ("remove_delta", 5),  # not a codeword
        ("remove_delta", -1),
        ("swap_deltas", 5),
        ("add", -1),
    ])
    def test_word_guards_leave_the_table_intact(self, call, word):
        t = SignatureTable(4, 1)
        for w in (3, 9, 15):
            t.add(w)
        state = (t.words(), t.size, t.nc, t.ns)
        with pytest.raises(ValueError):
            getattr(t, call)(word)
        t.check()
        assert (t.words(), t.size, t.nc, t.ns) == state

    def test_check_catches_a_stale_size(self):
        t = SignatureTable(4, 1)
        t.add(3)
        t.size += 1
        with pytest.raises(AssertionError, match="stale size"):
            t.check()

    def test_long_random_mutation_storm(self, rng):
        n, r = 5, 2
        t = SignatureTable(n, r)
        present = set()
        for step in range(300):
            op = rng.integers(3)
            if op == 0 or not present:
                choices = [w for w in range(32) if w not in present]
                w = int(rng.choice(choices))
                t.add(w)
                present.add(w)
            elif op == 1 and len(present) > 1:
                w = int(rng.choice(sorted(present)))
                t.remove(w)
                present.discard(w)
            else:
                old = int(rng.choice(t.words()))
                choices = [w for w in range(32) if w not in present]
                if not choices:
                    continue
                w = int(rng.choice(choices))
                t.remove(old)
                t.add(w)
                present.discard(old)
                present.add(w)
            if step % 50 == 0:
                t.check()
                want = oracle_eval(sorted(present), n, r)
                assert (t.nc, t.ns) == want
        t.check()
        want = oracle_eval(sorted(present), n, r)
        assert (t.nc, t.ns) == want


class TestDeltas:
    @pytest.mark.parametrize("n,r", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 3)])
    def test_add_delta_matches_mutation(self, n, r, rng):
        for _ in range(6):
            code = random_code(rng, n, kmin=1, kmax=min(10, (1 << n) - 2))
            t = SignatureTable.build(code, r)
            candidates = np.flatnonzero(~t.word_mask).tolist()
            for w in candidates[:8]:
                predicted = scalar_add_delta(t, w)
                before = t.f
                t.add(w)
                assert t.f - before == predicted
                t.remove(w)
                assert t.f == before

    @pytest.mark.parametrize("n,r", [(3, 1), (4, 1), (4, 2), (5, 2)])
    def test_add_delta_all_matches_scalar(self, n, r, rng):
        for _ in range(4):
            code = random_code(rng, n)
            t = SignatureTable.build(code, r)
            vec = t.add_delta_all()
            assert vec.shape == (1 << n,)
            for w in range(1 << n):
                if not t.word_mask[w]:
                    assert int(vec[w]) == scalar_add_delta(t, w)

    @pytest.mark.parametrize("n,r", [(3, 1), (4, 1), (4, 2), (5, 2)])
    def test_remove_delta_matches_mutation(self, n, r, rng):
        for _ in range(6):
            code = random_code(rng, n, kmin=3)
            t = SignatureTable.build(code, r)
            for word in t.words():
                predicted = t.remove_delta(word)
                before = t.f
                t.remove(word)
                assert t.f - before == predicted
                t.add(word)
                assert t.f == before

    @pytest.mark.parametrize("n,r", [(3, 1), (4, 1), (4, 2), (5, 2)])
    def test_swap_delta_matches_mutation(self, n, r, rng):
        for _ in range(6):
            code = random_code(rng, n, kmin=2, kmax=min(8, (1 << n) - 2))
            t = SignatureTable.build(code, r)
            words = t.words()
            outside = np.flatnonzero(~t.word_mask).tolist()
            for _ in range(10):
                old = int(rng.choice(words))
                w = int(rng.choice(outside))
                before = t.f
                predicted = int(t.swap_deltas(old)[w])
                t.remove(old)
                t.add(w)
                assert t.f - before == predicted
                assert int(t.swap_deltas(w)[old]) == -predicted
                t.remove(w)
                t.add(old)
                assert t.f == before

    def test_swap_delta_covers_overlap_case(self):
        # the new word inside the removed word's ball: its add-delta must
        # be scored on the classes as they are after the removal
        t = SignatureTable.build(Code.from_words([0, 12], 4), 1)
        before = t.f
        predicted = int(t.swap_deltas(0)[1])  # distance 1 from 0
        t.remove(0)
        t.add(1)
        assert t.f - before == predicted
        t.check()


def _static_nc_ns(table):
    """(nc, ns) of the table's code by the static evaluator."""
    if table.size == 0:
        n_verts = 1 << table.dim
        return n_verts, n_verts * (n_verts - 1) // 2
    ev = diagnose(table.code(), table.radius)
    return ev.nc, ev.ns


class TestMaintainedDeltas:
    @settings(max_examples=60)
    @given(st.data())
    def test_random_moves_match_full_pass(self, data):
        n = data.draw(st.integers(3, 8), label="n")
        r = data.draw(st.integers(1, 3), label="r")
        steps = data.draw(st.integers(1, 30), label="steps")
        first_call = data.draw(st.integers(0, steps), label="mutations before add_delta_all")
        t = SignatureTable(n, r)
        tracking = False
        for step in range(steps):
            if step == first_call:
                tracking = True
            words = t.words()
            if words and (t.size == 1 << n or data.draw(st.booleans(), label="remove")):
                t.remove(data.draw(st.sampled_from(words), label="removed word"))
            else:
                outside = np.flatnonzero(~t.word_mask).tolist()
                t.add(data.draw(st.sampled_from(outside), label="word"))
            t.check()
            assert (t.nc, t.ns) == _static_nc_ns(t)
            if tracking:
                assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))

    def test_remove_and_readd_keeps_vector_exact(self, rng):
        # remove a codeword and add the same word back
        n, r = 6, 2
        t = SignatureTable.build(random_code(rng, n, kmin=6, kmax=10), r)
        t.add_delta_all()
        for _ in range(40):
            word = int(rng.choice(t.words()))
            t.remove(word)
            assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))
            t.add(word)
            assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))
        t.check()

    def test_word_mask_tracks_codewords(self):
        t = SignatureTable(4, 1)
        for w in (3, 9, 14):
            t.add(w)
        t.remove(9)
        assert np.flatnonzero(t.word_mask).tolist() == [3, 14]
        with pytest.raises(ValueError):
            t.word_mask[0] = True  # a read-only view


def _table_arrays(table):
    """Every array a table holds, in its attributes and their tuples and lists."""
    found = []
    for value in vars(table).values():
        for item in value if isinstance(value, (tuple, list)) else [value]:
            found.extend(item if isinstance(item, (tuple, list)) else [item])
    return [item for item in found if isinstance(item, np.ndarray)]


class TestSwapDeltas:
    """swap_deltas scores every swap of one codeword, as a noising visit
    does, from the table as it stands and without touching it."""

    @settings(max_examples=80)
    @given(st.data())
    def test_read_only_scores_match_a_real_removal(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        r = data.draw(st.integers(1, 2), label="r")
        t = SignatureTable(n, r)
        for _ in range(data.draw(st.integers(1, 12), label="visits")):
            words = t.words()
            if words and (t.size == 1 << n or data.draw(st.booleans(), label="remove")):
                t.remove(data.draw(st.sampled_from(words), label="removed word"))
            else:
                t.add(data.draw(st.sampled_from(np.flatnonzero(~t.word_mask).tolist()), label="word"))
            if not t.size:
                continue
            word = data.draw(st.sampled_from(t.words()), label="scored word")
            words, f, adds = t.words(), t.f, t.add_delta_all()
            scores = t.swap_deltas(word)
            t.check()
            assert (t.words(), t.f) == (words, f)
            assert np.array_equal(t.add_delta_all(), adds)
            # the same removal made for real on a second table
            ref = SignatureTable.build(t.code(), r)
            ref.remove(word)
            removal = t.remove_delta(word)
            assert ref.f - f == removal
            outside = ~t.word_mask
            assert np.array_equal(scores[outside], (removal + full_add_delta_all(ref))[outside])
            if outside.any() and data.draw(st.booleans(), label="mutate in between"):
                t.add(data.draw(st.sampled_from(np.flatnonzero(outside).tolist()), label="between"))
            t.remove(word)
            t.check()
            assert (t.nc, t.ns) == _static_nc_ns(t)
            assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))

    @pytest.mark.parametrize("flat", [None, False, True])  # None: the table's own marks
    @settings(max_examples=30)
    @given(data=st.data())
    def test_returned_scores_stay_fresh_under_moves(self, flat, data):
        # T0 and P change in place on every move: a returned vector shares
        # no memory with the table, so the moves leave it as it was
        n = data.draw(st.integers(4 if flat is False else 3, 7), label="n")  # mark(15) is forced
        r = data.draw(st.integers(1, 2), label="r")
        words = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                   max_size=min(20, (1 << n) - 1), unique=True), label="words")
        with pytest.MonkeyPatch.context() as mp:
            if flat is not None:
                collide_table_marks(mp, flat)
            t = SignatureTable.build(Code.from_words(words, n), r)
            word = data.draw(st.sampled_from(words), label="scored word")
            returned = [t.add_delta_all(), t.swap_deltas(word)]
            kept = [v.tobytes() for v in returned]
            states = [_table_arrays(t)]
            t.remove(word)
            t.add(data.draw(st.sampled_from(np.flatnonzero(~t.word_mask).tolist()), label="added word"))
            states.append(_table_arrays(t))
            assert [v.tobytes() for v in returned] == kept
            for v in returned:
                assert not any(np.shares_memory(v, state) for arrays in states for state in arrays)

    def test_remove_after_scoring_reuses_its_vectors(self, monkeypatch, rng):
        t = SignatureTable.build(random_code(rng, 6, kmin=6, kmax=10), 2)
        grouped, scattered = [], []
        group, terms = SignatureTable._group, SignatureTable._terms
        monkeypatch.setattr(SignatureTable, "_group",
                            lambda self, word: grouped.append(word) or group(self, word))
        monkeypatch.setattr(SignatureTable, "_terms",
                            lambda self, *a: scattered.append(self) or terms(self, *a))
        t.add_delta_all()  # builds the score state
        grouped.clear()
        scattered.clear()
        a, b = t.words()[:2]
        t.swap_deltas(a)
        assert len(grouped) == len(scattered) == 1
        t.remove(a)  # straight after scoring the same word: no second grouping or scatter
        assert grouped == [a] and len(scattered) == 1
        t.swap_deltas(b)
        c = int(np.flatnonzero(~t.word_mask)[0])
        t.add(c)
        t.remove(b)  # a mutation came in between: grouped and scattered again
        assert grouped == [a, b, c, b] and len(scattered) == 4
        assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))
        t.check()


class TestScoresFromTheClasses:
    """_start_tracking reads T0 and P off the classes; the replay of every
    codeword into an empty table, which it replaced, is the reference
    wherever the replay itself stays exact, and the full pass everywhere."""

    @pytest.mark.parametrize("flat", [None, False, True])  # None: the table's own marks
    @settings(max_examples=40)
    @given(data=st.data())
    def test_start_equals_the_replay(self, flat, data):
        r, n = data.draw(st.sampled_from([(1, 6), (2, 6), (3, 7), (4, 8)]), label="cell")
        words = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                   max_size=min(40, 1 << n), unique=True), label="words")
        with pytest.MonkeyPatch.context() as mp:
            if flat is not None:
                collide_table_marks(mp, flat)
            t = SignatureTable.build(Code.from_words(words, n), r)
            for _ in range(data.draw(st.integers(0, 4), label="moves")):  # a table mid-search
                if t.size > 1 and data.draw(st.booleans(), label="remove"):
                    t.remove(data.draw(st.sampled_from(t.words()), label="removed word"))
                elif t.size < 1 << n:
                    t.add(data.draw(st.sampled_from(np.flatnonzero(~t.word_mask).tolist()), label="word"))
            t._start_tracking()
            assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))
            replay = replay_tracking(t)
            exact = np.array_equal(replay.add_delta_all(), full_add_delta_all(replay))
            assert exact or flat is not None  # only a forced collision makes the replay drift
            if exact:
                assert all(np.array_equal(got, ref) for got, ref in zip(t._delta, replay._delta))

    def test_a_collision_that_uncovers_leaves_the_start_on_the_classes(self, monkeypatch):
        # flat marks: vertices 0 and 1, covered twice, read as uncovered; the
        # replay, which only ever covers vertices on an add, misses that
        collide_table_marks(monkeypatch, flat=True)
        t = SignatureTable.build(Code.from_words([0, 1], 6), 1)
        replay = replay_tracking(t)
        assert t.add_delta_all()[2] != replay.add_delta_all()[2]
        assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))

    @pytest.mark.parametrize("n,r,chunk", [
        pytest.param(n, r, chunk, id=f"{n}-{r}" if chunk == 1 else f"{n}-{r}-{chunk}")
        for chunk in (1, 100) for n, r in [(7, 1), (8, 3), (8, 4)]
    ])
    def test_one_pair_per_scatter_changes_no_score(self, n, r, chunk, monkeypatch, rng):
        # 1 is below one row: a scatter per ball row in _terms, and per pair in _add_meets, always
        # on its sorted path; 100 takes several rows (none at V = 163, r = 4) and at r = 1 sends
        # calls of up to 50 pairs through the one-run path
        monkeypatch.setattr(signatures, "_CHUNK", chunk)
        t = SignatureTable.build(random_code(rng, n, kmin=8, kmax=30), r)
        assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))
        for _ in range(6):
            word, outside = int(rng.choice(t.words())), ~t.word_mask
            assert np.array_equal(t.swap_deltas(word)[outside], full_swap_deltas(t, word)[outside])
            t.remove(word)
            t.add(int(rng.choice(np.flatnonzero(~t.word_mask))))
            assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))


class TestTableFingerprints:
    """The table keys its classes by XOR fingerprints of word marks; the
    classes must still be the exact cover-set partition, and a forced
    collision may only merge classes."""

    @settings(max_examples=60)
    @given(st.data())
    def test_classes_are_the_exact_cover_set_partition(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        r = data.draw(st.integers(1, min(3, n)), label="r")
        t = SignatureTable(n, r)
        for _ in range(data.draw(st.integers(1, 25), label="steps")):
            words = t.words()
            ops = (["add"] if t.size < 1 << n else []) + (["remove", "swap"] if words else [])
            op = data.draw(st.sampled_from(ops), label="op")
            if op == "add":
                t.add(data.draw(st.sampled_from(np.flatnonzero(~t.word_mask).tolist()), label="word"))
            else:
                word = data.draw(st.sampled_from(words), label="codeword")
                if op == "swap":
                    t.swap_deltas(word)  # the removal then reuses its grouping
                t.remove(word)
            assert class_counts(t) == Counter(brute_cover_sets(t.words(), n, r).values())
            t.check()

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_marks_are_apart_from_the_static_path(self, n):
        marks = SignatureTable(n, 1)._mark
        assert len(marks) == 1 << n and (marks & np.uint64(1)).all()
        # the static marks are 32-bit: compare the table marks' low halves
        assert not np.isin(marks.astype(np.uint32), signatures._marks(1 << n)).any()

    def test_a_forced_collision_merges_classes(self, monkeypatch):
        collide_table_marks(monkeypatch)
        t = SignatureTable.build(Code.from_words([0, 3, 12, 15], 4), 1)
        # vertex 1 has cover set {0, 3} and vertex 13 has {12, 15}
        assert t._key_id[1] == t._key_id[13]
        assert t.f > diagnose(t.code(), 1).f
        with pytest.raises(AssertionError):
            t.check()  # the recount is exact, not by fingerprint

    @pytest.mark.parametrize("order", [[0, 3, 12, 15], [12, 15, 0, 3], [0, 12, 15, 3]])
    def test_a_refilled_class_stays_live_under_a_collision(self, order, monkeypatch):
        # at (4, 2) adding the last word, or removing it again, moves a
        # class onto the id of another class of its ball that the move
        # empties: the id stays live, in the fingerprint map and off the
        # free stack
        collide_table_marks(monkeypatch)
        tables = [SignatureTable(4, 2), SignatureTable.build(Code.from_words([0, 3, 12, 15], 4), 2)]
        for w in order:
            tables[0].add(w)
        tables[1].remove(order[-1])
        for t in tables:
            counted = Counter(t._key_id.tolist())
            assert all(t._count[cid] == k and t._ids[int(t._fp[cid])] == cid for cid, k in counted.items())
            assert not set(t._free[:t._top].tolist()) & set(counted)

    @pytest.mark.parametrize("flat", [False, True])
    def test_f_never_reads_below_the_true_f(self, flat, monkeypatch, rng):
        collide_table_marks(monkeypatch, flat)
        merged = 0
        for n, r in [(4, 1), (5, 1), (5, 2), (6, 1)]:
            t = SignatureTable.build(Code.from_words([0, 3, 12, 15], n), r)
            for _ in range(60):
                words = t.words()
                if words and (t.size == 1 << n or rng.random() < 0.4):
                    word = int(rng.choice(words))
                    if rng.random() < 0.5:
                        t.swap_deltas(word)
                    t.remove(word)
                else:
                    t.add(int(rng.choice(np.flatnonzero(~t.word_mask))))
                true_f = sum(_static_nc_ns(t))
                assert t.f >= true_f
                merged += t.f > true_f
                # the classes are the vertices grouped by the fingerprint of
                # their exact cover set, so no exact class is ever split
                cover = brute_cover_sets(t.words(), n, r)
                fps = {}
                for v, cid in enumerate(t._key_id.tolist()):
                    fp = np.bitwise_xor.reduce(t._mark[sorted(cover[v])])
                    assert fps.setdefault(cid, fp) == fp
                assert len(set(fps.values())) == len(fps)
        assert merged  # the collisions did bite



def _partition(table):
    """Each vertex labelled by the first vertex of its class."""
    first = {}
    return [first.setdefault(cid, v) for v, cid in enumerate(table._key_id.tolist())]


class TestOnePassTables:
    """The one-pass table build, the one-pass removal scores and the
    ball-intersection table against the paths they stand in for."""

    @pytest.mark.parametrize("flat", [None, False, True])  # None: the table's own marks
    @settings(max_examples=40)
    @given(data=st.data())
    def test_build_equals_sequential_adds(self, flat, data):
        n = data.draw(st.integers(4 if flat is False else 2, 8), label="n")  # mark(15) is forced
        r = data.draw(st.integers(1, min(3, n)), label="r")
        words = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                   max_size=min(40, 1 << n), unique=True), label="words")
        outside = [w for w in range(1 << n) if w not in words]
        with pytest.MonkeyPatch.context() as mp:
            if flat is not None:
                collide_table_marks(mp, flat)
            built, added = SignatureTable.build(Code.from_words(words, n), r), SignatureTable(n, r)
            for w in words:
                added.add(w)
            for _ in range(2):  # a built table keeps moving as one made by adds
                for t in (built, added):
                    assert t.words() == sorted(words) and t.size == len(words)
                    assert (t.nc, t.ns, t.f) == (added.nc, added.ns, added.f)
                    assert _partition(t) == _partition(added)
                    if flat is None:
                        assert class_counts(t) == Counter(brute_cover_sets(words, n, r).values())
                        t.check()
                if not outside:
                    break
                for t in (built, added):
                    t.remove(words[0])
                    t.add(outside[0])
                words[0], outside[0] = outside[0], words[0]

    @pytest.mark.parametrize("flat", [None, False, True])
    def test_remove_delta_all_equals_remove_delta(self, flat, monkeypatch, rng):
        if flat is not None:
            collide_table_marks(monkeypatch, flat)
        for n, r in [(4, 1), (5, 1), (5, 2), (6, 1), (6, 3)]:
            codes = [Code.from_words([0, 3, 12, 15], n)] + [random_code(rng, n, kmin=2, kmax=20) for _ in range(4)]
            for code in codes:
                t = SignatureTable.build(code, r)
                t.remove(code.words[-1])  # a table with a history, and a free id reused
                t.add(code.words[-1])
                got = t.remove_delta_all()
                assert [int(got[w]) for w in t.words()] == [t.remove_delta(w) for w in t.words()]

    @pytest.mark.parametrize("n,r", [(5, 1), (6, 2), (7, 3)])
    def test_ball_intersections_read_from_the_table(self, n, r):
        index, blocks = signatures._meets(n, r)
        v = len(ball_offsets(n, r))
        # V (V - 1) offsets and a 2^n index: no pad rows, and nothing padded to the widest row
        assert index.shape == (1 << n,)
        assert sum(b.size for _, b in blocks) == v * (v - 1)
        widths = [b.shape[1] for _, b in blocks]
        assert widths == sorted(set(widths), reverse=True)
        firsts = [first for first, _ in blocks]
        assert firsts == [1 + sum(len(b) for _, b in blocks[:k]) for k in range(len(blocks))]
        assert sorted(index[index > 0].tolist()) == list(range(1, firsts[-1] + len(blocks[-1][1])))
        a = (1 << n) // 3
        for d in range(1, 1 << n):
            want = sorted(x for x in range(1 << n) if (x ^ a).bit_count() <= r and (x ^ a ^ d).bit_count() <= r)
            i = int(index[d])
            if not want:
                assert i == 0
                continue
            first, block = next((first, b) for first, b in blocks if first <= i < first + len(b))
            assert sorted((a ^ block[i - first].astype(np.int64)).tolist()) == want
        far = (1 << (2 * r + 1)) - 1  # a pair 2r + 1 apart meets in no vertex
        assert index[far] == 0

    @pytest.mark.parametrize("n,r", [(13, 4), (16, 3)])
    def test_ball_intersections_build_small(self, n, r):
        # each block is built from its own distances, a chunk of rows at a time: no V^2 pair
        # temporaries (36.5 MiB at (13, 4) from them), and no (rows, V) compare held whole
        # (44 MiB at (16, 3)); the rows kept are 4.8 and 1.9 MB
        ball_offsets(n, r)
        signatures._meets.cache_clear()
        tracemalloc.start()
        try:
            signatures._meets(n, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            signatures._meets.cache_clear()
        assert peak <= 28 << 20

    @pytest.mark.parametrize("n,r", [(7, 3), (9, 2)])
    def test_ball_intersections_do_not_depend_on_the_chunk(self, n, r, monkeypatch):
        signatures._meets.cache_clear()
        whole = signatures._meets(n, r)
        signatures._meets.cache_clear()
        monkeypatch.setattr(signatures, "_CHUNK", 100)  # a row or a few per compare
        try:
            parts = signatures._meets(n, r)
        finally:
            signatures._meets.cache_clear()
        assert whole[0].tobytes() == parts[0].tobytes()
        assert [(f, b.shape, b.tobytes()) for f, b in whole[1]] == [(f, b.shape, b.tobytes()) for f, b in parts[1]]

    @pytest.mark.parametrize("n,r", [(5, 1), (9, 2)])
    def test_the_table_indexes_in_intp(self, n, r):
        # the index dtype: a uint32 or int32 index is converted on every gather and scatter
        # of a move; the _meets rows are gathered, not an index, and stay int32
        t = SignatureTable.build(Code.from_words([0, 3, 12], n), r)
        t.add_delta_all()  # the scores' scratch comes with them
        index, blocks = signatures._meets(n, r)
        assert [a.dtype for a in (t._offsets, t._rank, t._slot, index)] == [np.dtype(np.intp)] * 4
        assert all(b.dtype == np.int32 for _, b in blocks)
        assert t._offsets.tolist() == ball_offsets(n, r).tolist()

    @pytest.mark.parametrize("chunk", [None, 1, 100])
    @pytest.mark.parametrize("n,r", [(7, 1), (6, 2), (7, 3), (8, 3)])
    def test_add_meets_counts_each_pair_once(self, n, r, chunk, monkeypatch, rng):
        if chunk is not None:
            monkeypatch.setattr(signatures, "_CHUNK", chunk)
        assert len(signatures._meets(n, r)[1]) >= min(r, 2)
        far = rng.choice([d for d in range(1 << n) if d.bit_count() > 2 * r], size=40)  # meet in no vertex
        near = rng.choice([d for d in range(1, 1 << n) if d.bit_count() <= 2 * r], size=40)
        a = rng.integers(0, 1 << n, size=200)
        b = np.concatenate((a[:1], rng.integers(0, 1 << n, size=119), a[120:160] ^ far, a[160:] ^ near))
        out = np.zeros(2 << n, dtype=np.int64)  # the buffer _terms scores into
        signatures._add_meets(out, a[:160], b[:160], n, r)
        signatures._add_meets(out, a[160:], b[160:], n, r)  # every pair with a row: at r = 1, one unsorted run
        pairs = [(x, y) for x, y in zip(a.tolist(), b.tolist()) if x != y]  # d = 0 has no row: it scatters nothing
        want = [2 * sum((s ^ x).bit_count() <= r and (s ^ y).bit_count() <= r for x, y in pairs) for s in range(1 << n)]
        assert out[:1 << n].tolist() == want and not out[1 << n:].any()
