import tracemalloc
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Code, full_space, signatures
from idcodes.codefile import parse_code_text, read_code_file, write_code_file
from idcodes.convert import discriminating_report, to_discriminating
from idcodes.extend import extend_c1
from idcodes.hypercube import ball_offsets
from idcodes.signatures import (
    MAX_EVAL_DIM,
    MAX_TABLE_DIM,
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
    oracle_eval,
    random_code,
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


def _shipped_1_9():
    return parse_code_text(resources.files("idcodes").joinpath("data/code_1_9_114.txt").read_text()).code


class TestExactPassSides:
    """The exact pass walks from the smaller side: a few candidates probe a
    codeword-index map, and many are found by the codewords probing the
    candidate mask.  Either way the counts and witnesses are the oracle's."""

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
        t.add_delta_all()  # builds the score state on a replay table
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
        # V (V - 1) offsets, two pad rows per width and a 2^n index: nothing padded to the widest row
        assert index.shape == (1 << n,)
        assert sum(b.size - 2 * b.shape[1] for _, b in blocks) == v * (v - 1)
        a = (1 << n) // 3
        for d in range(1, 1 << n):
            row = np.concatenate([b.take(index[d] - shift, axis=0, mode="clip") for shift, b in blocks])
            s = a ^ row.astype(np.int64)
            assert (s[s >= 1 << n] >= 2 << n).all()  # pads land past the two thirds _terms returns
            want = sorted(x for x in range(1 << n) if (x ^ a).bit_count() <= r and (x ^ a ^ d).bit_count() <= r)
            assert sorted(s[s < 1 << n].tolist()) == want
        far = (1 << (2 * r + 1)) - 1  # a pair 2r + 1 apart meets in no vertex
        assert index[far] == 0 and not (np.concatenate([b[0] for _, b in blocks]) < 2 << n).any()
