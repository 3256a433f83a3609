import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Code, full_space, signatures
from idcodes.codefile import parse_code_text, read_code_file, write_code_file
from idcodes.convert import discriminating_report
from idcodes.extend import extend_c1
from idcodes.signatures import (
    MAX_EVAL_DIM,
    MAX_TABLE_DIM,
    Evaluation,
    SignatureTable,
    diagnose,
    evaluate,
    is_identifying,
)

from conftest import (
    brute_cover_sets,
    brute_report,
    class_counts,
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
            got = evaluate(code, r)
            assert (got.nc, got.ns) == (want_nc, want_ns)
            assert got.f == want_nc + want_ns

    def test_single_codeword_radius_zero(self):
        # one codeword, r=0: only that vertex is covered, every other
        # vertex shares the empty cover set
        n = 4
        got = evaluate(Code.from_words([5], n), 0)
        empties = (1 << n) - 1
        assert got.nc == empties
        assert got.ns == empties * (empties - 1) // 2

    def test_full_space_large_radius(self):
        # radius n makes all cover sets equal: every pair collides
        n = 3
        got = evaluate(full_space(n), n)
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
            evaluate(Code.from_words([0], 3), 4)
        with pytest.raises(ValueError):
            evaluate(Code.from_words([0], 3), -1)

    def test_evaluation_invariant(self):
        with pytest.raises(ValueError):
            Evaluation(nc=1, ns=1, f=3)


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
                ev = evaluate(code, r)
                assert (ev.nc, ev.ns) == (rep.nc, rep.ns)
            assert (rep.nc, rep.ns, rep.uncovered, rep.unseparated) == want
            _assert_real_witnesses(rep, words, n, r, odd_only)
            cover = brute_cover_sets(words, n, r)
            targets = [v for v in range(1 << n)
                       if cover[v] and (not odd_only or bin(v).count("1") % 2)]
            parities = {len(cover[v]) % 2 for v in targets}
            merged_classes += len({cover[v] for v in targets}) > len(parities)
        assert merged_classes > 0  # the fingerprints alone would have been wrong


class TestStaticLimits:
    def test_dimension_beyond_limit_raises_before_allocating(self):
        code = Code.from_words([0], MAX_EVAL_DIM + 1)
        for call in (evaluate, diagnose, discriminating_report):
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
            ev = evaluate(code, r)
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
        ev = evaluate(Code.from_words(words, n), r)
        assert (t.nc, t.ns) == (ev.nc, ev.ns)
        for w in words[:4]:
            t.remove(int(w))
        t.check()
        rest = Code.from_words(words[4:], n)
        ev = evaluate(rest, r)
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
    ev = evaluate(table.code(), table.radius)
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

    def test_remove_after_scoring_reuses_its_vectors(self, monkeypatch, rng):
        t = SignatureTable.build(random_code(rng, 6, kmin=6, kmax=10), 2)
        computed = []
        without = SignatureTable._without
        monkeypatch.setattr(SignatureTable, "_without",
                            lambda self, word: computed.append(word) or without(self, word))
        a, b = t.words()[:2]
        t.swap_deltas(a)
        t.remove(a)  # straight after scoring the same word: reused
        assert computed == [a]
        t.swap_deltas(b)
        t.add(int(np.flatnonzero(~t.word_mask)[0]))
        t.remove(b)  # a mutation came in between: recomputed
        assert computed == [a, b, b]
        assert np.array_equal(t.add_delta_all(), full_add_delta_all(t))
        t.check()
