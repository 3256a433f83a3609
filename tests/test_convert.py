import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Code, convert, diagnose, is_identifying, signatures
from idcodes.cli import main
from idcodes.codefile import write_code_file
from idcodes.convert import (
    DiscriminatingReport,
    discriminating_report,
    is_discriminating,
    to_discriminating,
    to_identifying,
)
from idcodes.hypercube import odd_mask

from conftest import (
    brute_cover_sets,
    brute_report,
    delete_coordinate,
    even_words,
    oracle_identifying,
    parity_extend,
    random_code,
)


def brute_discriminating(words, n, r):
    """Independent check: odd-weight vertices get nonempty distinct covers."""
    cover = brute_cover_sets(words, n, r)
    odd = [v for v in range(1 << n) if bin(v).count("1") % 2 == 1]
    sets = [cover[v] for v in odd]
    if any(not s for s in sets):
        return False
    return len(set(sets)) == len(sets)


class TestParityHelpers:
    def test_even_words_partition(self):
        # odd_mask splits F^n into halves: the odd words and the even ones
        for n in range(1, 8):
            ev = even_words(n)
            assert len(ev) == 1 << (n - 1)
            assert int(odd_mask(n).sum()) == 1 << (n - 1)
            assert np.flatnonzero(~odd_mask(n)).tolist() == ev
        for n in range(1, 17):
            want = (np.bitwise_count(np.arange(1 << n)) & 1) == 1
            assert np.array_equal(odd_mask(n), want)


class TestToDiscriminating:
    def test_output_is_even_and_same_size(self, rng):
        for _ in range(10):
            code = random_code(rng, 5)
            out = to_discriminating(code)
            assert out.dim == code.dim + 1
            assert len(out) == len(code)
            assert all(bin(w).count("1") % 2 == 0 for w in out.words)

    def test_known_word_mapping(self):
        # 000000101 has even weight -> parity bit 0; 110000001 (= 385) has
        # odd weight -> parity bit 1
        out = to_discriminating(Code.from_words([0b101, 385], 9))
        assert out.words == (0b1010, (385 << 1) | 1)

    def test_property_transfers(self, rng):
        # r-identifying input (r odd) gives an r-discriminating output
        found = 0
        for _ in range(80):
            code = random_code(rng, 4, kmin=5, kmax=12)
            if not is_identifying(code, 1):
                continue
            found += 1
            out = to_discriminating(code)
            assert is_discriminating(out, 1)
            assert brute_discriminating(out.words, 5, 1)
        assert found >= 3

    def test_non_identifying_input_gives_non_discriminating_output(self, rng):
        found = 0
        for _ in range(40):
            code = random_code(rng, 4, kmin=2, kmax=5)
            if is_identifying(code, 1):
                continue
            found += 1
            out = to_discriminating(code)
            assert not is_discriminating(out, 1)
            assert not brute_discriminating(out.words, 5, 1)
        assert found >= 3


class TestToIdentifying:
    def test_round_trip_is_identity(self, rng):
        for _ in range(10):
            code = random_code(rng, 6)
            assert to_identifying(to_discriminating(code)).words == code.words

    def test_any_deleted_coordinate_works(self, rng):
        # starting from an identifying code, every coordinate choice on the
        # discriminating side lands on an identifying code of one dim less
        for _ in range(60):
            code = random_code(rng, 4, kmin=5, kmax=12)
            if not is_identifying(code, 1):
                continue
            disc = to_discriminating(code)
            for pos in range(1, disc.dim + 1):
                back = to_identifying(disc, pos)
                assert back.dim == code.dim
                assert len(back) == len(code)
                assert oracle_identifying(back.words, back.dim, 1)
            break
        else:
            pytest.fail("no identifying sample found")

    def test_odd_weight_input_rejected(self):
        with pytest.raises(ValueError):
            to_identifying(Code.from_words([1], 3))

    def test_one_dimensional_code_rejected(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            to_identifying(Code.from_words([0], 1))

    def test_default_position_is_last(self):
        code = Code.from_words([0b110, 0b011], 3)
        assert to_identifying(code).words == to_identifying(code, 3).words


@st.composite
def codes(draw):
    n = draw(st.integers(2, 9), label="n")
    words = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(1 << n, 40)))
    return Code.from_words(words, n)


class TestBijectionProperty:
    @settings(max_examples=80)
    @given(codes())
    def test_parity_bijection(self, code):
        disc = to_discriminating(code)
        want = (parity_extend(w) for w in code.words)
        assert disc == Code.from_words(want, code.dim + 1)
        for pos in range(1, disc.dim + 1):
            want = (delete_coordinate(w, pos, disc.dim) for w in disc.words)
            assert to_identifying(disc, pos) == Code.from_words(want, code.dim)
        assert to_identifying(disc) == code
        for r in (1, 3):
            if r < code.dim:
                assert oracle_identifying(code.words, code.dim, r) == is_discriminating(disc, r)

    @settings(max_examples=150)
    @given(codes(), st.data())
    def test_reports_agree_under_the_bijection(self, code, data):
        # d((x, 1 - parity(x)), (c, parity(c))) is d(x, c) rounded up to an odd
        # number, so for odd r the ball of x and that of its odd image hold the
        # same codewords: same counts, and the witnesses map along
        r = data.draw(st.sampled_from(range(1, code.dim + 1, 2)), label="r")
        rep = diagnose(code, r)
        disc = discriminating_report(to_discriminating(code), r)

        def image(x):
            return 2 * x + 1 - bin(x).count("1") % 2

        assert (disc.nc, disc.ns) == (rep.nc, rep.ns)
        assert disc.uncovered == (None if rep.uncovered is None else image(rep.uncovered))
        assert disc.unseparated == (None if rep.unseparated is None else tuple(map(image, rep.unseparated)))
        if code.dim + 1 <= 7:  # the report is a pass in F^n; brute force walks the odd half of F^(n+1)
            want = brute_report(to_discriminating(code).words, code.dim + 1, r, odd_only=True)
            assert (disc.nc, disc.ns, disc.uncovered, disc.unseparated) == want


class TestDiscriminatingReport:
    def test_matches_brute_force(self, rng):
        for n in (3, 4, 5):
            for _ in range(15):
                k = int(rng.integers(2, min(10, 1 << (n - 1)) + 1))
                pool = even_words(n)
                words = sorted(
                    int(w) for w in rng.choice(pool, size=k, replace=False)
                )
                code = Code.from_words(words, n)
                for r in range(1, n + 1, 2):
                    rep = discriminating_report(code, r)
                    assert rep.discriminating == brute_discriminating(
                        words, n, r
                    )
                    assert rep.discriminating == (rep.nc + rep.ns == 0)

    def test_witnesses_are_odd_vertices(self):
        rep = discriminating_report(Code.from_words([0], 4), 1)
        assert not rep.discriminating
        if rep.uncovered is not None:
            assert bin(rep.uncovered).count("1") % 2 == 1
        if rep.unseparated is not None:
            a, b = rep.unseparated
            assert bin(a).count("1") % 2 == 1
            assert bin(b).count("1") % 2 == 1

    def test_counts_only_odd_vertices(self):
        # a single even codeword at r=1 covers dim+1 odd vertices... none,
        # wait: at r=1 the ball of an even word holds only odd neighbours.
        n = 4
        rep = discriminating_report(Code.from_words([0], n), 1)
        odd_total = 1 << (n - 1)
        covered = n  # the n weight-1 neighbours of the zero word
        assert rep.nc == odd_total - covered
        # covered vertices all share the singleton cover set {0}
        assert rep.ns == covered * (covered - 1) // 2 + (
            (odd_total - covered) * (odd_total - covered - 1) // 2
        )

    def test_even_radius_rejected(self):
        with pytest.raises(ValueError, match="for even r the property equals the one at r - 1, since an odd vertex"):
            discriminating_report(Code.from_words([0], 4), 2)

    def test_odd_weight_codeword_rejected(self):
        with pytest.raises(ValueError):
            discriminating_report(Code.from_words([0, 1], 4), 1)

    def test_odd_weight_message_names_the_first_odd_word(self):
        # the message reads the array: no tuple of every word is built for it
        code = Code(6, np.array([0, 3, 7, 11, 13], dtype=np.uint32))
        for call in (lambda: discriminating_report(code, 1), lambda: to_identifying(code)):
            with pytest.raises(ValueError, match=r"^codeword 7 has odd weight"):
                call()
        assert "words" not in vars(code)

    def test_radius_beyond_dim_rejected(self):
        with pytest.raises(ValueError):
            discriminating_report(Code.from_words([0], 4), 5)


def _report(rep):
    return rep.nc, rep.ns, rep.uncovered, rep.unseparated


class TestBijectionEdges:
    """discriminating_report is one identifying pass one dimension down; its
    edges (the smallest dimensions, r = dim, r = dim + 1) still answer for
    the odd half of F^dim, as brute force over that half says."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_smallest_dimensions(self, dim):
        evens = even_words(dim)
        for k in range(1, len(evens) + 1):
            for words in itertools.combinations(evens, k):
                for r in range(1, dim + 1, 2):
                    rep = discriminating_report(Code.from_words(words, dim), r)
                    assert _report(rep) == brute_report(words, dim, r, odd_only=True)

    @pytest.mark.parametrize("dim", [1, 3, 5, 7])  # r = dim must be odd
    def test_radius_dim_clamps_to_the_smaller_space(self, dim, rng):
        evens = even_words(dim)
        for _ in range(10):
            k = int(rng.integers(1, min(6, len(evens)) + 1))
            words = sorted(int(w) for w in rng.choice(evens, size=k, replace=False))
            rep = discriminating_report(Code.from_words(words, dim), dim)
            assert _report(rep) == brute_report(words, dim, dim, odd_only=True)
            # every ball holds the whole code: one class of all 2^(dim-1) odd vertices
            assert (rep.nc, rep.ns) == (0, (1 << (dim - 1)) * ((1 << (dim - 1)) - 1) // 2)

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_radius_past_dim_is_refused(self, dim):
        with pytest.raises(ValueError, match=rf"^radius {dim + 1} out of range for dim {dim}$"):
            discriminating_report(Code.from_words([0], dim), dim + 1)

    def test_one_pass_one_dimension_down(self, monkeypatch, rng):
        calls = []
        evaluate = convert._evaluate_static

        def spy(words, n, r):
            calls.append((words.copy(), n, r))
            return evaluate(words, n, r)

        monkeypatch.setattr(convert, "_evaluate_static", spy)
        monkeypatch.setattr(signatures, "_evaluate_static", spy)
        for dim, r in ((5, 1), (5, 3), (5, 5), (8, 3)):
            calls.clear()
            evens = even_words(dim)
            words = sorted(int(w) for w in rng.choice(evens, size=6, replace=False))
            code = Code.from_words(words, dim)
            rep = discriminating_report(code, r)
            assert len(calls) == 1
            got, n, radius = calls[0]
            assert (n, radius) == (dim - 1, min(r, dim - 1))
            assert np.array_equal(got, code.array >> 1)
            assert _report(rep) == brute_report(words, dim, r, odd_only=True)


class TestCliConvertChecksOnce:
    """`convert --to discriminating` checks only the emitted code: by the
    bijection that one pass is the input's identifying check."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        evaluate = signatures._evaluate_static

        def spy(words, n, r):
            calls.append(n)
            return evaluate(words, n, r)

        monkeypatch.setattr(convert, "_evaluate_static", spy)
        monkeypatch.setattr(signatures, "_evaluate_static", spy)
        return calls

    def test_one_static_pass(self, passes, tmp_path, capsys):
        from idcodes.exact import min_identifying

        path = tmp_path / "c.txt"
        write_code_file(path, min_identifying(1, 4).code, 1)
        passes.clear()  # the search's own re-check of its minimum is not convert's
        assert main(["convert", str(path), "--to", "discriminating", "--json"]) == 0
        assert passes == [4]

    def test_failure_names_the_input(self, passes, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        write_code_file(path, Code.from_words([0, 1], 4), 1)
        assert main(["convert", str(path), "--to", "discriminating"]) == 1
        assert capsys.readouterr().out == "error input code is not identifying\n"
        assert passes == [4]
