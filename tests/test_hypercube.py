import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Code, ball_size, direct_sum, full_space, is_identifying
from idcodes.codefile import parse_code_text
from idcodes.convert import to_discriminating, to_identifying
from idcodes.hypercube import (
    MAX_DIM,
    annulus_offsets,
    ball_offsets,
    odd_mask,
    permute_words,
)

from conftest import delete_coordinate, oracle_identifying, parity_extend


def ball(x, n, r):
    """The words within distance r of x."""
    return set((ball_offsets(n, r) ^ x).tolist())


def sphere(x, n, r):
    """The words at distance exactly r from x."""
    return set((annulus_offsets(n, r, r) ^ x).tolist())


def isometry(code, translate, perm):
    """Permute the coordinates of every codeword, then XOR-translate."""
    return Code.from_words((permute_words(code.words, perm, code.dim) ^ translate).tolist(), code.dim)


class TestBitVector:
    """A vertex is a plain int word; these pin the bit conventions that the
    modules read it by."""

    def test_str_is_fixed_width_binary(self):
        assert format(5, "04b") == "0101"
        assert format(0, "03b") == "000"

    def test_coordinate_one_is_most_significant(self):
        # output coordinate 3 takes input coordinate 1, the top bit
        assert permute_words([0b100], [2, 3, 1], 3).tolist() == [0b001]
        assert to_identifying(Code.from_words([0b110], 3), 1).words == (0b10,)
        assert to_identifying(Code.from_words([0b110], 3), 3).words == (0b11,)

    def test_weight_and_parity(self):
        assert odd_mask(4)[0b1011] and not odd_mask(4)[0b1001]
        assert to_discriminating(Code.from_words([0b1011], 4)).words == (0b10111,)
        assert to_discriminating(Code.from_words([0b1001], 4)).words == (0b10010,)

    def test_append_parity(self):
        assert to_discriminating(Code.from_words([0b10], 2)).words == (0b101,)
        out = to_discriminating(full_space(4))
        assert out.dim == 5
        assert out.words == tuple(parity_extend(w) for w in range(16))
        assert not odd_mask(5)[list(out.words)].any()

    def test_complement(self):
        # the complement is the one word at distance n
        assert (annulus_offsets(3, 3, 3) ^ 0b101).tolist() == [0b010]

    def test_out_of_range_word_rejected(self):
        with pytest.raises(ValueError):
            Code(3, (8,))
        with pytest.raises(ValueError):
            Code(3, (-1,))
        with pytest.raises(ValueError):
            Code.from_words([8], 3)

    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            Code(MAX_DIM + 1, (0,))
        with pytest.raises(ValueError):
            Code(0, (0,))
        with pytest.raises(ValueError):
            full_space(0)

    def test_ordering_is_by_word(self):
        # most significant bit first: integer order is the printed order
        code = Code.from_words([3, 0b1000, 2], 4)
        assert code.words == (2, 3, 8)
        printed = [format(w, "04b") for w in code.words]
        assert printed == sorted(printed)


class TestDistance:
    def test_distance_counts_differing_coordinates(self):
        assert 0b1010 in sphere(0b1100, 4, 2)
        assert 0b1111 in sphere(0, 4, 4)
        for x, y in itertools.product(range(16), repeat=2):
            assert y in sphere(x, 4, (x ^ y).bit_count())

    def test_triangle_inequality_random(self, rng):
        # a step of weight <= s then one of weight <= t stays within s + t,
        # and reaches all of it
        for _ in range(100):
            n = int(rng.integers(2, 9))
            s, t = (int(rng.integers(n + 1)) for _ in range(2))
            x = int(rng.integers(1 << n))
            steps = (ball_offsets(n, s)[:, None] ^ ball_offsets(n, t)[None, :]) ^ x
            assert set(steps.ravel().tolist()) == ball(x, n, min(n, s + t))


class TestBallsAndSpheres:
    def test_ball_size_formula(self):
        for n in range(1, 10):
            for r in range(n + 1):
                want = sum(math.comb(n, i) for i in range(r + 1))
                assert ball_size(n, r) == want
                assert len(ball_offsets(n, r)) == want

    def test_ball_contents(self):
        assert ball(0b0110, 4, 1) == {0b0110, 0b1110, 0b0010, 0b0100, 0b0111}

    def test_sphere_is_ball_shell(self):
        for r in range(5):
            inner = ball(9, 4, r - 1) if r else set()
            assert sphere(9, 4, r) == ball(9, 4, r) - inner

    def test_ball_complement_identity(self):
        # vertices within r of x are exactly those farther than n-r-1
        # from the complement of x
        n, x = 6, 0b101001
        for r in range(n):
            far = {v for v in range(1 << n) if (v ^ x ^ 0b111111).bit_count() > n - r - 1}
            assert ball(x, n, r) == far

    def test_offsets_cached_and_readonly(self):
        a = ball_offsets(5, 2)
        b = ball_offsets(5, 2)
        assert a is b
        assert not a.flags.writeable

    def test_annulus_offsets(self):
        offs = annulus_offsets(5, 2, 3)
        weights = sorted(set(int(bin(int(o)).count("1")) for o in offs))
        assert weights == [2, 3]
        assert len(offs) == math.comb(5, 2) + math.comb(5, 3)
        with pytest.raises(ValueError):
            annulus_offsets(5, 0, 6)

    def test_radius_range_errors(self):
        with pytest.raises(ValueError):
            ball_offsets(4, 5)
        with pytest.raises(ValueError):
            ball_offsets(4, -1)
        with pytest.raises(ValueError):
            annulus_offsets(4, 5, 5)


class TestDeleteCoordinate:
    def test_delete_each_position(self):
        v = 0b10110
        assert delete_coordinate(v, 1, 5) == 0b0110
        assert delete_coordinate(v, 2, 5) == 0b1110
        assert delete_coordinate(v, 3, 5) == 0b1010
        assert delete_coordinate(v, 5, 5) == 0b1011
        # convert's numpy path deletes the same way (it takes even words)
        even = 0b101101
        for pos in range(1, 7):
            got = to_identifying(Code.from_words([even], 6), pos).words
            assert got == (delete_coordinate(even, pos, 6),)

    def test_delete_bad_position(self):
        for pos in (0, 4):
            with pytest.raises(ValueError):
                delete_coordinate(0, pos, 3)
            with pytest.raises(ValueError):
                to_identifying(Code.from_words([0], 3), pos)


class TestCode:
    def test_words_sorted_dedup(self):
        c = Code.from_words([5, 1, 5, 3], 3)
        assert c.words == (1, 3, 5)
        assert len(c) == 3
        assert 3 in c and 2 not in c

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Code(3, ())

    def test_unsorted_constructor_rejected(self):
        with pytest.raises(ValueError):
            Code(3, (2, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Code(3, (0, 8))
        with pytest.raises(ValueError):
            Code(3, (-1, 2))
        with pytest.raises(ValueError):  # not an OverflowError
            Code(3, (0, 2**70))

    def test_non_integer_words_rejected(self):
        with pytest.raises(ValueError):
            Code(3, (1.5, 2))
        with pytest.raises(ValueError):
            Code.from_words([2, 1.5], 3)

    def test_full_space(self):
        c = full_space(4)
        assert len(c) == 16

    def _routes(self):
        """The even-weight code of F^4 built six ways, and a direct sum
        built two ways."""
        even = Code(4, (0, 3, 5, 6, 9, 10, 12, 15))
        return [
            even,
            Code(4, [0, 3, 5, 6, 9, 10, 12, 15]),
            Code(4, np.array(even.words, dtype=np.int64)),
            Code.from_words([15, 0, 3, 3, 12, 5, 6, 10, 9], 4),
            to_discriminating(full_space(3)),
            parse_code_text("n=4 r=1\n15 0 3 12 5 6 10 9\n").code,
        ], [
            Code(4, (0, 3, 5, 6, 8, 11, 13, 14)),
            direct_sum(Code(1, (0, 1)), Code(3, (0, 3, 5, 6))),
        ]

    def test_array_is_a_read_only_uint32_copy_of_the_words(self):
        for c in sum(self._routes(), []):
            assert c.array.dtype == np.uint32 and not c.array.flags.writeable
            assert c.array.tolist() == list(c.words)
            assert type(c.words) is tuple and all(type(w) is int for w in c.words)
            with pytest.raises(ValueError):
                c.array[0] = 1
        source = np.array([1, 2, 4], dtype=np.uint32)
        Code(3, source)
        assert source.flags.writeable  # the caller's array is copied, not frozen

    def test_code_is_immutable_and_keeps_only_its_array(self):
        c = Code(3, np.array([1, 2, 4]))
        for name, value in (("dim", 4), ("array", np.arange(3)), ("words", (1, 2))):
            with pytest.raises(AttributeError):
                setattr(c, name, value)
        assert c.words == (1, 2, 4) and all(type(w) is int for w in c.words)
        assert (c.dim, c.array.tolist()) == (3, [1, 2, 4])
        assert list(c) == [1, 2, 4] and 4 in c and repr(c) == "Code(dim=3, words=(1, 2, 4))"
        assert set(vars(c)) == {"dim", "array"}  # no cached copy of the words

    @pytest.mark.parametrize("dim, words", [(3, (1, 2, 4)), (1, (0,)), (9, (0, 7, 300, 511))])
    def test_membership_matches_the_tuple(self, dim, words):
        code = Code(dim, words)
        probes = [-1, 1 << dim, 1 << 40, 1 << 70, 2.0, 2.5, True]
        for w in words:
            probes += [w, w - 1, w + 1, np.uint64(w)]
        for x in probes:
            assert (x in code) == (x in tuple(code.array.tolist())), x

    def test_routes_agree_on_equality_hash_and_repr(self):
        for codes in self._routes():
            assert all(c == codes[0] and hash(c) == hash(codes[0]) for c in codes)
            assert len(set(codes)) == 1
        assert repr(self._routes()[0][2]) == "Code(dim=4, words=(0, 3, 5, 6, 9, 10, 12, 15))"

    @pytest.mark.parametrize("words", [
        (),
        (2, 1),
        (1, 1),
        (0, 8),
        (-1, 2),
        (1.5, 2),
        (True, False),
    ])
    def test_array_input_raises_the_tuple_errors(self, words):
        with pytest.raises(ValueError) as want:
            Code(3, words)
        with pytest.raises(ValueError) as got:
            Code(3, np.array(words))
        assert str(got.value) == str(want.value)

    def test_direct_sum_words(self):
        a = Code.from_words([0, 3], 2)
        b = Code.from_words([0, 1], 1)
        s = direct_sum(a, b)
        assert s.dim == 3
        assert s.words == (0, 1, 6, 7)  # high bits from the first factor


class TestIsometry:
    def test_identity(self):
        c = Code.from_words([1, 4, 6], 3)
        assert isometry(c, 0, [1, 2, 3]).words == c.words

    def test_translation_preserves_distances(self, rng):
        n = 5
        c = Code.from_words(sorted(rng.choice(32, 6, replace=False).tolist()), n)
        moved = isometry(c, int(rng.integers(32)), list(range(1, n + 1)))
        before = sorted(bin(a ^ b).count("1") for a in c for b in c)
        after = sorted(bin(a ^ b).count("1") for a in moved for b in moved)
        assert before == after

    def test_isometry_preserves_identifying(self, rng):
        n, r = 4, 1
        base = Code.from_words([0, 1, 2, 4, 8, 15, 9], n)
        assert oracle_identifying(base.words, n, r) == is_identifying(base, r)
        for _ in range(10):
            perm = [int(p) for p in rng.permutation(n) + 1]
            moved = isometry(base, int(rng.integers(1 << n)), perm)
            assert is_identifying(moved, r) == is_identifying(base, r)

    def test_bad_perm_rejected(self):
        with pytest.raises(ValueError):
            permute_words([0, 1], [1, 1, 2], 3)
        with pytest.raises(ValueError):
            permute_words([0, 1], [1, 2], 3)


def reference_permute(word, perm, dim):
    """The per-word loop that ``permute_words`` replaced, kept as its reference."""
    out = 0
    for i, src in enumerate(perm, start=1):
        bit = (word >> (dim - src)) & 1
        out |= bit << (dim - i)
    return out


@st.composite
def isometries(draw):
    n = draw(st.integers(1, 7), label="n")
    words = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=min(1 << n, 24)))
    perm = draw(st.permutations(range(1, n + 1)))
    translate = draw(st.integers(0, (1 << n) - 1))
    return Code.from_words(words, n), list(perm), translate


class TestPermuteWords:
    @settings(max_examples=100)
    @given(isometries())
    def test_matches_reference(self, iso):
        code, perm, _ = iso
        got = permute_words(code.words, perm, code.dim)
        assert got.tolist() == [reference_permute(w, perm, code.dim) for w in code.words]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_broadcasts_over_permutations(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        words = np.arange(1 << n)
        got = permute_words(words, perms, n)
        assert got.shape == (len(perms), 1 << n) and got.dtype == np.uint32
        for row, perm in zip(got.tolist(), perms):
            assert row == [reference_permute(w, perm, n) for w in range(1 << n)]
        assert permute_words(words, np.empty((0, n), dtype=int), n).shape == (0, 1 << n)

    @settings(max_examples=60)
    @given(isometries())
    def test_isometry_preserves_distances_and_identifying(self, iso):
        code, perm, translate = iso
        moved = isometry(code, translate, perm)
        assert len(moved) == len(code)
        before = sorted((a ^ b).bit_count() for a in code for b in code)
        after = sorted((a ^ b).bit_count() for a in moved for b in moved)
        assert before == after
        for r in range(1, code.dim):
            assert is_identifying(moved, r) == is_identifying(code, r)
