import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import (
    BitVector,
    Code,
    apply_isometry,
    ball,
    ball_size,
    direct_sum,
    distance,
    full_space,
    is_identifying,
    sphere,
)
from idcodes.hypercube import (
    MAX_DIM,
    annulus_offsets,
    append_parity,
    ball_offsets,
    delete_coordinate,
    parity,
    permute_words,
)

from conftest import oracle_identifying


class TestBitVector:
    def test_str_is_fixed_width_binary(self):
        assert str(BitVector(5, 4)) == "0101"
        assert str(BitVector(0, 3)) == "000"

    def test_coordinate_one_is_most_significant(self):
        v = BitVector(0b100, 3)
        assert v.bit(1) == 1
        assert v.bit(2) == 0
        assert v.bit(3) == 0

    def test_weight_and_parity(self):
        assert BitVector(0b1011, 4).weight == 3
        assert parity(BitVector(0b1011, 4)) == 1
        assert parity(BitVector(0b1001, 4)) == 0

    def test_append_parity(self):
        assert append_parity(BitVector(0b10, 2)) == BitVector(0b101, 3)
        for w in range(16):
            v = append_parity(BitVector(w, 4))
            assert v.dim == 5
            assert v.weight % 2 == 0

    def test_complement(self):
        assert BitVector(0b101, 3).complement() == BitVector(0b010, 3)

    def test_out_of_range_word_rejected(self):
        with pytest.raises(ValueError):
            BitVector(8, 3)
        with pytest.raises(ValueError):
            BitVector(-1, 3)

    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            BitVector(0, 0)
        with pytest.raises(ValueError):
            BitVector(0, MAX_DIM + 1)

    def test_ordering_is_by_word(self):
        assert BitVector(2, 4) < BitVector(3, 4)


class TestDistance:
    def test_distance_counts_differing_coordinates(self):
        assert distance(BitVector(0b1100, 4), BitVector(0b1010, 4)) == 2
        assert distance(BitVector(0, 4), BitVector(0b1111, 4)) == 4

    def test_distance_requires_same_dim(self):
        with pytest.raises(ValueError):
            distance(BitVector(0, 3), BitVector(0, 4))

    def test_triangle_inequality_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a, b, c = (BitVector(int(rng.integers(1 << n)), n) for _ in range(3))
            assert distance(a, c) <= distance(a, b) + distance(b, c)


class TestBallsAndSpheres:
    def test_ball_size_formula(self):
        for n in range(1, 10):
            for r in range(n + 1):
                want = sum(math.comb(n, i) for i in range(r + 1))
                assert ball_size(n, r) == want

    def test_ball_contents(self):
        center = BitVector(0b0110, 4)
        b1 = {v.word for v in ball(center, 1)}
        assert b1 == {0b0110, 0b1110, 0b0010, 0b0100, 0b0111}

    def test_sphere_is_ball_shell(self):
        center = BitVector(9, 4)
        for r in range(5):
            shell = {v.word for v in sphere(center, r)}
            inner = {v.word for v in ball(center, r - 1)} if r else set()
            outer = {v.word for v in ball(center, r)}
            assert shell == outer - inner

    def test_ball_complement_identity(self):
        # vertices within r of x are exactly those farther than n-r-1
        # from the complement of x
        n = 6
        for r in range(n):
            x = BitVector(0b101001, n)
            b = {v.word for v in ball(x, r)}
            far = {
                v
                for v in range(1 << n)
                if bin(v ^ x.complement().word).count("1") > n - r - 1
            }
            assert b == far

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
            ball(BitVector(0, 4), 5)
        with pytest.raises(ValueError):
            sphere(BitVector(0, 4), -1)


class TestDeleteCoordinate:
    def test_delete_each_position(self):
        v = BitVector(0b10110, 5)
        assert delete_coordinate(v, 1).word == 0b0110
        assert delete_coordinate(v, 2).word == 0b1110
        assert delete_coordinate(v, 3).word == 0b1010
        assert delete_coordinate(v, 5).word == 0b1011

    def test_delete_bad_position(self):
        with pytest.raises(ValueError):
            delete_coordinate(BitVector(0, 3), 0)
        with pytest.raises(ValueError):
            delete_coordinate(BitVector(0, 3), 4)


class TestCode:
    def test_words_sorted_dedup(self):
        c = Code.from_words([5, 1, 5, 3], 3)
        assert c.words == (1, 3, 5)
        assert len(c) == 3
        assert 3 in c and 2 not in c
        assert BitVector(3, 3) in c and BitVector(3, 4) not in c

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

    def test_direct_sum_words(self):
        a = Code.from_words([0, 3], 2)
        b = Code.from_words([0, 1], 1)
        s = direct_sum(a, b)
        assert s.dim == 3
        assert s.words == (0, 1, 6, 7)  # high bits from the first factor


class TestIsometry:
    def test_identity(self):
        c = Code.from_words([1, 4, 6], 3)
        same = apply_isometry(c, BitVector(0, 3), [1, 2, 3])
        assert same.words == c.words

    def test_translation_preserves_distances(self, rng):
        n = 5
        c = Code.from_words(sorted(rng.choice(32, 6, replace=False).tolist()), n)
        t = BitVector(int(rng.integers(32)), n)
        moved = apply_isometry(c, t, list(range(1, n + 1)))
        before = sorted(bin(a ^ b).count("1") for a in c for b in c)
        after = sorted(bin(a ^ b).count("1") for a in moved for b in moved)
        assert before == after

    def test_isometry_preserves_identifying(self, rng):
        n, r = 4, 1
        base = Code.from_words([0, 1, 2, 4, 8, 15, 9], n)
        assert oracle_identifying(base.words, n, r) == is_identifying(base, r)
        for _ in range(10):
            perm = [int(p) for p in rng.permutation(n) + 1]
            t = BitVector(int(rng.integers(1 << n)), n)
            moved = apply_isometry(base, t, perm)
            assert is_identifying(moved, r) == is_identifying(base, r)

    def test_bad_perm_rejected(self):
        c = Code.from_words([0, 1], 3)
        with pytest.raises(ValueError):
            apply_isometry(c, BitVector(0, 3), [1, 1, 2])
        with pytest.raises(ValueError):
            apply_isometry(c, BitVector(0, 3), [1, 2])


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
    return Code.from_words(words, n), list(perm), BitVector(translate, n)


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
        moved = apply_isometry(code, translate, perm)
        assert len(moved) == len(code)
        before = sorted((a ^ b).bit_count() for a in code for b in code)
        after = sorted((a ^ b).bit_count() for a in moved for b in moved)
        assert before == after
        for r in range(1, code.dim):
            assert is_identifying(moved, r) == is_identifying(code, r)
