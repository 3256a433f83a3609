import itertools

import pytest

from idcodes import Code, evaluate, is_identifying
from idcodes.convert import is_discriminating
from idcodes.exact import (
    MAX_EXACT_DIM,
    SearchOutcome,
    is_separating,
    min_discriminating,
    min_identifying,
    min_separating,
)

from conftest import oracle_eval, random_code


def _ball_masks(n, r):
    masks = []
    for c in range(1 << n):
        m = 0
        for v in range(1 << n):
            if bin(c ^ v).count("1") <= r:
                m |= 1 << v
        masks.append(m)
    return masks


def naive_minimum(n, r, candidates, targets, need_all_covered):
    """Smallest qualifying subset by plain enumeration in size order.

    Deliberately shares nothing with the production search: signatures are
    per-vertex integers, there is no pruning beyond a coverage pre-check,
    and no vertex is fixed in advance.
    """
    masks = _ball_masks(n, r)
    for size in range(1, len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            if need_all_covered:
                cov = 0
                for c in subset:
                    cov |= masks[c]
                if any(not (cov >> v) & 1 for v in targets):
                    continue
            sigs = {}
            ok = True
            for v in targets:
                sig = 0
                for i, c in enumerate(subset):
                    if (masks[c] >> v) & 1:
                        sig |= 1 << i
                if need_all_covered and sig == 0:
                    ok = False
                    break
                if sig in sigs.values():
                    ok = False
                    break
                sigs[v] = sig
            if ok:
                return size, subset
    return None, None


def naive_min_identifying(n, r):
    return naive_minimum(n, r, list(range(1 << n)), list(range(1 << n)), True)


def naive_min_separating(p, k):
    return naive_minimum(p, k, list(range(1 << p)), list(range(1 << p)), False)


def naive_min_discriminating(n, r):
    evens = [w for w in range(1 << n) if bin(w).count("1") % 2 == 0]
    odds = [w for w in range(1 << n) if bin(w).count("1") % 2 == 1]
    return naive_minimum(n, r, evens, odds, True)


class TestIsSeparating:
    def test_matches_ns_zero(self, rng):
        for _ in range(30):
            code = random_code(rng, 4)
            for k in range(0, 4):
                _, ns = oracle_eval(code.words, 4, k)
                assert is_separating(code, k) == (ns == 0)

    def test_identifying_implies_separating(self):
        code = Code.from_words([0, 1, 2, 4, 8, 15, 9], 4)
        if is_identifying(code, 1):
            assert is_separating(code, 1)

    def test_radius_range(self):
        with pytest.raises(ValueError):
            is_separating(Code.from_words([0], 3), 4)


class TestMinIdentifying:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_naive_enumeration(self, n):
        want, _ = naive_min_identifying(n, 1)
        got = min_identifying(1, n, start_size=1)
        assert got.size == want
        assert got.minimal
        assert got.infeasible_sizes == tuple(range(1, want))
        assert evaluate(got.code, 1).f == 0

    def test_r2_n3_against_naive(self):
        want, _ = naive_min_identifying(3, 2)
        got = min_identifying(2, 3, start_size=1)
        assert got.size == want
        assert evaluate(got.code, 2).f == 0

    def test_registry_start_agrees_with_cold_start(self):
        cold = min_identifying(1, 4, start_size=1)
        warm = min_identifying(1, 4)
        assert cold.size == warm.size == 7
        assert warm.start_size >= cold.start_size

    def test_canonical_toggle_agrees(self):
        a = min_identifying(1, 4, start_size=1, canonical=True)
        b = min_identifying(1, 4, start_size=1, canonical=False)
        assert a.size == b.size == 7
        assert a.infeasible_sizes == b.infeasible_sizes

    def test_m1_5_is_10(self):
        got = min_identifying(1, 5)
        assert got.size == 10
        assert got.minimal
        assert evaluate(got.code, 1).f == 0

    def test_m3_5_is_10(self):
        # settles the only open cell of the r=3 row at n=5: size 9 is
        # infeasible, so the tabulated upper bound 10 is the exact value
        got = min_identifying(3, 5)
        assert got.size == 10
        assert got.minimal
        assert got.infeasible_sizes == (9,)
        assert evaluate(got.code, 3).f == 0

    def test_budget_exhaustion_returns_open_outcome(self):
        got = min_identifying(1, 5, budget=3, start_size=1)
        assert got.code is None
        assert got.size is None
        assert not got.minimal
        assert got.nodes >= 3

    def test_determinism(self):
        a = min_identifying(1, 4)
        b = min_identifying(1, 4)
        assert a.code.words == b.code.words
        assert a.nodes == b.nodes

    def test_range_errors(self):
        with pytest.raises(ValueError):
            min_identifying(0, 3)
        with pytest.raises(ValueError):
            min_identifying(3, 3)
        with pytest.raises(ValueError):
            min_identifying(1, 6)  # above the default exhaustive cap


class TestMinSeparating:
    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (3, 2), (4, 1)])
    def test_against_naive_enumeration(self, p, k):
        want, _ = naive_min_separating(p, k)
        got = min_separating(p, k)
        assert got.size == want
        assert got.minimal
        assert is_separating(got.code, k)

    def test_k_zero_needs_two_words(self):
        # with cover radius 0 each codeword separates only itself, so all
        # but one vertex must be codewords
        got = min_separating(2, 0)
        assert got.size == 3

    def test_bracket_against_identifying_minimum(self):
        # dropping the all-covered constraint saves at most one codeword
        for p, k in [(3, 1), (4, 1), (5, 1)]:
            sep = min_separating(p, k)
            ident = min_identifying(k, p)
            assert ident.size - 1 <= sep.size <= ident.size

    def test_range_errors(self):
        with pytest.raises(ValueError):
            min_separating(6, 1)
        with pytest.raises(ValueError):
            min_separating(3, 3)


class TestMinDiscriminating:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_against_naive_enumeration(self, n):
        want, _ = naive_min_discriminating(n, 1)
        got = min_discriminating(1, n)
        assert got.size == want
        assert got.minimal
        assert is_discriminating(got.code, 1)

    def test_transposition_to_identifying(self):
        # the parity bridge shifts the dimension by one at equal size
        for n in (3, 4, 5):
            assert min_discriminating(1, n).size == min_identifying(
                1, n - 1, start_size=1
            ).size

    def test_r3_case(self):
        got = min_discriminating(3, 5)
        assert is_discriminating(got.code, 3)
        want, _ = naive_min_discriminating(5, 3)
        assert got.size == want

    def test_canonical_toggle_agrees(self):
        a = min_discriminating(1, 4, canonical=True)
        b = min_discriminating(1, 4, canonical=False)
        assert a.size == b.size

    def test_range_errors(self):
        with pytest.raises(ValueError):
            min_discriminating(2, 4)  # even radius
        with pytest.raises(ValueError):
            min_discriminating(1, 7)  # above the cap
        with pytest.raises(ValueError):
            min_discriminating(5, 4)  # radius beyond dim


class TestSearchGuards:
    def test_start_size_out_of_range(self):
        # no size beyond the candidate count exists, and size 0 must never
        # be reported as proved infeasible
        for start_size in (0, 9, 100):
            with pytest.raises(ValueError, match="start_size"):
                min_identifying(1, 3, start_size=start_size)
        for start_size in (0, 9):  # F^4 has 8 even candidates
            with pytest.raises(ValueError, match="start_size"):
                min_discriminating(1, 4, start_size=start_size)

    def test_dimension_ceiling_overrides_cap(self):
        n = MAX_EXACT_DIM + 1
        with pytest.raises(ValueError, match="exhaustive cap"):
            min_identifying(1, n, cap=n)
        with pytest.raises(ValueError, match="exhaustive cap"):
            min_discriminating(1, n, cap=n)


class TestCanonicalPruning:
    # lex-leader pruning is on by default for n <= 5; the node counts pin
    # the permutation tables it walks
    @pytest.mark.parametrize(
        "search,args,nodes",
        [
            (min_identifying, (1, 5), 4949),
            (min_identifying, (3, 5), 15419),
            (min_separating, (5, 1), 17212),
            (min_separating, (5, 3), 16167),
            (min_discriminating, (1, 5), 182),
        ],
    )
    def test_node_counts(self, search, args, nodes):
        assert search(*args).nodes == nodes


class TestOutcomeShape:
    def test_fields(self):
        got = min_identifying(1, 3)
        assert isinstance(got, SearchOutcome)
        assert got.size == len(got.code)
        assert got.nodes > 0
        assert got.start_size <= got.size
