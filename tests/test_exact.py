import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idcodes
from idcodes import Code, diagnose, exact, is_identifying, signatures
from idcodes.convert import is_discriminating, to_identifying
from idcodes.exact import (
    _CANONICAL_DEPTH,
    MAX_EXACT_DIM,
    SearchOutcome,
    is_separating,
    min_discriminating,
    min_identifying,
    min_separating,
)
from idcodes.hypercube import ball_offsets, permute_words

from conftest import ReferenceSearcher, oracle_eval, random_code, reference_canonical


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

    def test_one_is_separating(self):
        # the predicate lives in signatures; the exact layer and the package re-export it
        assert is_separating is signatures.is_separating is idcodes.is_separating


class TestMinIdentifying:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_naive_enumeration(self, n):
        want, _ = naive_min_identifying(n, 1)
        got = min_identifying(1, n, start_size=1)
        assert got.size == want
        assert got.minimal
        assert got.infeasible_sizes == tuple(range(1, want))
        assert diagnose(got.code, 1).f == 0

    def test_r2_n3_against_naive(self):
        want, _ = naive_min_identifying(3, 2)
        got = min_identifying(2, 3, start_size=1)
        assert got.size == want
        assert diagnose(got.code, 2).f == 0

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
        assert diagnose(got.code, 1).f == 0

    def test_m3_5_is_10(self):
        # settles the only open cell of the r=3 row at n=5: size 9 is
        # infeasible, so the tabulated upper bound 10 is the exact value
        got = min_identifying(3, 5)
        assert got.size == 10
        assert got.minimal
        assert got.infeasible_sizes == (9,)
        assert diagnose(got.code, 3).f == 0

    def test_budget_exhaustion_returns_open_outcome(self):
        got = min_identifying(1, 5, budget=3, start_size=1)
        assert got.code is None
        assert got.size is None
        assert not got.minimal
        assert got.nodes >= 3

    # min_identifying(1, 5) starts at size 10 and visits 4,949 nodes: node 1
    # is the root, node 101 sits at depth 7, and node 4,949 is the only leaf,
    # the code itself.  The node past the budget is counted, then refused.
    @pytest.mark.parametrize("budget", [0, 100, 4948])
    def test_budget_counts_the_refused_node(self, budget):
        got = min_identifying(1, 5, budget=budget)
        assert got.code is None and not got.minimal
        assert got.nodes == budget + 1
        assert got.infeasible_sizes == ()

    @pytest.mark.parametrize("search", [
        lambda: min_identifying(1, 5, budget=-3),
        lambda: min_discriminating(1, 6, budget=-1),
    ], ids=["identifying", "discriminating"])
    def test_negative_budget_rejected(self, search):
        with pytest.raises(ValueError, match="budget"):
            search()

    def test_budget_equal_to_the_node_count_suffices(self):
        got = min_identifying(1, 5, budget=4949)
        assert got.size == 10 and got.minimal
        assert got.nodes == 4949

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

    def test_result_outside_the_registry_bracket_is_refused(self, monkeypatch):
        # the minimum must lie in [M_k(p) - 1, M_k(p)] when the registry knows
        # M_k(p) exactly; a tampered cell (1, 4) = 9..9 puts the true 6 outside
        from idcodes import bounds

        table = dict(bounds.load_registry())
        rec = table[(1, 4)]
        table[(1, 4)] = bounds.BoundRecord(1, 4, 9, 9, rec.lower_key, rec.upper_key)
        monkeypatch.setattr(bounds, "_REGISTRY", table)
        with pytest.raises(RuntimeError, match=r"^separating minimum 6 outside \[8, 9\] for k=1, p=4$"):
            min_separating(4, 1)

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
        with pytest.raises(ValueError, match="for even r the property equals the one at r - 1, since an odd vertex"):
            min_discriminating(2, 4)  # even radius
        with pytest.raises(ValueError):
            min_discriminating(1, 7)  # above the cap
        with pytest.raises(ValueError):
            min_discriminating(5, 4)  # radius beyond dim

    @pytest.mark.parametrize("r,n", [(1, 2), (3, 3), (3, 4), (5, 5), (5, 6)])
    def test_radius_without_a_code_is_refused(self, r, n):
        # for n >= 2 every odd vertex shares its cover set with another
        # once r > n - 2, so the search must refuse instead of exhausting
        with pytest.raises(ValueError, match="need r <= n - 2"):
            min_discriminating(r, n)

    def test_dimension_one_keeps_its_code(self):
        got = min_discriminating(1, 1)
        assert got.size == 1 and is_discriminating(got.code, 1)


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
    # lex-leader pruning is on by default at every n; the node counts pin
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

    @pytest.mark.parametrize(
        "r,nodes,words",
        [
            (1, 7402, (0, 3, 5, 9, 17, 30, 46, 54, 58, 60)),
            (3, 10219, (0, 3, 5, 9, 17, 30, 46, 54, 58, 60)),
        ],
    )
    def test_n6_discriminating_outcome(self, r, nodes, words):
        got = min_discriminating(r, 6)
        assert (got.size, got.nodes, got.infeasible_sizes) == (10, nodes, tuple(range(1, 10)))
        assert tuple(got.code.words) == words

    @pytest.mark.parametrize(
        "r,kwargs,size,nodes,infeasible,words",
        [
            (3, {}, 7, 43, tuple(range(1, 7)), (0, 15, 51, 60, 85, 90, 102)),
            (1, {"budget": 20_000}, None, 20_001, tuple(range(1, 11)), None),
        ],
    )
    def test_n7_discriminating_outcome(self, r, kwargs, size, nodes, infeasible, words):
        # recorded with np.sort before the min/max network: the lex-leader
        # test over 5,039 permutations must keep every decision
        got = min_discriminating(r, 7, cap=7, **kwargs)
        assert (got.size, got.nodes, got.infeasible_sizes) == (size, nodes, infeasible)
        assert (None if got.code is None else tuple(got.code.words)) == words

    @pytest.mark.parametrize("r", [1, 3])
    def test_n6_discriminating_without_pruning_agrees(self, r):
        on = min_discriminating(r, 6)
        off = min_discriminating(r, 6, canonical=False)
        assert (on.size, on.infeasible_sizes) == (off.size, off.infeasible_sizes)
        assert on.nodes < off.nodes

    @given(data=st.data())
    @settings(max_examples=300)
    def test_numpy_check_matches_loop(self, data):
        # 0^n plus 1 to _CANONICAL_DEPTH + 1 increasing words
        n = data.draw(st.integers(3, 7), label="n")
        k = data.draw(st.integers(1, min(_CANONICAL_DEPTH + 1, (1 << n) - 1)), label="k")
        rest = data.draw(st.sets(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
        words = (0, *sorted(rest))
        assert _lex_searcher(n)._canonical(words) == reference_canonical(words, n)
        # the searcher is shared and keeps its verdicts: recompute this one
        del _lex_searcher(n).verdicts[words]
        assert _lex_searcher(n)._canonical(words) == reference_canonical(words, n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_numpy_check_matches_loop_on_every_small_code(self, n):
        searcher = _lex_searcher(n)
        leaders = 0
        for k in range(1, _CANONICAL_DEPTH + 2):
            for rest in itertools.combinations(range(1, 1 << n), k):
                words = (0, *rest)
                verdict = searcher._canonical(words)
                assert verdict == reference_canonical(words, n), words
                leaders += verdict
                del searcher.verdicts[words]  # the uncached verdict too
                assert searcher._canonical(words) == verdict, words
        assert leaders > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_doubled_table_equals_one_shot_build(self, n):
        # only the n unit words are permuted, and row w | 2^k is row w ORed
        # with row 2^k; row w must still be w's image under every permutation
        # but the identity, column j the j-th in itertools order
        others = itertools.islice(itertools.permutations(range(1, n + 1)), 1, None)
        perms = np.array(list(others)).reshape(-1, n)
        want = permute_words(np.arange(1 << n), perms, n).T
        np.testing.assert_array_equal(_lex_searcher(n).images, want)

    def test_n8_set_up_stays_small(self):
        # the 10.3 MB table plus the unit words' images: 11.5 MiB; permuting
        # every word, in uint32 slices of 7! permutations, peaked at 27.5 MiB
        tracemalloc.start()
        try:
            exact._Searcher(8, 1, list(range(256)), (1 << 256) - 1, False, None, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20, f"the n = 8 set-up peaked at {peak / 2**20:.2f} MiB"

    def test_n7_table_is_one_byte_per_image(self):
        images = _lex_searcher(7).images
        assert images.shape == (128, 5039)
        assert images.dtype.itemsize == 1
        assert images.flags.c_contiguous


@functools.cache
def _lex_searcher(n):
    """A searcher over all of F^n at radius 1, for its lex-leader test."""
    return exact._Searcher(n, 1, list(range(1 << n)), (1 << (1 << n)) - 1, False, None, True)


class TestTheorem:
    # the paper's theorem, by exhaustion: for odd r, deleting a coordinate
    # maps the r-discriminating codes of F^(n+1) one-to-one onto the
    # r-identifying codes of F^n, so the two minima are equal
    @pytest.mark.parametrize(
        "r,n", [(r, n) for r in (1, 3) for n in range(2, 6) if r < n]
    )
    def test_identifying_minimum_equals_discriminating_one_up(self, r, n):
        ident = min_identifying(r, n, start_size=1)
        disc = min_discriminating(r, n + 1)
        assert ident.minimal and disc.minimal
        assert ident.size == disc.size
        back = to_identifying(disc.code)
        assert len(back) == disc.size
        assert diagnose(back, r).f == 0


class TestPartnerRadius:
    # for r < r' = n - r - 1, B_r'(x) is the complement of B_r(x^1...1): an
    # r-identifying code is r'-identifying unless one B_r(y) holds all of
    # it, and an r'-identifying code plus one word is r-identifying
    @pytest.mark.parametrize("n,r,partner", [(4, 1, 2), (5, 1, 3)])
    def test_minima_differ_by_at_most_one(self, n, r, partner):
        m_r = min_identifying(r, n, start_size=1)
        m_partner = min_identifying(partner, n, start_size=1)
        assert m_r.minimal and m_partner.minimal
        assert m_partner.size <= m_r.size <= m_partner.size + 1

    @given(data=st.data())
    @settings(max_examples=100)
    def test_partner_ball_is_a_complement(self, data):
        n = data.draw(st.integers(3, 9), label="n")
        r = data.draw(st.integers(0, (n - 2) // 2), label="r")
        code = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
        x = data.draw(st.integers(0, (1 << n) - 1), label="x")
        ball = set((ball_offsets(n, n - r - 1) ^ x).tolist())
        antiball = set((ball_offsets(n, r) ^ (x ^ ((1 << n) - 1))).tolist())
        assert code & ball == code - (code & antiball)


class TestGoldenOutcomes:
    # whole outcomes, recorded before the search loop was restructured:
    # canonical pruning off at n = 4 and at n = 6, and an open budgeted run;
    # then, recorded before _split checked each cut piece at once and the
    # lex-leader table was built by doubling, the bench's budgeted cell and
    # the r = 3, n = 7 tree from size 1
    @pytest.mark.parametrize(
        "search,args,kwargs,size,nodes,start,infeasible,words",
        [
            (min_identifying, (1, 4), {"start_size": 1, "canonical": False},
             7, 743, 1, (1, 2, 3, 4, 5, 6), (0, 1, 2, 5, 6, 11, 13)),
            (min_discriminating, (1, 6), {"canonical": False},
             10, 92389, 1, tuple(range(1, 10)),
             (0, 3, 5, 9, 17, 30, 46, 54, 58, 60)),
            (min_identifying, (1, 6), {"budget": 50_000, "cap": 6, "canonical": False},
             None, 50001, 18, (), None),
            (min_identifying, (1, 6), {"cap": 6, "budget": 200_000},
             None, 200_001, 18, (), None),
            (min_identifying, (3, 7), {"cap": 7, "start_size": 1},
             8, 46, 1, tuple(range(1, 8)), (0, 1, 6, 25, 42, 45, 51, 52)),
        ],
    )
    def test_outcome(self, search, args, kwargs, size, nodes, start, infeasible, words):
        got = search(*args, **kwargs)
        assert got.size == size
        assert got.nodes == nodes
        assert got.start_size == start
        assert got.infeasible_sizes == infeasible
        assert got.minimal == (size is not None)
        assert (None if got.code is None else tuple(got.code.words)) == words


class TestReferenceSearch:
    # same rules in a different order, so the same nodes in the same order
    @pytest.mark.parametrize(
        "search,args,kwargs",
        [(min_identifying, (r, n), {"start_size": 1, "canonical": c})
         for n in (3, 4) for r in range(1, n) for c in (True, False)]
        + [(min_identifying, (1, 5), {}), (min_identifying, (3, 5), {}),
           (min_identifying, (1, 5), {"start_size": 1, "budget": 3000}),
           (min_identifying, (1, 6), {"cap": 6, "budget": 2000})]
        + [(min_separating, (p, k), {}) for p in (2, 3, 4) for k in range(p)]
        + [(min_separating, (5, 1), {}), (min_separating, (5, 4), {"budget": 5000})]
        + [(min_discriminating, (r, n), {}) for r, n in ((1, 3), (1, 4), (1, 5), (3, 5))]
        + [(min_discriminating, (1, 6), {"budget": 5000})],
    )
    def test_outcome_matches_reference(self, monkeypatch, search, args, kwargs):
        got = search(*args, **kwargs)
        monkeypatch.setattr(exact, "_Searcher", ReferenceSearcher)
        assert got == search(*args, **kwargs)

    @given(data=st.data())
    @settings(max_examples=120)
    def test_random_outcome_matches_reference(self, data):
        kind = data.draw(st.sampled_from(["identifying", "separating", "discriminating"]))
        if kind == "identifying":
            n = data.draw(st.integers(2, 5), label="n")
            r = data.draw(st.integers(1, n - 1), label="r")
            search, args = min_identifying, (r, n)
            kwargs = {"start_size": data.draw(st.integers(1, 1 << (n - 1)), label="start_size")}
        elif kind == "separating":
            n = data.draw(st.integers(2, 5), label="p")
            search, args, kwargs = min_separating, (n, data.draw(st.integers(0, n - 1), label="k")), {}
        else:
            n = data.draw(st.integers(3, 6), label="n")
            r = data.draw(st.sampled_from(range(1, n - 1, 2)), label="r")
            search, args = min_discriminating, (r, n)
            kwargs = {"start_size": data.draw(st.integers(1, 1 << (n - 2)), label="start_size")}
        kwargs["canonical"] = data.draw(st.booleans(), label="canonical")
        # a budget at n >= 5, so that no case runs (5,4) or n = 6 to the end
        most = st.integers(0, 3000)
        kwargs["budget"] = data.draw(most if n >= 5 else st.none() | most, label="budget")
        got = search(*args, **kwargs)
        with mock.patch.object(exact, "_Searcher", ReferenceSearcher):
            assert got == search(*args, **kwargs)

    @given(budget=st.integers(0, 12_000))
    @settings(max_examples=30)
    def test_budget_stop_inside_counted_children(self, budget):
        # from the registry's 18, many (1,6) nodes leave more vertices
        # uncovered than one ball can rescue; their children are counted at
        # once, and the budget may stop the search inside such a run
        got = min_identifying(1, 6, cap=6, budget=budget)
        with mock.patch.object(exact, "_Searcher", ReferenceSearcher):
            assert got == min_identifying(1, 6, cap=6, budget=budget)


class TestOutcomeShape:
    def test_fields(self):
        got = min_identifying(1, 3)
        assert isinstance(got, SearchOutcome)
        assert got.size == len(got.code)
        assert got.nodes > 0
        assert got.start_size <= got.size


class TestFoundCodesAreReChecked:
    """A code the bitset search hands back passes a static check of its
    property before it is returned, so a search fault cannot leak one."""

    @pytest.mark.parametrize("search,prop", [
        (lambda: min_identifying(1, 4), "1-identifying"),
        (lambda: min_separating(3, 1), "1-separating"),
        (lambda: min_discriminating(1, 4), "1-discriminating"),
    ], ids=["identifying", "separating", "discriminating"])
    def test_a_non_code_raises(self, search, prop, monkeypatch):
        monkeypatch.setattr(exact._Searcher, "search_size", lambda self, size: (0,))
        with pytest.raises(AssertionError, match=f"exact minimum is not {prop}"):
            search()
