import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Code, evaluate
from idcodes.exact import min_identifying, min_separating
from idcodes.extend import (
    ExtensionError,
    ExtensionPlan,
    VerificationFailed,
    apply_plan,
    compute_x_set,
    cover_annulus,
    extend_c1,
    extend_c2,
    plan_c1,
    plan_c2,
)
from idcodes.heuristics import greedy_construct

from conftest import brute_report, random_code


def brute_x_set(code, r1, p, r2):
    """X by definition: no codeword at distance in [r1-p+r2+1, r1+r2]."""
    n = code.dim
    lo = max(0, r1 - p + r2 + 1)
    hi = min(n, r1 + r2)
    if lo > hi:
        return set(range(1 << n))
    out = set()
    for v in range(1 << n):
        if not any(lo <= bin(v ^ c).count("1") <= hi for c in code.words):
            out.add(v)
    return out


@pytest.fixture(scope="module")
def base14():
    return min_identifying(1, 4).code


@pytest.fixture(scope="module")
def base15():
    return min_identifying(1, 5).code


@pytest.fixture(scope="module")
def base36():
    return greedy_construct(3, 6, seed=0)


class TestXSet:
    def test_matches_definition_on_random_codes(self, rng):
        for _ in range(12):
            code = random_code(rng, 5)
            for r1, p, r2 in [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 1, 1), (3, 2, 1)]:
                got = set(compute_x_set(code, r1, p, r2))
                assert got == brute_x_set(code, r1, p, r2)

    def test_full_space_base_has_empty_x(self):
        code = Code.from_words(range(8), 3)
        assert compute_x_set(code, 1, 1) == ()

    def test_identifying_base_with_large_p_has_empty_x(self, base14):
        # band reaches down to 0, so covered vertices cannot land in X
        assert compute_x_set(base14, 1, 2) == ()

    def test_empty_band_returns_all_vertices(self):
        # lo > hi: nothing can satisfy the band, every vertex is in X
        code = Code.from_words([0], 3)
        got = compute_x_set(code, 3, 1, 3)
        assert len(got) == 8

    def test_x_shrinks_as_p_grows(self, base15):
        prev = None
        for p in (1, 2, 3):
            cur = set(compute_x_set(base15, 1, p))
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_known_case(self, base15):
        assert len(compute_x_set(base15, 1, 1)) == 5

    def test_bad_arguments(self):
        code = Code.from_words([0], 3)
        with pytest.raises(ExtensionError):
            compute_x_set(code, 0, 1)
        with pytest.raises(ExtensionError):
            compute_x_set(code, 1, 0)


class TestCoverAnnulus:
    def test_postcondition(self, rng):
        n = 6
        for lo, hi in [(0, 1), (1, 1), (2, 3), (0, 0)]:
            xs = sorted(
                int(w) for w in rng.choice(1 << n, size=10, replace=False)
            )
            ys = cover_annulus(xs, lo, hi, n)
            for x in xs:
                assert any(
                    lo <= bin(x ^ y).count("1") <= hi for y in ys
                )

    def test_empty_input(self):
        assert cover_annulus([], 0, 1, 4) == ()

    def test_distance_zero_needs_every_member(self):
        xs = [3, 5, 9]
        ys = cover_annulus(xs, 0, 0, 4)
        assert ys == tuple(xs)

    def test_deterministic(self, rng):
        xs = sorted(int(w) for w in rng.choice(64, size=12, replace=False))
        a = cover_annulus(xs, 1, 2, 6)
        b = cover_annulus(list(reversed(xs)), 1, 2, 6)
        assert a == b

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            cover_annulus([0], 2, 1, 4)
        with pytest.raises(ValueError):
            cover_annulus([0], 0, 5, 4)
        with pytest.raises(ValueError):
            cover_annulus([16], 0, 1, 4)


class TestC1:
    def test_empty_x_is_plain_direct_sum(self, base14):
        plan = plan_c1(base14, 1, 2)
        assert plan.x_set == ()
        assert plan.y_set == ()
        out = apply_plan(plan)
        assert len(out) == 4 * len(base14) == plan.predicted_size() == 28
        assert out.dim == 6
        assert evaluate(out, 1).f == 0

    def test_single_step_with_patch(self, base15):
        plan = plan_c1(base15, 1, 1)
        assert len(plan.x_set) == 5
        assert len(plan.y_set) == 1
        out = apply_plan(plan)
        assert len(out) == 21
        assert out.dim == 6
        assert evaluate(out, 1).f == 0

    def test_radius_increasing_step(self, base14):
        out = extend_c1(base14, 1, 1, r2=1)
        assert out.dim == 5
        assert evaluate(out, 2).f == 0
        assert len(out) == 14

    def test_predicted_size_is_exact_without_overlap(self, base15):
        plan = plan_c1(base15, 1, 1)
        overlap = set(plan.y_set) & set(base15.words)
        out = apply_plan(plan)
        if not overlap:
            assert len(out) == plan.predicted_size()
        else:
            assert len(out) < plan.predicted_size()

    def test_plan_fields_and_report(self, base14):
        plan = plan_c1(base14, 1, 2)
        assert plan.construction == "C1"
        assert plan.out_radius == 1
        assert plan.out_dim == 6
        text = "\n".join(plan.report_lines())
        assert "construction C1" in text
        assert "|X| 0" in text

    def test_non_identifying_base_rejected(self):
        with pytest.raises(VerificationFailed):
            plan_c1(Code.from_words([0, 1], 4), 1, 1)

    def test_range_policy(self, base14):
        # a radius-increasing step must not outrun the base radius
        with pytest.raises(ExtensionError):
            plan_c1(base14, 1, 2, r2=1)
        with pytest.raises(ExtensionError):
            plan_c1(base14, 1, 1, r2=2)


class TestC2:
    def test_empty_x_case(self, base36):
        separ = min_separating(3, 1).code
        out = extend_c2(base36, 3, 3, 0, 1, separ)
        assert out.dim == 9
        assert len(out) == 8 * len(base36) == 56
        assert evaluate(out, 3).f == 0

    def test_nonempty_x_uses_patch(self, base36):
        separ = min_separating(2, 1).code
        plan = plan_c2(base36, 3, 2, 2, 1, separ)
        assert len(plan.x_set) == 8
        assert len(plan.y_set) == 4
        assert plan.construction == "C2"
        out = apply_plan(plan)
        assert out.dim == 8
        assert len(out) == len(base36) * 4 + 4 * len(separ) == 40
        assert evaluate(out, 5).f == 0

    def test_separating_factor_dim_checked(self, base36):
        separ = min_separating(2, 1).code
        with pytest.raises(ExtensionError):
            plan_c2(base36, 3, 3, 0, 1, separ)

    def test_non_separating_factor_rejected(self, base36):
        # {00, 11} leaves 01 and 10 with the same cover set at radius 1
        bad = Code.from_words([0, 3], 2)
        with pytest.raises(VerificationFailed):
            plan_c2(base36, 3, 2, 2, 1, bad)

    def test_k_range_enforced_even_with_force(self, base36):
        separ = min_separating(2, 1).code
        with pytest.raises(ExtensionError):
            plan_c2(base36, 3, 2, 2, 2, separ, force=True)

    def test_default_policy_requires_p_at_least_3(self, base36):
        separ = min_separating(2, 1).code
        with pytest.raises(ExtensionError):
            plan_c2(base36, 3, 2, 0, 1, separ)

    def test_force_bypasses_payoff_policy(self, base36):
        separ = min_separating(2, 0).code
        plan = plan_c2(base36, 3, 2, 0, 0, separ, force=True)
        out = apply_plan(plan)
        assert evaluate(out, 3).f == 0

    def test_report_mentions_factor(self, base36):
        separ = min_separating(2, 1).code
        plan = plan_c2(base36, 3, 2, 2, 1, separ)
        text = "\n".join(plan.report_lines())
        assert "construction C2" in text
        assert "separating factor" in text


class TestOutputAlwaysVerified:
    def test_forced_bad_combination_raises_not_returns(self):
        # force skips the range policy, never the output check; a combo
        # that fails the definition must raise instead of returning
        base = min_identifying(1, 3).code
        try:
            out = extend_c1(base, 1, 1, r2=1, force=True)
        except VerificationFailed:
            return
        assert evaluate(out, 2).f == 0


def _by_definition(plan):
    """(C (+) F^p) union (Y (+) patch), word by word; the patch is
    F^p - {0^p} for C1 and the separating factor for C2."""
    p = plan.p
    patch = range(1, 1 << p) if plan.separ is None else plan.separ.words
    return ({c << p | u for c in plan.base.words for u in range(1 << p)}
            | {y << p | s for y in plan.y_set for s in patch})


class TestExtensionProperties:
    """Random small extensions: whatever the range policy admits (or
    force lets through) comes out as the construction's own word set and
    identifies F^(n+p) by the brute-force definition."""

    @settings(max_examples=40)
    @given(st.data())
    def test_outputs_match_the_definition(self, data):
        r1 = data.draw(st.integers(1, 3), label="r1")
        n = data.draw(st.integers(r1 + 1, min(r1 + 3, 5)), label="n")
        p = data.draw(st.integers(1, min(3, 7 - n)), label="p")
        r2 = data.draw(st.integers(0, p), label="r2")
        k = data.draw(st.none() | st.integers(0, p - 1), label="k (None: C1)")
        force = data.draw(st.booleans(), label="force")
        base = greedy_construct(r1, n, seed=data.draw(st.integers(0, 3), label="seed"))
        try:
            if k is None:
                plan = plan_c1(base, r1, p, r2, force)
            else:
                plan = plan_c2(base, r1, p, r2, k, min_separating(p, k).code, force)
        except ExtensionError as err:
            assert not isinstance(err, VerificationFailed)  # the base and factor are valid
            return
        assert set(plan.x_set) == brute_x_set(base, r1, p, r2)
        lo, hi = (r1 - p + r2 + 1, r1 + r2) if k is None else (r1 + r2 - k,) * 2
        for x in plan.x_set:
            assert any(lo <= bin(x ^ y).count("1") <= hi for y in plan.y_set)
        out = apply_plan(plan)
        assert out.dim == n + p and set(out.words) == _by_definition(plan)
        assert len(out) <= plan.predicted_size()
        nc, ns, _, _ = brute_report(out.words, n + p, r1 + r2)
        assert (nc, ns) == (0, 0)
