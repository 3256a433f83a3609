import hashlib
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idcodes import Code, diagnose, full_space, heuristics
from idcodes.codefile import parse_code_text
from idcodes.heuristics import (
    NoisingParams,
    SearchReport,
    _NoisingRun,
    default_params,
    greedy_construct,
    noising_search,
    prune,
)
from idcodes.hypercube import ball_size, direct_sum
from idcodes.signatures import MAX_TABLE_DIM, SignatureTable

from conftest import (
    brute_eval,
    collide_table_marks,
    full_add_delta_all,
    full_swap_deltas,
    oracle_identifying,
    reference_prune,
)


def params(size, seed=0, iters=4000, rho=3.0):
    return NoisingParams(
        target_size=size, rho_init=rho, max_iterations=iters, seed=seed
    )


class TestNoisingParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoisingParams(target_size=0, rho_init=1.0)
        with pytest.raises(ValueError):
            NoisingParams(target_size=5, rho_init=0.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                NoisingParams(target_size=5, rho_init=bad)
        with pytest.raises(ValueError):
            NoisingParams(target_size=5, rho_init=1.0, rho_steps=0)
        with pytest.raises(ValueError):
            NoisingParams(target_size=5, rho_init=1.0, max_iterations=0)

    def test_schedule_endpoints_and_monotonicity(self):
        p = NoisingParams(target_size=5, rho_init=3.0, rho_steps=10)
        sched = p.schedule()
        assert len(sched) == 11
        assert sched[0] == 3.0
        assert sched[-1] == 0.0
        assert (np.diff(sched) < 0).all()

    def test_default_params_scale_with_radius(self):
        assert default_params(1, 30).rho_init == 3
        assert default_params(3, 30).rho_init == 7
        assert default_params(2, 30, seed=9).seed == 9


class TestSearchReport:
    def test_invariant(self):
        with pytest.raises(ValueError):
            SearchReport(
                best_code=None,
                best_f=0,
                iterations_used=1,
                sizes_achieved=(),
                trace=(1,),
            )
        with pytest.raises(ValueError):
            SearchReport(
                best_code=Code.from_words([0], 3),
                best_f=2,
                iterations_used=1,
                sizes_achieved=(),
                trace=(2,),
            )


class TestNoisingSearch:
    def test_reaches_known_minimum_small(self):
        rep = noising_search(1, 4, params(9, iters=5000))
        assert rep.best_f == 0
        assert oracle_identifying(rep.best_code.words, 4, 1)
        assert len(rep.best_code) == 7

    def test_sizes_achieved_strictly_decrease(self):
        rep = noising_search(1, 5, params(14, iters=8000))
        sizes = [s for s, _ in rep.sizes_achieved]
        assert sizes == sorted(set(sizes), reverse=True)
        iters = [i for _, i in rep.sizes_achieved]
        assert iters == sorted(iters)
        assert len(rep.best_code) == sizes[-1]
        assert len(rep.best_code) == 10  # known minimum at r=1, n=5

    def test_deterministic_given_seed(self):
        a = noising_search(1, 5, params(12, seed=3))
        b = noising_search(1, 5, params(12, seed=3))
        assert a.best_code.words == b.best_code.words
        assert a.trace == b.trace
        assert a.iterations_used == b.iterations_used

    def test_different_seeds_differ(self):
        a = noising_search(1, 5, params(12, seed=0, iters=2000))
        b = noising_search(1, 5, params(12, seed=1, iters=2000))
        assert a.trace != b.trace

    def test_stop_size_short_circuits(self):
        full = noising_search(1, 5, params(12, iters=4000))
        early = noising_search(1, 5, params(12, iters=4000), stop_size=12)
        assert early.best_code is not None
        assert len(early.best_code) >= len(full.best_code)
        assert early.iterations_used <= full.iterations_used

    @pytest.mark.parametrize("stop_size", [0, -3])
    def test_stop_size_below_one_is_refused(self, stop_size):
        with pytest.raises(ValueError, match="stop_size must be >= 1"):
            noising_search(1, 5, params(12, iters=100), stop_size=stop_size)

    def test_budget_exhaustion_without_success(self):
        # two words can never 1-identify F^3; the search must hand back a
        # failure report after exactly the budgeted number of swaps
        p = NoisingParams(
            target_size=2, rho_init=3.0, rho_steps=5, max_iterations=50
        )
        rep = noising_search(1, 3, p)
        assert rep.best_code is None
        assert rep.best_f > 0
        assert rep.iterations_used == 50

    def test_all_found_codes_verify(self):
        rep = noising_search(1, 5, params(14, iters=6000))
        assert {s for s, _ in rep.sizes_achieved} >= {len(rep.best_code)}
        assert oracle_identifying(rep.best_code.words, 5, 1)

    def test_trace_starts_at_initial_f(self):
        rep = noising_search(1, 4, params(10, seed=4, iters=500))
        rng = np.random.Generator(np.random.PCG64(4))
        words = rng.choice(16, size=10, replace=False)
        t = SignatureTable(4, 1)
        for w in sorted(words.tolist()):
            t.add(int(w))
        assert rep.trace[0] == t.f

    def test_zero_noise_trace_is_monotone(self):
        # white box: drive visits at rho = 0 only; every accepted swap must
        # strictly improve f, so the trace never rises
        run = _NoisingRun(1, 5, params(9, seed=2, iters=10_000), None)
        for _ in range(6):
            for i, word in enumerate(run.order):
                if word is not None:
                    run._visit(i, 0.0)
            if run.table.f == 0:
                break
        diffs = np.diff(np.array(run.trace))
        assert len(run.trace) > 1
        assert (diffs < 0).all()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            noising_search(0, 4, params(5))
        with pytest.raises(ValueError):
            noising_search(4, 4, params(5))
        with pytest.raises(ValueError):
            noising_search(1, 3, params(9))  # size > 2^n


class TestGreedy:
    def test_first_addition_covers_a_full_ball(self):
        # adding any first codeword lowers nc by exactly the ball size,
        # and the greedy scorer must see that drop
        n, r = 5, 1
        t = SignatureTable(n, r)
        deltas = t.add_delta_all()
        f0 = t.f
        t.add(0)
        assert t.nc == (1 << n) - ball_size(n, r)
        assert t.f - f0 == deltas[0]

    @pytest.mark.parametrize("r,n", [(1, 4), (1, 5), (2, 5), (2, 6), (3, 6)])
    def test_output_verifies(self, r, n):
        code = greedy_construct(r, n, seed=0)
        assert oracle_identifying(code.words, n, r)

    def test_known_small_case_beats_ten(self):
        # the greedy answer at r=1, n=4 lands well under the crude
        # size-10 ceiling and in fact hits the optimum
        code = greedy_construct(1, 4, seed=0)
        assert len(code) <= 10
        assert len(code) == 7

    def test_deterministic(self):
        a = greedy_construct(1, 5, seed=7)
        b = greedy_construct(1, 5, seed=7)
        assert a.words == b.words

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            greedy_construct(0, 4)
        with pytest.raises(ValueError):
            greedy_construct(4, 4)


class TestPrune:
    def test_output_is_one_minimal(self):
        code = greedy_construct(1, 5, seed=1)
        small = prune(code, 1, restarts=4, seed=0)
        assert oracle_identifying(small.words, 5, 1)
        for w in small.words:
            rest = [x for x in small.words if x != w]
            assert not oracle_identifying(rest, 5, 1)

    def test_subset_of_input(self):
        code = greedy_construct(2, 6, seed=3)
        small = prune(code, 2, restarts=4, seed=0)
        assert set(small.words) <= set(code.words)
        assert len(small) <= len(code)
        assert diagnose(small, 2).f == 0

    def test_fixed_point(self):
        code = greedy_construct(1, 5, seed=1)
        once = prune(code, 1, restarts=4, seed=0)
        twice = prune(once, 1, restarts=4, seed=0)
        assert twice.words == once.words

    def test_padded_code_shrinks(self):
        base = greedy_construct(1, 4, seed=0)
        padded = Code.from_words(
            set(base.words) | {w for w in range(16) if w not in base}, 4
        )
        small = prune(padded, 1, restarts=8, seed=0)
        assert len(small) < len(padded)
        assert oracle_identifying(small.words, 4, 1)

    def test_rejects_non_identifying_input(self):
        with pytest.raises(ValueError):
            prune(Code.from_words([0, 1], 4), 1)

    def test_rejects_a_dimension_beyond_the_table_before_evaluating(self, monkeypatch):
        def refuse(code, r):
            raise AssertionError("evaluated a code the table cannot take")

        monkeypatch.setattr(heuristics, "is_identifying", refuse)
        with pytest.raises(ValueError, match="table dim"):
            prune(Code.from_words([0, 1], MAX_TABLE_DIM + 1), 1)

    def test_shipped_code_plus_f7_is_already_one_minimal(self):
        text = resources.files("idcodes").joinpath("data/code_1_9_114.txt").read_text()
        big = direct_sum(parse_code_text(text).code, full_space(7))
        assert len(big) == 14_592 and prune(big, 1) == big

    def test_rejects_bad_restarts(self):
        code = greedy_construct(1, 4, seed=0)
        with pytest.raises(ValueError):
            prune(code, 1, restarts=0)


@st.composite
def padded_greedy(draw):
    """(code, r): a greedy r-identifying code in F^n, n <= 7, plus random
    extra words, so still identifying."""
    n = draw(st.integers(2, 7))
    r = draw(st.integers(1, min(3, n - 1)))
    base = greedy_construct(r, n, seed=draw(st.integers(0, 2**16)))
    extra = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=1 << (n - 1)))
    return Code.from_words(set(base.words) | extra, n), r


class TestPruneMonotone:
    """prune rests on monotonicity; it must give the codes of the
    restart-and-repeat reference, and build its table once."""

    @settings(max_examples=60)
    @given(padded_greedy(), st.integers(0, 2**16), st.sets(st.integers(0, 127)))
    def test_supersets_of_identifying_codes_identify(self, case, seed, extra):
        code, r = case
        n = code.dim
        small = prune(code, r, restarts=1, seed=seed)
        assert brute_eval(small.words, n, r) == (0, 0)
        bigger = set(small.words) | {w % (1 << n) for w in extra}
        assert brute_eval(sorted(bigger), n, r) == (0, 0)

    @settings(max_examples=60)
    @given(padded_greedy(), st.integers(1, 5), st.integers(0, 2**16))
    def test_matches_reference_and_is_one_minimal(self, case, restarts, seed):
        code, r = case
        n = code.dim
        got = prune(code, r, restarts=restarts, seed=seed)
        assert got == reference_prune(code, r, restarts=restarts, seed=seed)
        assert brute_eval(got.words, n, r) == (0, 0)
        for w in got.words:
            assert brute_eval([x for x in got.words if x != w], n, r) != (0, 0)

    @pytest.mark.parametrize("restarts", [1, 4, 16])
    def test_builds_one_table(self, restarts, monkeypatch):
        code = greedy_construct(1, 7, seed=3)
        built = []
        init = SignatureTable.__init__

        def counted(self, dim, radius):
            built.append(self)
            init(self, dim, radius)

        monkeypatch.setattr(SignatureTable, "__init__", counted)
        prune(code, 1, restarts=restarts, seed=0)
        assert len(built) == 1


def _small_run(r, n, size):
    return NoisingParams(target_size=size, rho_init=1.0, rho_steps=10,
                         max_iterations=600, seed=n + r)


def report_digest(rep):
    """SHA-256 over everything a SearchReport holds."""
    code = rep.best_code
    parts = (rep.best_f, rep.iterations_used, rep.sizes_achieved, rep.trace,
             None if code is None else (code.dim, code.words))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class TestMaintainedDeltasSameSeed:
    """The maintained delta vectors change no decision of the searches:
    with the full-pass oracles patched in, every output is identical."""

    @pytest.mark.parametrize("r,n,size", [(1, 6, 21), (2, 6, 10), (1, 7, 40)])
    def test_noising_reports_identical(self, r, n, size, monkeypatch):
        maintained = noising_search(r, n, _small_run(r, n, size))
        monkeypatch.setattr(SignatureTable, "swap_deltas", full_swap_deltas)
        assert noising_search(r, n, _small_run(r, n, size)) == maintained
        assert maintained.sizes_achieved  # the runs reach identifying codes

    @pytest.mark.parametrize("r,n", [(1, 6), (2, 7)])
    def test_greedy_and_prune_codes_identical(self, r, n, monkeypatch):
        maintained = greedy_construct(r, n, seed=5)
        pruned = prune(maintained, r, restarts=4, seed=5)
        monkeypatch.setattr(SignatureTable, "add_delta_all", full_add_delta_all)
        assert greedy_construct(r, n, seed=5) == maintained
        assert prune(maintained, r, restarts=4, seed=5) == pruned

    def test_prune_allocates_no_delta_state(self, monkeypatch):
        code = greedy_construct(1, 6, seed=2)

        def refuse(self):
            raise AssertionError("prune must not build the add-delta state")

        monkeypatch.setattr(SignatureTable, "_start_tracking", refuse)
        assert diagnose(prune(code, 1, restarts=4, seed=0), 1).f == 0


def code_digest(code):
    return hashlib.sha256(repr(code.words).encode()).hexdigest()


class TestPruneSameSeed:
    """Same-seed prune outputs stay what they were."""

    # Recorded from the restart-and-repeat prune at restarts=16; key
    # (r, n, seed) prunes greedy_construct(r, n, seed) with that seed.
    GOLDEN = {
        (1, 8, 0): "aa0c383d4f0bbf280fdb27f73865b5e17ce9bf7543b31d09f33e07dc8563f2d7",
        (1, 8, 1): "d851ca0cf3c84031e62742cbc226b8519588cc37cc3d6633e97eea5e83b8a35b",
        (1, 8, 2): "7991c5e258d1dd81c4b2d761508620820c1a61538814380928e426bd2f5bbfff",
        (2, 8, 0): "11fa4aa6388cc51e63072913664fdd1e7c41b8ee1ee561741ad0f619c27e1949",
        (2, 8, 1): "a1bd4ce936e2ec804125c9f49ef05cb09120d39b0e927a179bbb535f50061420",
        (2, 8, 2): "c9d80ba2eda63bb937b8f3b0b549bb11eccac0d51277a17694e0ac602fc14e38",
        (3, 8, 0): "4ced72d96ac4ed271ca5b1192e69dd602f129d5feded61516b284e3f64ce76c0",
        (3, 8, 1): "6018db9b0091a1038be18b3ef2a88aa1622d911ea470fa0796196a143ce66e90",
        (3, 8, 2): "9d7e05ec721bba1f7dac5d8ff82eb3411d66fa6ca95f265268a3c8e4335f914c",
    }
    # The shipped 114-word (1, 9) code pruned at r = 2, seed 0: 44 words.
    SHIPPED_R2 = "f041f1e93100d59e3335a86856ca85b097fe06d6b1cc5a2488b824c53bd6adf8"

    # prune(full_space(n), r, 16, seed): (size, size with one restart, digest).
    # Unlike greedy codes, the whole space is where the restarts pay.
    FULL_SPACE = {
        (6, 1, 0): (20, 23, "a4fdc8d627a0e45acbc98441ed325387685e138f969337f358f089849028379e"),
        (6, 1, 1): (21, 22, "bef3d33c838126c1d2f45186475625604eaa841eb92199a4ff7d15d048f7afdd"),
        (7, 2, 0): (16, 20, "ae5d429f07d9f1060d1ffe479ef08498b93b8ae8a3644b2d5e02905d7addfb09"),
        (7, 2, 1): (17, 18, "288e89c8abc9f85b2f88938280ec0167ca5b7e2f4302408b7d0a1ecb9ce4abbc"),
    }

    @pytest.mark.parametrize("n,r,seed", sorted(FULL_SPACE))
    def test_restarts_on_the_full_space_match_golden_digests(self, n, r, seed):
        size, size_one, digest = self.FULL_SPACE[n, r, seed]
        code = prune(full_space(n), r, restarts=16, seed=seed)
        assert code_digest(code) == digest and len(code) == size
        # the first restart walks the same permutation, so more only helps
        one = prune(full_space(n), r, restarts=1, seed=seed)
        assert len(code) <= len(one) == size_one

    @pytest.mark.parametrize("r,n,seed", sorted(GOLDEN))
    def test_greedy_prune_matches_golden_digests(self, r, n, seed):
        code = prune(greedy_construct(r, n, seed=seed), r, restarts=16, seed=seed)
        assert code_digest(code) == self.GOLDEN[r, n, seed]

    def test_shipped_code_at_r2_matches_golden_digest(self):
        text = resources.files("idcodes").joinpath("data/code_1_9_114.txt").read_text()
        code = prune(parse_code_text(text).code, 2, restarts=16, seed=0)
        assert len(code) == 44
        assert code_digest(code) == self.SHIPPED_R2


class TestNoisingSameSeed:
    """Same-seed noising runs stay what they were, and a visit whose swap
    is rejected makes no table mutation."""

    # Recorded from these runs; a refactor of the search or the table must
    # reproduce them exactly.
    GOLDEN = {
        (1, 6, 21): "9847d586ade99114307dff22924866220ac5723593413c2f7053a770e783e706",
        (2, 6, 10): "014533c0e1b999371909e65f65877f61ed33c837109a59a74ee01ff0b8ab7911",
        (1, 7, 40): "f66852796576363ed86a58d5b3f4f2193912540aa79ded489163fce9e0334b69",
    }

    @pytest.mark.parametrize("r,n,size", sorted(GOLDEN))
    def test_noising_reports_match_golden_digests(self, r, n, size):
        rep = noising_search(r, n, _small_run(r, n, size))
        assert report_digest(rep) == self.GOLDEN[r, n, size]

    @pytest.mark.parametrize("r,n,size", [(1, 6, 21), (2, 6, 10)])
    def test_rejected_visits_leave_the_table_alone(self, r, n, size, monkeypatch):
        moved = []
        move_ball = SignatureTable._move_ball

        def counted(self, grouped):
            moved.append(self)
            return move_ball(self, grouped)

        monkeypatch.setattr(SignatureTable, "_move_ball", counted)
        run = _NoisingRun(r, n, _small_run(r, n, size), None)
        rep = run.run()
        accepted = len(rep.trace) - 1
        shrinks = len(rep.sizes_achieved)  # each found code drops one word
        assert 0 < accepted < rep.iterations_used
        # the initial adds, a removal and an add per accepted swap, the shrinks
        assert sum(t is run.table for t in moved) == size + 2 * accepted + shrinks

    @pytest.mark.parametrize("r,n,size,calls", [(1, 6, 21, 968), (2, 6, 10, 1153)])
    def test_one_scatter_per_visit_and_per_accepted_add(self, r, n, size, calls, monkeypatch):
        scattered = []
        terms = SignatureTable._terms
        monkeypatch.setattr(SignatureTable, "_terms",
                            lambda self, *a: scattered.append(self) or terms(self, *a))
        run = _NoisingRun(r, n, _small_run(r, n, size), None)
        rep = run.run()
        accepted, shrinks = len(rep.trace) - 1, len(rep.sizes_achieved)
        # each visit scatters its codeword once, an accepted swap's removal
        # reuses that scatter and its add makes one, and so does each shrink
        assert sum(t is run.table for t in scattered) == rep.iterations_used + accepted + shrinks == calls
        # the rest: the replay that starts the scores adds the first visit's code
        assert len(scattered) - calls == size


class TestSearchUnderFingerprintCollisions:
    """With the table's marks forced to collide, its f can only read high:
    every search either returns a statically identifying code, or raises
    its AssertionError, or finds nothing; none returns a bad code."""

    @pytest.mark.parametrize("flat", [False, True])
    def test_no_bad_code_under_collisions(self, flat, monkeypatch):
        collide_table_marks(monkeypatch, flat)
        runs = [
            (1, lambda s: noising_search(1, 5, params(12, seed=s, iters=800)).best_code),
            (2, lambda s: noising_search(2, 6, params(10, seed=s, iters=800)).best_code),
            (1, lambda s: greedy_construct(1, 6, seed=s)),
            (2, lambda s: greedy_construct(2, 6, seed=s)),
            (1, lambda s: prune(full_space(5), 1, restarts=4, seed=s)),
            (2, lambda s: prune(full_space(6), 2, restarts=4, seed=s)),
        ]
        for r, run in runs:
            for seed in range(2):
                try:
                    code = run(seed)
                except AssertionError:
                    continue
                assert code is None or oracle_identifying(code.words, code.dim, r)

