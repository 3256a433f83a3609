"""End-to-end acceptance checks, one test per pinned criterion.

Each test name carries its criterion number; the conftest hook prints one
PASS/FAIL line per criterion after the run.  Budgets are wall-clock and
generous against measured times, so a failure here means behavior drifted,
not that the machine was slow.
"""

import time
import warnings

import numpy as np
import pytest

from idcodes import Code, evaluate
from idcodes.bounds import check_consistency, compare, load_registry, lookup
from idcodes.codefile import parse_code_text
from idcodes.convert import (
    discriminating_report,
    is_discriminating,
    to_discriminating,
    to_identifying,
)
from idcodes.exact import (
    is_separating,
    min_discriminating,
    min_identifying,
    min_separating,
)
from idcodes.extend import compute_x_set, cover_annulus, extend_c1, extend_c2, plan_c1
from idcodes.heuristics import (
    NoisingParams,
    greedy_construct,
    noising_search,
    prune,
)
from idcodes.signatures import SignatureTable, diagnose

from conftest import bitmatrix_eval, oracle_eval


def test_criterion_01_exact_minima():
    """The certified search reproduces every known exact cell it can reach."""
    t0 = time.monotonic()
    known = [
        (1, 2, 3), (1, 3, 4), (1, 4, 7), (1, 5, 10),
        (2, 3, 7), (2, 4, 6), (2, 5, 6),
        (3, 4, 15), (3, 5, 10),
        (4, 5, 31),
    ]
    for r, n, want in known:
        got = min_identifying(r, n)
        assert got.size == want, f"M_{r}({n}) = {got.size}, expected {want}"
        assert got.minimal
        assert evaluate(got.code, r).f == 0
    # (3, 5) is the one cell whose tabulated bounds straddle two values;
    # the certified search settles it by exhausting size 9
    settled = min_identifying(3, 5)
    assert settled.infeasible_sizes == (9,)
    assert time.monotonic() - t0 < 300


def test_criterion_02_packaged_reference_code():
    """The shipped 114-word code is 1-identifying in F^9 and sits exactly
    on the tabulated upper bound."""
    from importlib import resources

    text = resources.files("idcodes").joinpath("data/code_1_9_114.txt").read_text()
    cf = parse_code_text(text)
    assert cf.code.dim == 9
    assert cf.radius == 1
    assert len(cf.code) == 114
    t0 = time.monotonic()
    rep = diagnose(cf.code, 1)
    elapsed = time.monotonic() - t0
    assert rep.identifying
    assert rep.nc == 0 and rep.ns == 0
    assert elapsed < 1.0
    assert compare(cf.code, 1) == "matches-upper"
    assert lookup(1, 9).upper == 114
    # independent recount
    assert oracle_eval(cf.code.words, 9, 1) == (0, 0)


def test_criterion_03_separating_codes():
    """Separating-code behavior: the known three-word example, the
    nonzero-cube family, and certified separating minima."""
    # {000, 001, 100}: separating but not identifying, 111 uncovered
    code = Code.from_words([0, 1, 4], 3)
    assert is_separating(code, 1)
    rep = diagnose(code, 1)
    assert not rep.identifying
    assert rep.nc == 1
    assert rep.uncovered == 7
    assert rep.ns == 0
    # the cube minus its zero word separates at every radius below p
    for p in (2, 3, 4):
        nonzero = Code.from_words(range(1, 1 << p), p)
        for k in range(0, p):
            assert is_separating(nonzero, k), f"p={p}, k={k}"
    # certified separating minima sit at most one below the identifying ones
    assert min_separating(3, 1).size == 3
    assert min_separating(4, 1).size == 6
    for p, k in [(3, 1), (4, 1), (5, 1), (4, 2)]:
        sep = min_separating(p, k)
        ident = min_identifying(k, p)
        assert ident.size - 1 <= sep.size <= ident.size


def test_criterion_04_conversion_round_trips():
    """Parity extension and coordinate deletion round-trip a seeded grid
    of constructed codes, preserving the properties and the sizes."""
    cases = []
    for n in range(3, 11):
        cases.extend((1, n, seed) for seed in range(13))
    for n in range(4, 11):
        cases.extend((3, n, seed) for seed in range(14))
    assert len(cases) == 202
    for r, n, seed in cases:
        code = prune(greedy_construct(r, n, seed=seed), r, restarts=2, seed=seed)
        disc = to_discriminating(code)
        assert disc.dim == n + 1
        assert len(disc) == len(code)
        assert is_discriminating(disc, r), f"r={r} n={n} seed={seed}"
        back = to_identifying(disc)
        assert back.words == code.words, f"r={r} n={n} seed={seed}"
    # coordinate choice does not matter: spot-check every position once
    code = prune(greedy_construct(1, 6, seed=0), 1, restarts=2, seed=0)
    disc = to_discriminating(code)
    for pos in range(1, disc.dim + 1):
        back = to_identifying(disc, pos)
        assert evaluate(back, 1).f == 0


def test_criterion_05_discriminating_transposition():
    """The minimum discriminating size one dimension up equals the minimum
    identifying size, with both sides searched from scratch."""
    for n in (2, 3, 4):
        ident = min_identifying(1, n, start_size=1)
        disc = min_discriminating(1, n + 1)
        assert disc.size == ident.size, f"n={n}: {disc.size} != {ident.size}"
        assert ident.minimal and disc.minimal
        assert ident.start_size == 1 and disc.start_size == 1
    # an r = 3 instance of the same identity
    ident = min_identifying(3, 4, start_size=1)
    disc = min_discriminating(3, 5)
    assert disc.size == ident.size


def test_criterion_06_extension_matrix():
    """Both extension constructions produce verified codes across a
    parameter matrix, and the X set shrinks as p grows."""
    base14 = min_identifying(1, 4).code
    base15 = min_identifying(1, 5).code
    base25 = greedy_construct(2, 5, seed=0)
    base36 = greedy_construct(3, 6, seed=0)
    ran = 0

    def check(out, radius, note):
        nonlocal ran
        nc, ns = bitmatrix_eval(out.words, out.dim, radius)
        assert nc == 0 and ns == 0, f"{note}: nc={nc} ns={ns}"
        ran += 1

    for p in range(1, 7):  # n + p <= 10
        check(extend_c1(base14, 1, p), 1, f"C1 base(1,4) p={p}")
    for p in range(1, 6):  # n + p <= 10
        check(extend_c1(base15, 1, p), 1, f"C1 base(1,5) p={p}")
    for p in range(1, 4):
        check(extend_c1(base25, 2, p), 2, f"C1 base(2,5) p={p}")
    for p in range(1, 3):
        check(extend_c1(base36, 3, p), 3, f"C1 base(3,6) p={p}")
    # radius-increasing steps (r2 >= 1, r1 >= p >= r2)
    check(extend_c1(base14, 1, 1, r2=1), 2, "C1 base(1,4) p=1 r2=1")
    check(extend_c1(base15, 1, 1, r2=1), 2, "C1 base(1,5) p=1 r2=1")
    check(extend_c1(base25, 2, 1, r2=1), 3, "C1 base(2,5) p=1 r2=1")
    check(extend_c1(base25, 2, 2, r2=1), 3, "C1 base(2,5) p=2 r2=1")
    check(extend_c1(base25, 2, 2, r2=2), 4, "C1 base(2,5) p=2 r2=2")
    check(extend_c1(base36, 3, 2, r2=1), 4, "C1 base(3,6) p=2 r2=1")
    check(extend_c1(base36, 3, 3, r2=3), 6, "C1 base(3,6) p=3 r2=3")
    # the separating-factor construction
    sep31 = min_separating(3, 1).code
    check(extend_c2(base36, 3, 3, 0, 1, sep31), 3, "C2 base(3,6) p=3 k=1")
    sep21 = min_separating(2, 1).code
    check(extend_c2(base36, 3, 2, 2, 1, sep21), 5, "C2 base(3,6) p=2 r2=2 k=1")
    assert ran >= 20, f"only {ran} extension combos ran"
    # X-chain: growing p can only shrink the problem set
    prev = None
    for p in (1, 2, 3):
        cur = set(compute_x_set(base15, 1, p))
        if prev is not None:
            assert cur <= prev
        prev = cur
    # a nonempty X really is patched, not sidestepped
    plan = plan_c1(base15, 1, 1)
    assert len(plan.x_set) == 5 and len(plan.y_set) == 1


def test_criterion_07_annulus_cover_oracle():
    """Greedy annulus covering of five spread pair-vectors in F^10 needs
    exactly one vertex at distance 2, all five at distance 0, and more
    than one at distances 1 and 3."""
    xs = [768, 192, 48, 12, 3]
    sizes = {}
    for d in (0, 1, 2, 3):
        ys = cover_annulus(xs, d, d, 10)
        for x in xs:
            assert any(bin(x ^ y).count("1") == d for y in ys)
        sizes[d] = len(ys)
    assert sizes[2] == 1
    assert sizes[0] == 5
    assert sizes[1] > 1
    assert sizes[3] > 1


def test_criterion_08_incremental_equals_static():
    """A thousand random swaps on a live table never drift from the
    from-scratch evaluation.  Each swap is a noising visit's move: the
    f-change is predicted by swap_deltas, which must equal remove_delta
    plus, after remove, the new word's entry of add_delta_all, and
    then the word is added."""
    rng = np.random.default_rng(0x5EED)
    n, r = 7, 2
    words = sorted(int(w) for w in rng.choice(1 << n, size=40, replace=False))
    table = SignatureTable.build(Code.from_words(words, n), r)
    mismatches = 0
    for step in range(1000):
        codewords = table.words()
        old = int(codewords[rng.integers(len(codewords))])
        outside = np.flatnonzero(~table.word_mask).tolist()
        word = int(outside[rng.integers(len(outside))])
        f_before = table.f
        predicted = int(table.swap_deltas(old)[word])
        removal = table.remove_delta(old)
        table.remove(old)
        assert removal + int(table.add_delta_all()[word]) == predicted
        table.add(word)
        ev = evaluate(table.code(), r)
        if (table.nc, table.ns) != (ev.nc, ev.ns):
            mismatches += 1
        assert table.f - f_before == predicted
        if step % 200 == 0:
            table.check()
    assert mismatches == 0


def test_criterion_09_heuristics_reach_known_sizes():
    """Noising reaches the known optimum at (1, 7) inside its budget, and
    greedy + prune lands near the tabulated values across a sweep."""
    t0 = time.monotonic()
    found = None
    for seed in (6, 3, 8, 4, 1, 2, 7, 0):
        params = NoisingParams(
            target_size=32, rho_init=3.0, max_iterations=60_000, seed=seed
        )
        rep = noising_search(1, 7, params, stop_size=32)
        if rep.best_code is not None and len(rep.best_code) <= 32:
            found = rep.best_code
            break
    elapsed = time.monotonic() - t0
    assert found is not None, "no portfolio seed reached size 32"
    assert elapsed < 60.0
    assert len(found) == 32
    assert bitmatrix_eval(found.words, 7, 1) == (0, 0)
    assert compare(found, 1) == "matches-upper"

    t0 = time.monotonic()
    table = load_registry()
    for r in (1, 2, 3):
        for n in range(r + 1, 13):
            if r >= n:
                continue
            code = prune(greedy_construct(r, n, seed=0), r, restarts=2, seed=0)
            assert evaluate(code, r).f == 0
            rec = table.get((r, n))
            if rec is not None and len(code) > rec.upper * 1.1:
                warnings.warn(
                    f"greedy+prune at r={r} n={n}: size {len(code)} exceeds "
                    f"the tabulated upper bound {rec.upper} by more than 10%"
                )
    assert time.monotonic() - t0 < 600


def test_criterion_10_bounds_consistency():
    """Every arithmetic cross-check over the bounds registry passes."""
    t0 = time.monotonic()
    report = check_consistency()
    elapsed = time.monotonic() - t0
    assert len(report.checks) == 109
    assert report.ok, "\n".join(f"{c.name}: {c.detail}" for c in report.failures)
    assert report.summary() == "109 checks, 0 failures"
    assert elapsed < 1.0
