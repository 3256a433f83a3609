"""From-scratch construction heuristics: noising search, greedy, pruning.

All three work on the incremental ``SignatureTable`` and minimize
f(C) = nc + ns, which hits zero exactly on identifying codes.  Every code
any of them emits is re-verified with the independent static evaluator
before it is returned, so a bookkeeping bug in the incremental engine
cannot leak an invalid code.

The noising search does local descent over single codeword swaps with an
additive noise term rho * ln(R) that shrinks to zero along an arithmetic
schedule, letting early iterations escape local minima while late ones
descend strictly.  Whenever the current code becomes identifying it is
recorded and the search drops one codeword (the one whose removal hurts
least) and keeps going at the smaller size.

Pruning rests on monotonicity: a superset of an identifying code is
identifying.  A codeword that cannot leave the input cannot leave any
subset of it either, so every restart walks only the words one table
found removable at the start, and a single pass is already 1-minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypercube import Code
from .signatures import SignatureTable, is_identifying

_NEVER = np.iinfo(np.int64).max  # the score of a word never chosen, noise or not


@dataclass(frozen=True)
class NoisingParams:
    """Tuning knobs for ``noising_search``.

    The noise magnitude decreases arithmetically from ``rho_init`` to
    exactly zero over ``rho_steps`` decrements; at each magnitude the
    search sweeps the codeword cycle once.  One iteration is one attempted
    swap (accepted or not), and the search stops after ``max_iterations``
    of them.
    """

    target_size: int
    rho_init: float
    rho_steps: int = 100
    max_iterations: int = 2_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_size < 1:
            raise ValueError("target_size must be >= 1")
        if not 0 < self.rho_init < float("inf"):
            raise ValueError("rho_init must be finite and > 0")
        if self.rho_steps < 1 or self.max_iterations < 1:
            raise ValueError("rho_steps, max_iterations must be >= 1")

    def schedule(self) -> np.ndarray:
        """Noise magnitudes, arithmetic from rho_init down to exactly 0."""
        return np.linspace(self.rho_init, 0.0, self.rho_steps + 1)


def default_params(r: int, target_size: int, seed: int = 0) -> NoisingParams:
    """Defaults that work well in practice: rho_init scales with the ball radius."""
    return NoisingParams(target_size=target_size, rho_init=2 * r + 1, seed=seed)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one noising run.

    ``sizes_achieved`` lists (size, iteration) for every identifying code
    found, in the order found; sizes strictly decrease.  ``trace`` holds f
    right after each accepted swap (first entry: f of the initial code),
    which makes the zero-noise monotonicity property testable.
    """

    best_code: Code | None
    best_f: int
    iterations_used: int
    sizes_achieved: tuple[tuple[int, int], ...]
    trace: tuple[int, ...]

    def __post_init__(self) -> None:
        if (self.best_f == 0) != (self.best_code is not None):
            raise ValueError("best_f = 0 exactly when a code was found")


class NotIdentifyingError(ValueError):
    """The code given to ``prune`` is not identifying at its radius."""


class _StopSearch(Exception):
    """Internal signal: the early-stop size or the iteration budget was reached."""


class _NoisingRun:
    def __init__(self, r: int, n: int, params: NoisingParams, stop_size: int | None):
        if not 1 <= r < n:
            raise ValueError("need 1 <= r < n")
        if params.target_size > (1 << n):
            raise ValueError("target_size exceeds the space size")
        if stop_size is not None and stop_size < 1:
            raise ValueError("stop_size must be >= 1")
        self.r = r
        self.n = n
        self.params = params
        self.stop_size = stop_size
        self.rng = np.random.Generator(np.random.PCG64(params.seed))
        words = self.rng.choice(1 << n, size=params.target_size, replace=False)
        self.table = SignatureTable(n, r)
        # the visit cycle: a swap keeps its position, a shrink empties one
        self.order: list[int | None] = sorted(words.tolist())
        for w in self.order:
            self.table.add(w)
        self.iterations = 0
        self.trace: list[int] = [self.table.f]
        self.best_f = self.table.f
        self.best_code: Code | None = None
        self.sizes: list[tuple[int, int]] = []

    def _ln_uniform(self, size: int) -> np.ndarray:
        # R uniform on the open interval (0,1): resample any exact zeros
        # so ln(R) stays finite.
        u = self.rng.random(size)
        while not u.all():
            zeros = u == 0.0
            u[zeros] = self.rng.random(int(zeros.sum()))
        return np.log(u, out=u)

    def _record_and_shrink(self) -> None:
        """Current code is identifying: record it, then drop one codeword."""
        while self.table.f == 0:
            code = self.table.code()
            if not is_identifying(code, self.r):
                raise AssertionError("incremental engine disagrees with static evaluation")
            self.best_code = code
            self.best_f = 0
            self.sizes.append((len(code), self.iterations))
            if self.stop_size is not None and len(code) <= self.stop_size:
                raise _StopSearch
            if self.table.size <= 1:
                return
            deltas = np.where(self.table.word_mask, self.table.remove_delta_all(), _NEVER)
            best = int(np.argmin(deltas))  # least harmful, then smallest
            self.table.remove(best)
            self.order[self.order.index(best)] = None

    def _visit(self, i: int, rho: float) -> None:
        table = self.table
        word = self.order[i]
        totals = table.swap_deltas(word)
        np.putmask(totals, table.word_mask, _NEVER)  # a fresh vector: mask the codewords in place
        s0 = int(totals.argmin())
        self.iterations += 1
        if totals[s0] >= 0:
            if rho <= 0.0:
                return  # zero noise and no improving swap: nothing can be accepted
            noisy = self._ln_uniform(1 << self.n)
            noisy *= rho
            noisy += totals  # the bits of totals + rho * ln(R): IEEE addition commutes
            s0 = int(noisy.argmin())
            if noisy[s0] >= 0.0:
                return  # rejected: the table was never touched
        table.remove(word)
        table.add(s0)
        self.order[i] = s0
        self.trace.append(table.f)
        self.best_f = min(self.best_f, table.f)
        if table.f == 0:
            self._record_and_shrink()

    def run(self) -> SearchReport:
        try:
            if self.table.f == 0:
                self._record_and_shrink()
            while True:
                for rho in self.params.schedule():
                    for i, word in enumerate(self.order):
                        if self.iterations >= self.params.max_iterations:
                            raise _StopSearch
                        if word is not None:  # else removed by a shrink
                            self._visit(i, float(rho))
        except _StopSearch:
            pass
        return SearchReport(
            best_code=self.best_code,
            best_f=self.best_f,
            iterations_used=self.iterations,
            sizes_achieved=tuple(self.sizes),
            trace=tuple(self.trace),
        )


def noising_search(
    r: int, n: int, params: NoisingParams, stop_size: int | None = None
) -> SearchReport:
    """Randomized swap search for an r-identifying code in F^n.

    Starts from a uniformly random code of ``params.target_size`` words.
    Each visit scores every replacement s outside the code for the
    current codeword m of the cycle by the exact f-change of the swap,
    without touching the table; only an accepted swap mutates it.  A
    strictly improving swap (minimum delta < 0) is always taken;
    otherwise the candidate minimizing delta + rho * ln(R) is taken only
    if that noisy score is negative, with R drawn fresh per candidate.
    Identifying codes found along the way are recorded and the search
    continues on a smaller code (see ``SearchReport.sizes_achieved``).

    When the noise schedule is exhausted before the iteration budget, it
    restarts from rho_init, so the budget is always fully usable.  Pass
    ``stop_size`` (>= 1) to return as soon as an identifying code that
    small (or smaller) is found.  Deterministic given the seed.
    """
    return _NoisingRun(r, n, params, stop_size).run()


def greedy_construct(r: int, n: int, seed: int = 0) -> Code:
    """Build an r-identifying code by repeated best-addition from empty.

    Each step adds a vertex maximizing the drop in f; ties are broken
    uniformly at random with the seeded generator.  For r < n a strictly
    improving addition always exists while f > 0 (distinct vertices have
    distinct balls, so some vertex separates any unseparated pair), so
    the construction terminates with a verified identifying code.
    """
    if not 1 <= r < n:
        raise ValueError("need 1 <= r < n")
    rng = np.random.Generator(np.random.PCG64(seed))
    table = SignatureTable(n, r)
    while table.f > 0:
        deltas = table.add_delta_all()
        np.putmask(deltas, table.word_mask, _NEVER)
        dmin = int(deltas.min())
        if dmin >= 0:
            raise AssertionError("no improving addition despite f > 0")
        ties = np.flatnonzero(deltas == dmin)
        word = int(ties[rng.integers(len(ties))]) if len(ties) > 1 else int(ties[0])
        table.add(word)
    code = table.code()
    if not is_identifying(code, r):
        raise AssertionError("incremental engine disagrees with static evaluation")
    return code


def prune(code: Code, r: int, restarts: int = 16, seed: int = 0) -> Code:
    """Strip removable codewords until no single removal keeps the code valid.

    Runs ``restarts`` passes with independent random removal orders over
    one table and keeps the smallest result.  A superset of an identifying
    code is identifying, so a codeword that cannot go from C cannot go
    from any subset that holds it.  Hence one ``remove_delta_all`` over
    the table built in one pass picks the candidates, and one pass over
    them is 1-minimal: each word it keeps could not go from a superset of
    the result.  A restart adds back what it removed.  Raises ValueError
    for a dimension the table cannot take, before any evaluation, and its
    subclass NotIdentifyingError when the input is not r-identifying.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    table = SignatureTable.build(code, r)  # refuses a dimension beyond the table's before any evaluation
    if not is_identifying(code, r):
        raise NotIdentifyingError(f"input code is not {r}-identifying")
    rng = np.random.Generator(np.random.PCG64(seed))
    free = table.remove_delta_all()[code.array] == 0
    best: Code = code
    for _ in range(restarts):
        removed = []
        order = rng.permutation(len(code))
        for w in code.array[order[free[order]]].tolist():
            if table.size > 1 and table.remove_delta(w) == 0:
                table.remove(w)
                removed.append(w)
        if table.size < len(best):
            best = table.code()
        for w in reversed(removed):
            table.add(w)
    if not is_identifying(best, r):
        raise AssertionError("pruned code failed static verification")
    return best


__all__ = [
    "NoisingParams",
    "SearchReport",
    "default_params",
    "noising_search",
    "greedy_construct",
    "prune",
    "NotIdentifyingError",
]
