"""The idcodes workloads: each is a fixed batch of calls, made from a seed.

``build_steps`` turns the workload seed into inputs before any timing
starts: every noising, greedy and prune seed and the deleted-codeword index
derive from it.  A batch is an ordered list of steps.  Each step calls into
idcodes through the module attribute a user of the library would use (for
example ``heuristics.noising_search``), so the traced run's wrappers see
every call, and returns an emission: plain fields, plus ``code`` for a step
that emits a code.  ``check.py`` judges the emissions after timing stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from idcodes import bounds, cli, codefile, convert, exact, extend, heuristics, hypercube, signatures

SHIPPED_CODE = os.path.join("src", "idcodes", "data", "code_1_9_114.txt")

# (r, n, start size, iteration budget, rho_init, rho_steps).  A short
# schedule lets each instance reach f = 0 within its budget on most seeds;
# the budget counts iterations, so two commits do identical work.
SEARCH = {
    "full": ((1, 9, 120, 4000, 1.0, 10), (1, 10, 220, 4000, 0.5, 10), (2, 9, 36, 2000, 1.0, 10)),
    "smoke": ((1, 6, 21, 300, 1.0, 10), (2, 6, 10, 200, 1.0, 10)),
}
CONSTRUCT = {"full": ((1, 12), (2, 12)), "smoke": ((1, 8), (2, 8))}
PRUNE_RESTARTS = 16
# Construction C1 of the shipped (1,9) code with these extension lengths p;
# the first one also gets the deleted-codeword FAIL case.
VERIFY = {"full": (11, 12), "smoke": (2, 3)}
# (property, a, b, node budget); separating cells are (p, k), the others (r, n).
EXACT = {
    "full": (
        ("identifying", 1, 5, None),
        ("identifying", 3, 5, None),
        ("separating", 5, 1, None),
        ("separating", 5, 3, None),
        ("discriminating", 1, 6, None),
        ("discriminating", 3, 6, None),
        ("identifying", 1, 6, 200_000),
    ),
    "smoke": (
        ("identifying", 1, 4, None),
        ("separating", 4, 1, None),
        ("discriminating", 1, 5, None),
        ("identifying", 1, 6, 2_000),
    ),
}


def setup(workload: str, root: str) -> dict:
    """What every process of a workload pays before its first call."""
    bounds.load_registry()
    inputs = {}
    if workload == "verify":
        path = os.path.join(root, SHIPPED_CODE)
        inputs["base_path"] = path
        inputs["base"] = codefile.read_code_file(path).code
    return inputs


def exact_cell(prop: str, a: int, b: int, budget: int | None) -> str:
    return f"{prop}_{a}_{b}" + ("_budget" if budget is not None else "")


def derived_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.Generator(np.random.PCG64(seed))
    return [int(x) for x in rng.integers(0, 2**31, size=count)]


def build_steps(workload: str, seed: int, size: str, inputs: dict, workdir: str):
    """Return (steps, description) for one workload at "full" or "smoke" size.

    ``steps`` is a list of (label, fn); fn takes the batch's state dict
    and returns an emission.  ``description`` records the generated
    inputs, which the checker needs.
    """
    if workload == "search":
        seeds = derived_seeds(seed, len(SEARCH[size]))
        steps = [
            (f"noising_{r}_{n}_{start}", _search_step(r, n, start, budget, rho, rho_steps, s))
            for (r, n, start, budget, rho, rho_steps), s in zip(SEARCH[size], seeds)
        ]
        return steps, {"seeds": seeds}
    if workload == "construct":
        seeds = derived_seeds(seed, 2 * len(CONSTRUCT[size]))
        steps = []
        for i, (r, n) in enumerate(CONSTRUCT[size]):
            steps.append((f"greedy_{r}_{n}", _greedy_step(r, n, seeds[2 * i])))
            steps.append((f"prune_{r}_{n}", _prune_step(r, n, seeds[2 * i + 1])))
        return steps, {"seeds": seeds}
    if workload == "verify":
        delete_at = derived_seeds(seed, 1)[0]
        return _verify_steps(VERIFY[size], delete_at, inputs, workdir), {"delete_at": delete_at}
    steps = [
        (exact_cell(*cell), _exact_step(*cell)) for cell in EXACT[size]
    ]
    return steps, {}


def _search_step(r, n, start, budget, rho, rho_steps, seed):
    def step(state):
        params = heuristics.NoisingParams(
            target_size=start, rho_init=rho, rho_steps=rho_steps,
            max_iterations=budget, seed=seed,
        )
        rep = heuristics.noising_search(r, n, params)
        return {
            "kind": "search", "r": r, "n": n, "start": start, "budget": budget,
            "iterations": rep.iterations_used,
            "sizes": [list(s) for s in rep.sizes_achieved],
            "accepted": len(rep.trace) - 1,
            "best_f": rep.best_f,
            "code": rep.best_code,
        }
    return step


def _greedy_step(r, n, seed):
    def step(state):
        code = heuristics.greedy_construct(r, n, seed=seed)
        state[f"greedy_{r}_{n}"] = code
        return {"kind": "greedy", "r": r, "n": n, "code": code}
    return step


def _prune_step(r, n, seed):
    def step(state):
        code = heuristics.prune(state[f"greedy_{r}_{n}"], r, restarts=PRUNE_RESTARTS, seed=seed)
        return {"kind": "pruned", "r": r, "n": n, "of": f"greedy_{r}_{n}", "code": code}
    return step


def _verdict(rep, n: int, expect: str, of: str) -> dict:
    return {
        "kind": "verdict", "n": n, "expect": expect, "of": of,
        "identifying": rep.identifying, "nc": rep.nc, "ns": rep.ns,
        "uncovered": rep.uncovered,
        "unseparated": list(rep.unseparated) if rep.unseparated else None,
    }


def _verify_steps(lengths, delete_at, inputs, workdir):
    steps = []
    for p in lengths:
        def extend_step(state, p=p):
            code = extend.extend_c1(inputs["base"], 1, p)
            state[f"extended_{9 + p}"] = code
            return {"kind": "extension", "p": p, "n": 9 + p, "code": code}
        steps.append((f"extend_p{p}", extend_step))
    for p in lengths:
        def roundtrip_step(state, n=9 + p):
            path = os.path.join(workdir, f"extended_n{n}.txt")
            codefile.write_code_file(path, state[f"extended_{n}"], 1)
            back = codefile.read_code_file(path)
            state[f"read_{n}"] = back.code
            return {"kind": "roundtrip", "n": n, "radius": back.radius,
                    "of": f"extend_p{n - 9}", "code": back.code}
        steps.append((f"roundtrip_n{9 + p}", roundtrip_step))
    for p in lengths:
        def diagnose_step(state, n=9 + p):
            return _verdict(signatures.diagnose(state[f"read_{n}"], 1), n, "PASS", f"extend_p{n - 9}")
        steps.append((f"diagnose_n{9 + p}", diagnose_step))
    n0 = 9 + lengths[0]

    def deleted_step(state):
        code = state[f"read_{n0}"]
        k = delete_at % len(code)
        damaged = hypercube.Code(code.dim, code.words[:k] + code.words[k + 1:])
        out = _verdict(signatures.diagnose(damaged, 1), n0, "FAIL", f"extend_p{n0 - 9}")
        out["deleted"] = code.words[k]
        return out
    steps.append((f"diagnose_n{n0}_deleted", deleted_step))

    def discriminating_step(state):
        code = convert.to_discriminating(state[f"read_{n0}"])
        rep = convert.discriminating_report(code, 1)
        return {"kind": "discriminating", "n": n0 + 1, "of": f"extend_p{n0 - 9}",
                "discriminating": rep.discriminating, "nc": rep.nc, "ns": rep.ns,
                "code": code}
    steps.append((f"discriminating_n{n0 + 1}", discriminating_step))

    def cli_step(state):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", inputs["base_path"], "--r", "1", "--json"])
        return {"kind": "cli", "rc": rc, "payload": json.loads(buf.getvalue())}
    steps.append(("cli_verify", cli_step))
    return steps


def _exact_step(prop, a, b, budget):
    def step(state):
        if prop == "separating":
            out = exact.min_separating(a, b)
        elif prop == "identifying":
            out = exact.min_identifying(a, b, budget=budget, cap=b)
        else:
            out = exact.min_discriminating(a, b, budget=budget)
        return {
            "kind": "exact", "prop": prop, "a": a, "b": b, "budget": budget,
            "certified": out.size, "minimal": out.minimal, "nodes": out.nodes,
            "start_size": out.start_size, "infeasible": list(out.infeasible_sizes),
            "code": out.code,
        }
    return step


# taken before the tracer can wrap them
_OFFSET_CACHES = (hypercube.ball_offsets, hypercube.annulus_offsets)


def reset_caches() -> None:
    """Start every batch from cold offset tables, as a fresh process would."""
    for cached in _OFFSET_CACHES:
        cached.cache_clear()

