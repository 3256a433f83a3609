"""Command-line front end.

Subcommands compose the library into a scriptable pipeline: verify a code
file, construct one by greedy or noising search, extend it to a longer
code, prune useless codewords, convert between the identifying and
discriminating forms, run the exact minimum search, and query or check
the bounds registry.

Exit codes: 0 success / property holds, 1 property fails or search came
up empty, 2 usage or parse errors.  Every subcommand accepts --json for
machine-readable output.  File writes are atomic, and subcommands refuse
to write a code that failed verification unless --unchecked is passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from . import codefile, convert, exact, extend, heuristics
from .hypercube import Code
from .signatures import diagnose, is_identifying


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _bin(word: int, n: int) -> str:
    return format(word, f"0{n}b")


def _write_or_print(args: argparse.Namespace, code: Code, radius: int, comments=()) -> None:
    out = getattr(args, "out", None)
    if out:
        codefile.write_code_file(out, code, radius, comments)
        if not getattr(args, "json", False):
            print(f"wrote {out} ({len(code)} words, n={code.dim}, r={radius})")
    else:
        sys.stdout.write(codefile.serialize_code(code, radius, comments))


# -- verify ------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    cf = codefile.read_code_file(args.file)
    code, n, r = cf.code, cf.code.dim, args.r
    if args.discriminating:
        rep = convert.discriminating_report(code, r)
        holds = rep.discriminating
        verdict_name = f"{r}-discriminating"
    else:
        rep = diagnose(code, r)
        holds = rep.identifying
        verdict_name = f"{r}-identifying"
    lines = [
        f"n {n}",
        f"r {r}",
        f"size {len(code)}",
        f"NC {rep.nc}",
        f"NS {rep.ns}",
        f"verdict {'PASS' if holds else 'FAIL'} ({verdict_name})",
    ]
    payload = {
        "n": n,
        "r": r,
        "size": len(code),
        "nc": rep.nc,
        "ns": rep.ns,
        "property": verdict_name,
        "verdict": "PASS" if holds else "FAIL",
    }
    if not holds:
        if rep.uncovered is not None:
            w = rep.uncovered
            lines.append(f"uncovered vertex {w} ({_bin(w, n)})")
            payload["uncovered"] = w
        if rep.unseparated is not None:
            u, v = rep.unseparated
            lines.append(f"unseparated pair {u} ({_bin(u, n)}) and {v} ({_bin(v, n)})")
            payload["unseparated"] = [u, v]
    _emit(args, payload, lines)
    return 0 if holds else 1


# -- construct ---------------------------------------------------------------


def _construct_noising(args: argparse.Namespace) -> tuple[Code | None, dict, list[str]]:
    rho_init = args.rho_init
    if rho_init is None:
        rho_init = heuristics.default_params(args.r, args.size).rho_init
    seeds = [args.seed] if args.seeds is None else [int(s) for s in args.seeds.split(",")]
    best: heuristics.SearchReport | None = None
    best_seed = seeds[0]
    for seed in seeds:
        params = heuristics.NoisingParams(
            target_size=args.size,
            rho_init=rho_init,
            rho_steps=args.rho_steps,
            sweeps_per_rho=args.sweeps_per_rho,
            max_iterations=args.max_iterations,
            seed=seed,
        )
        rep = heuristics.noising_search(args.r, args.n, params, stop_size=args.stop_size)
        better = best is None or (
            rep.best_code is not None
            and (best.best_code is None or len(rep.best_code) < len(best.best_code))
        )
        if better:
            best, best_seed = rep, seed
    lines = [f"seed {best_seed}", *best.to_text().splitlines()]
    payload = {
        "method": "noising",
        "seed": best_seed,
        "best_f": best.best_f,
        "iterations": best.iterations_used,
        "sizes_achieved": [list(t) for t in best.sizes_achieved],
    }
    if best.best_code is not None:
        payload["size"] = len(best.best_code)
    return best.best_code, payload, lines


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.method == "noising":
        if args.size is None:
            raise UsageError("--size is required with --method noising")
        code, payload, lines = _construct_noising(args)
        if code is None:
            _emit(args, payload, lines + ["no identifying code found"])
            return 1
    else:
        if args.prune:
            code = heuristics.greedy_and_prune(args.r, args.n, seed=args.seed, restarts=args.restarts)
        else:
            code = heuristics.greedy_construct(args.r, args.n, seed=args.seed)
        payload = {"method": "greedy", "seed": args.seed, "size": len(code)}
        lines = [f"size {len(code)}"]
    ev = diagnose(code, args.r)
    if not ev.identifying and not args.unchecked:
        _emit(args, {"error": "constructed code failed verification"}, ["verification failed"])
        return 1
    payload["verified"] = ev.identifying
    _emit(args, payload, lines)
    _write_or_print(args, code, args.r, comments=[f"constructed by {args.method}"])
    return 0


# -- extend ------------------------------------------------------------------


def _cmd_extend(args: argparse.Namespace) -> int:
    cf = codefile.read_code_file(args.file)
    r1 = args.r if args.r is not None else cf.radius
    try:
        if args.k is not None:
            separ = (
                codefile.read_code_file(args.separ).code
                if args.separ
                else Code.from_words(range(1, 1 << args.p), args.p)
            )
            plan = extend.plan_c2(cf.code, r1, args.p, args.r2, args.k, separ, force=args.force)
        else:
            plan = extend.plan_c1(cf.code, r1, args.p, args.r2, force=args.force)
        out = extend.apply_plan(plan)
    except extend.VerificationFailed as exc:
        _emit(args, {"error": str(exc)}, [f"FAIL: {exc}"])
        return 1
    lines = plan.report_lines() + [f"output size {len(out)}", "verified PASS"]
    payload = {
        "construction": plan.construction,
        "x_size": len(plan.x_set),
        "y_size": len(plan.y_set),
        "out_radius": plan.out_radius,
        "out_dim": plan.out_dim,
        "size": len(out),
        "verified": True,
    }
    if plan.separ is not None:
        payload["separ_size"] = len(plan.separ)
    _emit(args, payload, lines)
    _write_or_print(
        args,
        out,
        plan.out_radius,
        comments=[f"extension {plan.construction} from n={cf.code.dim} r={r1} p={plan.p}"],
    )
    return 0


# -- prune -------------------------------------------------------------------


def _cmd_prune(args: argparse.Namespace) -> int:
    cf = codefile.read_code_file(args.file)
    r = args.r if args.r is not None else cf.radius
    try:
        pruned = heuristics.prune(cf.code, r, restarts=args.restarts, seed=args.seed)
    except ValueError as exc:
        _emit(args, {"error": str(exc)}, [f"FAIL: {exc}"])
        return 1
    lines = [f"size {len(cf.code)} -> {len(pruned)}"]
    payload = {"r": r, "size_before": len(cf.code), "size_after": len(pruned)}
    _emit(args, payload, lines)
    _write_or_print(args, pruned, r, comments=["pruned to a 1-minimal code"])
    return 0


# -- convert -----------------------------------------------------------------


def _cmd_convert(args: argparse.Namespace) -> int:
    cf = codefile.read_code_file(args.file)
    r = args.r if args.r is not None else cf.radius
    code = cf.code
    if args.to == "discriminating":
        if not args.unchecked and not is_identifying(code, r):
            _emit(args, {"error": "input code is not identifying"}, ["FAIL: input not identifying"])
            return 1
        out = convert.to_discriminating(code)
        ok = args.unchecked or convert.is_discriminating(out, r)
        note = "parity-extended to the even-weight half"
    else:
        out = convert.to_identifying(code, pos=args.pos)
        ok = args.unchecked or is_identifying(out, r)
        note = "coordinate-deleted back to the full space"
    if not ok:
        _emit(args, {"error": "converted code failed verification"}, ["FAIL: output not verified"])
        return 1
    payload = {"to": args.to, "n": out.dim, "r": r, "size": len(out), "verified": not args.unchecked}
    _emit(args, payload, [f"n {out.dim}", f"size {len(out)}"])
    _write_or_print(args, out, r, comments=[note])
    return 0


# -- exact -------------------------------------------------------------------


def _cmd_exact(args: argparse.Namespace) -> int:
    outcome = exact.min_identifying(args.r, args.n, budget=args.budget, cap=args.cap)
    payload = {
        "r": args.r,
        "n": args.n,
        "minimum": outcome.size,
        "nodes": outcome.nodes,
        "start_size": outcome.start_size,
        "infeasible_sizes": list(outcome.infeasible_sizes),
        "code": None if outcome.code is None else list(outcome.code.words),
    }
    if outcome.code is None:
        _emit(args, payload, [f"budget exhausted after {outcome.nodes} nodes"])
        return 1
    lines = [
        f"minimum size {outcome.size}",
        f"nodes {outcome.nodes}",
        "code " + " ".join(str(w) for w in outcome.code.words),
    ]
    _emit(args, payload, lines)
    if getattr(args, "out", None):
        codefile.write_code_file(args.out, outcome.code, args.r, comments=["exact minimum"])
    return 0


# -- bounds ------------------------------------------------------------------


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.check:
        report = bounds_mod.check_consistency()
        lines = [report.summary()]
        for c in report.failures:
            lines.append(f"FAIL {c.name}: {c.detail}")
        payload = {
            "checks": len(report.checks),
            "failures": [{"name": c.name, "detail": c.detail} for c in report.failures],
        }
        _emit(args, payload, lines)
        return 0 if report.ok else 1
    if args.compare:
        if args.r is None:
            raise UsageError("--compare needs --r")
        cf = codefile.read_code_file(args.compare)
        try:
            verdict = bounds_mod.compare(cf.code, args.r)
        except KeyError as exc:  # no registry row for (r, n)
            raise ValueError(exc.args[0]) from None
        except ValueError as exc:
            _emit(args, {"error": str(exc)}, [f"FAIL: {exc}"])
            return 1
        rec = bounds_mod.lookup(args.r, cf.code.dim)
        lines = [
            f"size {len(cf.code)} against bounds {rec.lower}..{rec.upper}: {verdict}",
        ]
        payload = {
            "size": len(cf.code),
            "lower": rec.lower,
            "upper": rec.upper,
            "classification": verdict,
        }
        _emit(args, payload, lines)
        return 0
    table = bounds_mod.load_registry()
    lines = ["r n lower upper lower_key upper_key"]
    rows = []
    for (r, n), rec in sorted(table.items()):
        lines.append(f"{r} {n} {rec.lower} {rec.upper} {rec.lower_key} {rec.upper_key}")
        rows.append(
            {"r": r, "n": n, "lower": rec.lower, "upper": rec.upper, "exact": rec.exact}
        )
    _emit(args, {"records": rows}, lines)
    return 0


# -- parser ------------------------------------------------------------------


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idcodes",
        description="Construct, verify and transform identifying codes in binary Hamming space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a code file for the identifying property")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--discriminating", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="build a code by greedy or noising search")
    p.add_argument("--method", choices=["greedy", "noising"], required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, help="start size for noising")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", help="comma-separated seed portfolio (noising)")
    p.add_argument("--rho-init", type=float, default=None)
    p.add_argument("--rho-steps", type=int, default=100)
    p.add_argument("--sweeps-per-rho", type=int, default=1)
    p.add_argument("--max-iterations", type=int, default=2_000_000)
    p.add_argument("--stop-size", type=int, default=None)
    p.add_argument("--prune", action="store_true", help="prune after greedy")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--unchecked", action="store_true")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("extend", help="length/radius extension of a verified code")
    p.add_argument("file")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r2", type=int, default=0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--separ", help="code file with the k-separating factor (C2)")
    p.add_argument("--r", type=int, default=None, help="override the file-header radius")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("prune", help="remove useless codewords (1-minimal result)")
    p.add_argument("file")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("convert", help="identifying <-> discriminating conversion")
    p.add_argument("file")
    p.add_argument("--to", choices=["discriminating", "identifying"], required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--pos", type=int, default=None, help="coordinate to delete (1-based)")
    p.add_argument("--unchecked", action="store_true")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("exact", help="certified minimum identifying code search")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="node budget")
    p.add_argument("--cap", type=int, default=5, help="largest n accepted")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bounds", help="query or check the bounds registry")
    p.add_argument("--check", action="store_true")
    p.add_argument("--compare", help="code file to classify against the registry")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "restarts", 1) < 1:  # construct and prune
            raise UsageError("--restarts must be >= 1")
        return args.func(args)
    except codefile.CodeFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
