"""Command-line front end.

Subcommands compose the library into a scriptable pipeline: verify a code
file, construct one by greedy or noising search, extend it to a longer
code, prune useless codewords, convert between the identifying and
discriminating forms, run the exact minimum search, and query or check
the bounds registry.

A code file is read at --r, or else at the radius in its header.  Exit
codes: 0 success / property holds, 1 property fails or search came up
empty, 2 usage or parse errors, or a path that cannot be read or written.
A code that fails its property (``NotIdentifyingError`` or
``extend.VerificationFailed``) exits 1 in one place, ``main``, as the
report ``error <message>``.  Each subcommand builds one report dict:
--json prints it as JSON, the text form as one ``key value`` line per key
(a list of records as that line with the record keys, then one row per
record).  Without --out a built code goes into the JSON under "code", or
prints as a code file whose comment lines are the text report, so stdout
reads back as a code.  File writes are atomic, and every code written or
printed has passed its static verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import bounds as bounds_mod
from . import codefile, convert, exact, extend, heuristics
from .hypercube import Code
from .signatures import NotIdentifyingError, diagnose, is_identifying


def _word(value) -> str:
    return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))


def _lines(payload: dict):
    """The text report: one line per key in payload order."""
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            yield " ".join([key, *value[0]])
            for record in value:
                yield " ".join(map(_word, record.values()))
        else:
            yield " ".join([key, *map(_word, value if isinstance(value, list) else [value])])


def _emit(args: argparse.Namespace, payload: dict) -> None:
    """Print the report: one JSON document, or its text lines."""
    print(json.dumps(payload, sort_keys=True) if args.json else "\n".join(_lines(payload)))


def _read(path: str, radius: int | None) -> tuple[Code, int]:
    """The code in a file, and `radius` (--r) or else the header's radius."""
    cf = codefile.read_code_file(path)
    return cf.code, cf.radius if radius is None else radius


def _finish(args: argparse.Namespace, payload: dict, code: Code, radius: int, comment: str) -> int:
    """Write the code to --out, or hand it out: in the JSON, or as a code file
    whose comments are the text report."""
    if args.out:
        codefile.write_code_file(args.out, code, radius, [comment])
    elif args.json:
        payload["code"] = code.array.tolist()
    else:
        sys.stdout.write(codefile.serialize_code(code, radius, [comment, *_lines(payload)]))
        return 0
    _emit(args, payload)
    return 0


# -- verify ------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    code, r = _read(args.file, args.r)
    if args.discriminating:
        rep = convert.discriminating_report(code, r)
        holds, prop = rep.discriminating, f"{r}-discriminating"
    else:
        rep = diagnose(code, r)
        holds, prop = rep.identifying, f"{r}-identifying"
    payload = {
        "n": code.dim,
        "r": r,
        "size": len(code),
        "nc": rep.nc,
        "ns": rep.ns,
        "property": prop,
        "verdict": "PASS" if holds else "FAIL",
    }
    if not holds:
        if rep.uncovered is not None:
            payload["uncovered"] = rep.uncovered
        if rep.unseparated is not None:
            payload["unseparated"] = list(rep.unseparated)
    _emit(args, payload)
    return 0 if holds else 1


# -- construct ---------------------------------------------------------------


def _cmd_construct(args: argparse.Namespace) -> int:
    payload = {"method": args.method, "seed": args.seed}
    if args.method == "noising":
        if args.size is None:
            raise UsageError("--size is required with --method noising")
        cell = bounds_mod.load_registry().get((args.r, args.n))
        if cell and args.stop_size is not None and 1 <= args.stop_size < cell.lower:
            raise UsageError(f"--stop-size {args.stop_size} is below the lower bound {cell.lower} at r={args.r}, "
                             f"n={args.n}: no identifying code is that small, so the search cannot stop early")
        params = heuristics.NoisingParams(target_size=args.size, rho_init=args.rho_init, rho_steps=args.rho_steps,
                                          max_iterations=args.max_iterations, seed=args.seed)
        rep = heuristics.noising_search(args.r, args.n, params, stop_size=args.stop_size)
        code = rep.best_code
        payload.update(best_f=rep.best_f, iterations=rep.iterations_used,
                       sizes_achieved=[list(t) for t in rep.sizes_achieved])
        if code is None:
            _emit(args, {**payload, "error": "no identifying code found"})
            return 1
    else:
        code = heuristics.greedy_construct(args.r, args.n, seed=args.seed)
        if args.prune:
            code = heuristics.prune(code, args.r, restarts=args.restarts, seed=args.seed)
    # every heuristic verifies its code statically before returning it
    payload.update(size=len(code), verified=True)
    return _finish(args, payload, code, args.r, f"constructed by {args.method}")


# -- extend ------------------------------------------------------------------


def _cmd_extend(args: argparse.Namespace) -> int:
    code, r1 = _read(args.file, args.r)
    separ = codefile.read_code_file(args.separ).code if args.separ else None
    plan = extend.plan_extension(code, r1, args.p, args.r2, args.k, separ, args.force)
    out = extend.apply_plan(plan)
    payload = {
        "construction": plan.construction,
        "base_size": len(plan.base),
        "p": plan.p,
        "r2": plan.r2,
        "k": plan.k,
        "x_size": len(plan.x_set),
        "y_size": len(plan.y_set),
        "separ_size": None if plan.separ is None else len(plan.separ),
        "out_radius": plan.out_radius,
        "out_dim": plan.out_dim,
        "size": len(out),
        "verified": True,
    }
    comment = f"extension {plan.construction} from n={code.dim} r={r1} p={plan.p}"
    return _finish(args, payload, out, plan.out_radius, comment)


# -- prune -------------------------------------------------------------------


def _cmd_prune(args: argparse.Namespace) -> int:
    code, r = _read(args.file, args.r)
    pruned = heuristics.prune(code, r, restarts=args.restarts, seed=args.seed)
    payload = {"r": r, "size_before": len(code), "size_after": len(pruned)}
    return _finish(args, payload, pruned, r, "pruned to a 1-minimal code")


# -- convert -----------------------------------------------------------------


def _cmd_convert(args: argparse.Namespace) -> int:
    code, r = _read(args.file, args.r)
    if args.to == "discriminating":  # by the bijection, checking the output checks the input
        out, note = convert.to_discriminating(code), "parity-extended to the even-weight half"
        ok, why = convert.is_discriminating(out, r), "input code is not identifying"
    else:
        out, note = convert.to_identifying(code, pos=args.pos), "coordinate-deleted back to the full space"
        ok, why = is_identifying(out, r), "converted code failed verification"
    if not ok:
        raise NotIdentifyingError(why)
    payload = {"to": args.to, "n": out.dim, "r": r, "size": len(out), "verified": True}
    return _finish(args, payload, out, r, note)


# -- exact -------------------------------------------------------------------


def _cmd_exact(args: argparse.Namespace) -> int:
    outcome = exact.min_identifying(args.r, args.n, budget=args.budget, cap=args.cap)
    payload = {"r": args.r, "n": args.n, "minimum": outcome.size, "nodes": outcome.nodes,
               "start_size": outcome.start_size, "infeasible_sizes": list(outcome.infeasible_sizes)}
    if outcome.code is None:
        _emit(args, {**payload, "code": None})
        return 1
    return _finish(args, payload, outcome.code, args.r, "exact minimum")


# -- bounds ------------------------------------------------------------------


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.check:
        report = bounds_mod.check_consistency()
        failures = [{"name": c.name, "detail": c.detail} for c in report.failures]
        _emit(args, {"checks": len(report.checks), "failures": failures})
        return 0 if report.ok else 1
    if args.compare:
        code, r = _read(args.compare, args.r)
        try:
            verdict = bounds_mod.compare(code, r)
        except KeyError as exc:  # no registry row for (r, n)
            raise ValueError(exc.args[0]) from None
        rec = bounds_mod.lookup(r, code.dim)
        _emit(args, {"r": r, "size": len(code), "lower": rec.lower, "upper": rec.upper, "classification": verdict})
        return 0
    table = sorted(bounds_mod.load_registry().items())
    _emit(args, {"records": [{**dataclasses.asdict(rec), "exact": rec.exact} for _, rec in table]})
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
    # the options that subcommands share, each declared once
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true")
    built = argparse.ArgumentParser(add_help=False, parents=[report])
    built.add_argument("--out")
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("file")
    infile.add_argument("--r", type=int, default=None, help="override the file-header radius")

    p = sub.add_parser("verify", parents=[infile, report], help="check a code file for the identifying property")
    p.add_argument("--discriminating", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", parents=[built], help="build a code by greedy or noising search")
    p.add_argument("--method", choices=["greedy", "noising"], required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, help="start size for noising")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho-init", type=float, default=None)
    p.add_argument("--rho-steps", type=int, default=heuristics.NoisingParams.rho_steps)
    p.add_argument("--max-iterations", type=int, default=heuristics.NoisingParams.max_iterations)
    p.add_argument("--stop-size", type=int, default=None, help="return once a code this small is found")
    p.add_argument("--prune", action="store_true", help="prune after greedy")
    p.add_argument("--restarts", type=int, default=16)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("extend", parents=[infile, built], help="length/radius extension of a verified code")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r2", type=int, default=0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--separ", help="code file with the k-separating factor (C2)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("prune", parents=[infile, built], help="remove useless codewords (1-minimal result)")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("convert", parents=[infile, built], help="identifying <-> discriminating conversion")
    p.add_argument("--to", choices=["discriminating", "identifying"], required=True)
    p.add_argument("--pos", type=int, default=None, help="coordinate to delete (1-based)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("exact", parents=[built], help="certified minimum identifying code search")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="node budget")
    p.add_argument("--cap", type=int, default=5, help="largest n accepted")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bounds", parents=[report], help="query or check the bounds registry")
    p.add_argument("--check", action="store_true")
    p.add_argument("--compare", help="code file to classify against the registry")
    p.add_argument("--r", type=int, default=None, help="override the file-header radius")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "restarts", 1) < 1:  # construct and prune
            raise UsageError("--restarts must be >= 1")
        try:
            rc = args.func(args)
        except (NotIdentifyingError, extend.VerificationFailed) as exc:  # the code fails its property
            _emit(args, {"error": str(exc)})
            rc = 1
        sys.stdout.flush()  # a closed pipe shows up here, not at shutdown
        return rc
    except codefile.CodeFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 141  # the reader closed stdout early: exit as SIGPIPE would, silently
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The ``idcodes`` command: exit with main()'s code."""
    rc = main()
    if rc == 141:  # stdout's reader is gone: send the flush at shutdown to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(rc)


if __name__ == "__main__":
    run()
