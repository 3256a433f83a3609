"""The idcodes benchmark: one workload per run, timed from outside the library.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root.  Each workload runs in a fresh
single-threaded worker process (``worker.py``); set-up is timed in that
process and in a few set-up-only processes.  With ``--trace 0`` the last
line of output is a JSON object holding every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer metric,
taken from a batch run under the tracer's wrappers.  Every output is
checked by ``check.py`` after timing stops, and its counts and code digests
are kept as a determinism record: a later run of the same sources and seed
that disagrees counts as failed.  ``--smoke`` runs every workload at a tiny
size, traced, with the same checks.

Everything the benchmark writes goes under ``.perfbench_out/`` in the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from check import Checker
from worker import REF_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search", "construct", "verify", "exact")
SETUP_REPEATS = 4  # set-up-only processes per run, besides the worker itself
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    if not (root / "src" / "idcodes" / "__init__.py").is_file():
        print(f"perfbench: no idcodes sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.smoke:
            return _smoke(root, deadline)
        run = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace),
                           "full", 0 if args.trace else SETUP_REPEATS, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = run["layers"] if args.trace else run["metrics"]
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    _print_report(run, metrics)
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


# -- processes -----------------------------------------------------------------


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "IDCODES_THREADS"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def _launch(root: Path, argv: list[str], log: Path, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it is ready.

    Returns the process and its set-up time, raw and scaled to the reference speed.
    """
    with open(log, "ab") as err:
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv], cwd=root, env=_child_env(root),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, text=True,
        )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - began
    ref = proc.stdout.readline().split()
    if line.strip() != "ready" or len(ref) != 2 or ref[0] != "ref":
        _finish(proc, deadline, log)
        raise BenchError(f"worker {argv[0]} did not get ready")
    return proc, (setup_s, setup_s * REF_S / float(ref[1]))


def _finish(proc: subprocess.Popen, deadline: float, log: Path) -> None:
    try:
        proc.communicate(timeout=_remaining(deadline))
    except (subprocess.TimeoutExpired, BenchError):
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran out of time") from None
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-20:]
        raise BenchError(f"worker exited with code {proc.returncode}:\n" + "\n".join(tail))


# -- one workload ----------------------------------------------------------------


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 size: str, setup_repeats: int, deadline: float) -> dict:
    out = root / ".perfbench_out"
    workdir = out / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    log = workdir / "worker.log"
    try:
        setup_samples = []
        for _ in range(setup_repeats):
            proc, setup_s = _launch(root, ["setup", str(root), workload], log, deadline)
            _finish(proc, deadline, log)
            setup_samples.append(setup_s)
        argv = ["run", str(root), workload, str(seed), str(seconds), str(int(trace)), size, str(workdir)]
        proc, setup_s = _launch(root, argv, log, deadline)
        setup_samples.append(setup_s)
        _finish(proc, deadline, log)
        res = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        with np.load(workdir / "codes.npz") as npz:
            arrays = {k: npz[k] for k in npz.files}
        if trace:
            (out / "spans").mkdir(parents=True, exist_ok=True)
            shutil.copyfile(workdir / "spans.npz", out / "spans" / f"{workload}-{size}-seed{seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    emissions = res["emissions"]
    failures = Checker(str(root), emissions, arrays, res["inputs"]).run()
    fps = res["fingerprints"]
    for i, batch in enumerate(fps[1:], start=2):
        for label, fp in batch.items():
            if fp != fps[0].get(label):
                failures[f"{label} (batch {i})"] = "differs from the first batch of this run"
    record = {label: _record_entry(em, fps[0][label]) for label, em in emissions.items()}
    digest = _tree_digest(root)
    determinism = _compare_record(out, digest, workload, size, seed, record)
    for label in determinism["mismatched"]:
        failures.setdefault(label, "differs from an earlier run of the same sources and seed")

    # Each step counts with its mean over all the batches of the run.
    untraced = res["step_seconds"][:len(res["walls"]) - (1 if trace else 0)]
    raw_s = {label: statistics.fmean(b[label][0] for b in untraced) for label in emissions}
    scaled_s = {label: statistics.fmean(b[label][1] for b in untraced) for label in emissions}
    units, spent = work_units(workload, emissions, scaled_s)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "wall_s": sum(scaled_s.values()),
        "iters_per_s": units / spent,
        "code_size": code_size(workload, emissions),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_raw_s": statistics.median(raw for raw, _ in setup_samples),
        "wall_raw_s": sum(raw_s.values()),
    }
    attempted = sum(len(batch) for batch in fps)
    failed = len(failures)
    metrics["failed_ratio"] = failed / attempted
    layers = res.get("layers", {})
    run = {
        "workload": workload, "size": size, "trace": trace,
        "env": _environment(root, seed, digest),
        "metrics": metrics, "layers": layers,
        "attempted": attempted, "failed": failed, "failures": failures,
        "batches": len(untraced), "walls": res["walls"], "step_seconds": res["step_seconds"],
        "setup_samples": setup_samples,
        "determinism": determinism, "record": record,
    }
    (out / "results").mkdir(parents=True, exist_ok=True)
    name = f"{workload}-{size}-seed{seed}-trace{int(trace)}.json"
    (out / "results" / name).write_text(json.dumps(run, indent=1, sort_keys=True), encoding="utf-8")
    return run


def work_units(workload: str, emissions: dict, seconds: dict) -> tuple[float, float]:
    """(units of work, seconds they took) behind the workload's iters_per_s.

    search: noising iterations over noising time; construct: greedy
    additions over greedy time; verify: vertices put through a static
    verdict over those verdicts' time; exact: search nodes over exact time.
    """
    units = spent = 0.0
    for label, em in emissions.items():
        kind = em["kind"]
        if workload == "search" and kind == "search":
            units += em["iterations"]
        elif workload == "construct" and kind == "greedy":
            units += em["size"]
        elif workload == "verify" and kind in ("verdict", "discriminating"):
            units += 1 << em["n"]
        elif workload == "verify" and kind == "cli":
            units += 1 << em["payload"]["n"]
        elif workload == "exact" and kind == "exact":
            units += em["nodes"]
        else:
            continue
        spent += seconds[label]
    if not units:
        raise BenchError(f"{workload} did no work (failed steps?)")
    return units, spent


def code_size(workload: str, emissions: dict) -> float:
    """Words emitted, by workload.

    search: the smallest identifying size each instance found, or its start
    size + 1 when it found none; construct: the pruned sizes; verify: the
    extended codes; exact: the certified minima.
    """
    total = 0
    for em in emissions.values():
        kind = em["kind"]
        if kind == "search":
            total += em["sizes"][-1][0] if em["sizes"] else em["start"] + 1
        elif kind in ("pruned", "extension"):
            total += em["size"]
        elif kind == "exact" and em["certified"] is not None:
            total += em["certified"]
    return float(total)


# -- determinism record and environment --------------------------------------------


def _record_entry(em: dict, fingerprint: str) -> dict:
    keep = ("iterations", "sizes", "nodes", "certified", "infeasible", "size", "words_sha256")
    entry = {k: em[k] for k in keep if k in em}
    entry["fingerprint"] = fingerprint
    return entry


def _tree_digest(root: Path) -> str:
    """Digest of the library sources and the benchmark, standing in for a revision."""
    h = hashlib.sha256()
    for base in (root / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _compare_record(out: Path, digest: str, workload: str, size: str, seed: int, record: dict) -> dict:
    path = out / "determinism" / digest[:16] / f"{workload}-{size}-seed{seed}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
        return {"status": "recorded", "mismatched": [], "path": str(path.relative_to(out.parent))}
    earlier = json.loads(path.read_text(encoding="utf-8"))
    mismatched = sorted(label for label in set(earlier) | set(record)
                        if earlier.get(label, {}).get("fingerprint") != record.get(label, {}).get("fingerprint"))
    return {"status": "MISMATCH" if mismatched else "match", "mismatched": mismatched,
            "path": str(path.relative_to(out.parent))}


def _git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(root: Path, seed: int, digest: str) -> dict:
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_revision": _git_revision(root), "source_digest": digest[:16],
        "seed": seed, "worker_threads": 1,
    }


# -- reporting --------------------------------------------------------------------

_UNITS = {"setup_s": "s", "wall_s": "s", "setup_raw_s": "s", "wall_raw_s": "s", "iters_per_s": "1/s", "code_size": "words",
          "peak_rss_mb": "MB", "failed_ratio": "failed/attempted"}

# ROADMAP baseline rows and the per-layer metric that now measures each
_BASELINE_ROWS = (
    ("noising (1,9), ms/iteration", "baseline.noising_1_9.ms_per_iter", "ms"),
    ("noising (1,10), ms/iteration", "baseline.noising_1_10.ms_per_iter", "ms"),
    ("greedy_construct (1,12)", "baseline.greedy_1_12.s", "s"),
    ("greedy_construct (2,12)", "baseline.greedy_2_12.s", "s"),
    ("static evaluator, n=20 C1 extension", "baseline.static_eval_n20.s", "s"),
    ("min_identifying(3,5)", "exact.identifying_3_5.busy_s", "s"),
    ("min_identifying(3,5) nodes", "exact.identifying_3_5.nodes", "nodes"),
    ("min_discriminating(3,6)", "exact.discriminating_3_6.busy_s", "s"),
    ("min_identifying(1,6), 200k-node budget", "exact.identifying_1_6_budget.busy_s", "s"),
)


def _print_report(run: dict, metrics: dict | None = None) -> None:
    env = run["env"]
    print(f"perfbench {run['workload']} ({run['size']}) seed={env['seed']} trace={int(run['trace'])} "
          f"batches={run['batches']}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("  end to end (untraced):")
    for name, value in run["metrics"].items():
        print(f"    {name:<14} {value:.6g} {_UNITS[name]}")
    det = run["determinism"]
    print(f"  determinism record: {det['status']} ({det['path']})")
    for label, reason in run["failures"].items():
        print(f"  FAILED {label}: {reason}")
    if not run["trace"]:
        return
    layers = run["layers"]
    print("  per layer (traced):")
    for name, m in (metrics or {}).items():
        print(f"    {name:<44} {m['value']:.6g} {m['unit']}")
    shares = {k[len("layer."):-len(".self_s")]: v for k, v in layers.items() if k.startswith("layer.")}
    total = sum(shares.values()) or 1.0
    print("  self time by layer: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v > 0))
    rows = [(what, layers[key], unit) for what, key, unit in _BASELINE_ROWS if layers.get(key)]
    if rows:
        print("  ROADMAP baseline rows, traced:")
        for what, value, unit in rows:
            print(f"    {what:<42} {value:.6g} {unit}")


def _smoke(root: Path, deadline: float) -> int:
    began = time.perf_counter()
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        run = run_workload(root, workload, 0, 0.0, True, "smoke", 0, deadline)
        _print_report(run, {k: {"value": v, "unit": ""} for k, v in sorted(run["layers"].items()) if v})
        attempted += run["attempted"]
        failed += run["failed"]
        for name, value in run["metrics"].items():
            metrics[f"{workload}.{name}"] = {"value": value, "unit": _UNITS[name]}
    print(f"smoke: {time.perf_counter() - began:.2f} s for {len(WORKLOADS)} workloads")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
