"""One fresh, single-threaded process of a workload.

    worker.py setup <root> <workload>
    worker.py run <root> <workload> <seed> <seconds> <trace> <size> <workdir>

Both modes import idcodes from ``<root>/src``, load the bounds registry and
read the workload's input files, then print ``ready``; ``run.py`` times
that as set-up.  Both then print ``ref <seconds>``, the time of the
reference computation (see ``reference_seconds``).  ``setup`` then exits.  ``run`` builds the inputs from the
seed, then:

* with trace 0, runs the batch again and again until ``seconds`` have
  passed (at least once), timing each batch;
* with trace 1, runs two untraced batches, then one batch with the
  tracer's wrappers installed, and writes the spans out once at the end.

Results go to ``<workdir>/result.json`` and the emitted codes of the first
batch to ``<workdir>/codes.npz``; ``run.py`` checks them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np


def main(argv: list[str]) -> int:
    mode, root, workload = argv[:3]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import idcodes

    if not os.path.abspath(idcodes.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"idcodes imported from {idcodes.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    setup_tracer = None
    if mode == "run" and argv[5] == "1":
        setup_tracer = tracing.Tracer()
        patches = tracing.install(setup_tracer, idcodes)
        inputs = workloads.setup(workload, root)
        tracing.uninstall(patches)
    else:
        inputs = workloads.setup(workload, root)
    print("ready", flush=True)
    print(f"ref {sum(reference_seconds() for _ in range(3)) / 3!r}", flush=True)
    if mode == "setup":
        return 0

    seed, seconds, trace, size, workdir = int(argv[3]), float(argv[4]), argv[5] == "1", argv[6], argv[7]
    steps, described = workloads.build_steps(workload, seed, size, inputs, workdir)
    result = {"inputs": described, "walls": [], "step_seconds": [], "fingerprints": []}
    # A traced run still makes two untraced batches: the first pays the
    # process's one-time costs, the second is the baseline for the overhead.
    first = None
    began = time.perf_counter()
    while len(result["walls"]) < 1 + trace or (not trace and time.perf_counter() - began < seconds):
        emissions, seconds_by_step, wall = _run_batch(steps, workloads)
        first = first or emissions
        _record(result, emissions, seconds_by_step, wall)
    result["peak_rss_mb"] = _peak_rss_mb()
    if trace:
        batch_tracer = tracing.Tracer()
        ball_offsets = idcodes.hypercube.ball_offsets
        patches = tracing.install(batch_tracer, idcodes)
        emissions, seconds_by_step, traced_wall = _run_batch(steps, workloads)
        misses = ball_offsets.cache_info().misses  # the batch began with cache_clear
        tracing.uninstall(patches)
        _record(result, emissions, seconds_by_step, traced_wall)
        layers = tracing.layer_metrics(batch_tracer, sum(raw for raw, _ in seconds_by_step.values()))
        layers["hypercube.ball_offsets.misses"] = float(misses)
        layers["trace.overhead_s"] = traced_wall - wall
        layers["setup.load_registry.busy_s"] = tracing.layer_metrics(setup_tracer, 0.0)[
            "bounds.load_registry.busy_s"]
        result["layers"] = layers
        batch_tracer.save(os.path.join(workdir, "spans.npz"))

    arrays = {}
    fields = {}
    for label, em in first.items():
        words = em.pop("words", None)
        if words is not None:
            arrays[label] = words
        fields[label] = em
    result["emissions"] = fields
    np.savez(os.path.join(workdir, "codes.npz"), **arrays)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# The host's speed changes by up to 1.7x within seconds when other tenants
# load it.  The reference computation below slows with it (correlation 0.9
# against search and exact steps), so each step is also reported scaled to
# the speed at which the reference takes REF_S.
REF_S = 0.025
_REF_RNG = np.random.Generator(np.random.PCG64(7))
_REF_TABLE = _REF_RNG.integers(0, 1 << 20, size=4096)
_REF_GATHER = _REF_RNG.integers(0, 4096, size=(4096, 11))
# preallocated, so that the reference's time does not depend on the heap
# the workload left behind
_REF_OUT = np.empty((4096, 11), dtype=np.int64)


def reference_seconds() -> float:
    """Time of a fixed mix of the kinds of work idcodes does: a numpy gather
    and row sort, big-integer bit operations and dict updates."""
    began = time.perf_counter()
    for _ in range(40):
        np.take(_REF_TABLE, _REF_GATHER, out=_REF_OUT)
        _REF_OUT.sort(axis=1)
    x = (1 << 1024) - 98765
    acc = 0
    for i in range(8000):
        acc ^= (x >> (i & 511)) & (x - i)
    counts: dict[int, int] = {}
    for i in range(15000):
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    return time.perf_counter() - began


def _run_batch(steps, workloads):
    """Run every step once; an exception is recorded as that step's emission.

    Returns the emissions, each step's (seconds, seconds scaled to the
    reference speed measured just before and after it) and the batch's
    scaled wall time.
    """
    workloads.reset_caches()
    state: dict = {}
    raw, seconds = {}, {}
    ref_before = reference_seconds()
    for label, step in steps:
        t0 = time.perf_counter()
        try:
            raw[label] = step(state)
        except Exception:
            raw[label] = {"kind": "error", "error": traceback.format_exc()}
        took = time.perf_counter() - t0
        ref_after = reference_seconds()
        seconds[label] = (took, took * REF_S * 2 / (ref_before + ref_after))
        ref_before = ref_after
    wall = sum(scaled for _, scaled in seconds.values())
    return {label: _plain(em) for label, em in raw.items()}, seconds, wall


def _plain(em: dict) -> dict:
    """Replace an emitted Code by its size, sorted words and their digest."""
    em = dict(em)
    code = em.pop("code", None)
    if code is not None:
        words = np.fromiter(code.words, dtype=np.uint32, count=len(code))
        em["size"] = len(words)
        em["words_sha256"] = hashlib.sha256(np.sort(words).astype("<u4").tobytes()).hexdigest()
        em["words"] = words
    elif em.get("kind") != "error":
        em["size"] = None
    return em


def _fingerprint(em: dict) -> str:
    """Digest of everything an emission says apart from its words array."""
    body = {k: v for k, v in em.items() if k != "words"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _record(result: dict, emissions: dict, seconds_by_step: dict, wall: float) -> None:
    result["walls"].append(wall)
    result["step_seconds"].append(seconds_by_step)
    result["fingerprints"].append({label: _fingerprint(em) for label, em in emissions.items()})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
