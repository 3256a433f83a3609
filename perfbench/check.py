"""Independent checks of what a workload emitted, run after timing stops.

Nothing here imports idcodes.  Codes with n <= 12 are checked from the
definition by brute force: numpy builds every vertex's cover set as a bit
row and compares the rows.  The extended codes of the verify workload are
too big for that; they are checked against the direct sum recomputed here,
the code file round trip must return them unchanged, and a FAIL verdict's
witness is confirmed from the balls of the witness vertices.  Certified
exact sizes must match the bounds registry wherever it is exact.
"""

from __future__ import annotations

import functools
import itertools
import os

import numpy as np

BRUTE_FORCE_MAX_DIM = 12
# Cells the registry leaves open but the exact search settles.  No 9-word
# 3-identifying code exists in F^5, so both come out as 10.
EXPECTED_SIZES = {("identifying", 3, 5): 10, ("discriminating", 3, 6): 10}


def read_registry(root: str) -> dict[tuple[int, int], tuple[int, int]]:
    """(r, n) -> (lower, upper), parsed straight from the data file."""
    table = {}
    path = os.path.join(root, "src", "idcodes", "data", "bounds_table.txt")
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split("#", 1)[0].split()
            if parts:
                r, n, lower, upper = (int(p) for p in parts[:4])
                table[(r, n)] = (lower, upper)
    return table


def read_code(path: str) -> tuple[int, np.ndarray]:
    """(n, sorted words) of a code file: header ``n=.. r=..``, one word a line."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    n = int(lines[0].split()[0].removeprefix("n="))
    return n, np.sort(np.array([int(w) for w in lines[1:]], dtype=np.uint32))


def _offsets(n: int, r: int) -> np.ndarray:
    masks = [sum(1 << p for p in pos) for w in range(r + 1) for pos in itertools.combinations(range(n), w)]
    return np.array(masks, dtype=np.uint32)


def _rows(words: np.ndarray, n: int, r: int, vertices: np.ndarray) -> np.ndarray:
    if n > BRUTE_FORCE_MAX_DIM:
        raise ValueError(f"brute force is for n <= {BRUTE_FORCE_MAX_DIM}, got {n}")
    dist = np.bitwise_count(vertices[:, None] ^ words[None, :].astype(np.uint32))
    return np.packbits(dist <= r, axis=1)


def _all_distinct(rows: np.ndarray) -> bool:
    return len(np.unique(rows, axis=0)) == len(rows)


def identifying(words: np.ndarray, n: int, r: int) -> str | None:
    """None when every vertex has a nonempty cover set and no two share one."""
    rows = _rows(words, n, r, np.arange(1 << n, dtype=np.uint32))
    if not rows.any(axis=1).all():
        return f"some vertex is uncovered at r={r}"
    if not _all_distinct(rows):
        return f"two vertices share a cover set at r={r}"
    return None


def separating(words: np.ndarray, n: int, k: int) -> str | None:
    rows = _rows(words, n, k, np.arange(1 << n, dtype=np.uint32))
    return None if _all_distinct(rows) else f"two vertices share a cover set at k={k}"


def discriminating(words: np.ndarray, n: int, r: int) -> str | None:
    if (np.bitwise_count(words) & 1).any():
        return "a codeword has odd weight"
    verts = np.arange(1 << n, dtype=np.uint32)
    rows = _rows(words, n, r, verts[(np.bitwise_count(verts) & 1) == 1])
    if not rows.any(axis=1).all():
        return "some odd vertex is uncovered"
    if not _all_distinct(rows):
        return "two odd vertices share a cover set"
    return None


def _cover(vertex: int, code: np.ndarray, n: int, r: int) -> np.ndarray:
    ball = np.sort(np.uint32(vertex) ^ _offsets(n, r))
    return ball[np.isin(ball, code, assume_unique=True)]


class Checker:
    """Checks the emissions of one batch; ``failures`` maps label to reason."""

    def __init__(self, root: str, emissions: dict, arrays: dict, inputs: dict):
        self.root = root
        self.em = emissions
        self.arrays = arrays
        self.inputs = inputs
        self.registry = read_registry(root)
        self.failures: dict[str, str] = {}

    def run(self) -> dict[str, str]:
        for label, em in self.em.items():
            try:
                reason = getattr(self, f"_{em['kind']}")(label, em)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                reason = f"malformed emission: {exc!r}"
            if reason:
                self.failures[label] = reason
        return self.failures

    def _words(self, label: str) -> np.ndarray | None:
        words = self.arrays.get(label)
        return None if words is None else np.sort(words)

    def _error(self, label, em):
        return "exception: " + em["error"].strip().splitlines()[-1]

    def _search(self, label, em):
        words, sizes = self._words(label), em["sizes"]
        if em["iterations"] != em["budget"]:
            return f"used {em['iterations']} of {em['budget']} iterations"
        if words is None:
            return None if em["best_f"] > 0 and not sizes else "no code, but sizes were recorded"
        if em["best_f"] != 0 or not sizes or len(words) != sizes[-1][0]:
            return "best code does not match the recorded sizes"
        if any(b[0] >= a[0] or b[1] < a[1] for a, b in zip(sizes, sizes[1:])):
            return "recorded sizes do not strictly decrease"
        return identifying(words, em["n"], em["r"])

    def _greedy(self, label, em):
        return identifying(self._words(label), em["n"], em["r"])

    def _pruned(self, label, em):
        words, parent = self._words(label), self._words(em["of"])
        if not np.isin(words, parent).all():
            return "pruned code is not a subset of the greedy code"
        return identifying(words, em["n"], em["r"])

    @functools.cached_property
    def _base(self) -> np.ndarray:
        n, base = read_code(os.path.join(self.root, "src", "idcodes", "data", "code_1_9_114.txt"))
        reason = identifying(base, n, 1)
        if reason:
            raise ValueError(f"shipped code: {reason}")
        return base

    def _extension(self, label, em):
        p = em["p"]
        expected = ((self._base[:, None] << np.uint32(p)) | np.arange(1 << p, dtype=np.uint32)).ravel()
        if not np.array_equal(self._words(label), np.sort(expected)):
            return f"not the direct sum of the shipped code with F^{p}"
        return None

    def _roundtrip(self, label, em):
        if em["radius"] != 1 or not np.array_equal(self._words(label), self._words(em["of"])):
            return "code changed on its way through the code file"
        return None

    def _verdict(self, label, em):
        if em["expect"] == "PASS":
            ok = em["identifying"] and em["nc"] == em["ns"] == 0
            ok = ok and em["uncovered"] is None and em["unseparated"] is None
            return None if ok else "identifying code reported as failing"
        if em["identifying"] or em["nc"] + em["ns"] == 0:
            return "damaged code reported as identifying"
        code = self._words(em["of"])
        k = self.inputs["delete_at"] % len(code)
        if em["deleted"] != int(code[k]):
            return "deleted the wrong codeword"
        damaged = np.delete(code, k)
        n = em["n"]
        if em["uncovered"] is not None:
            if len(_cover(em["uncovered"], damaged, n, 1)):
                return f"vertex {em['uncovered']} is not uncovered"
            return None
        if em["unseparated"] is not None:
            u, v = em["unseparated"]
            if u == v or not np.array_equal(_cover(u, damaged, n, 1), _cover(v, damaged, n, 1)):
                return f"vertices {u} and {v} are separated"
            return None
        return "FAIL verdict without a witness"

    def _discriminating(self, label, em):
        code = self._words(em["of"])
        expected = np.sort((code << np.uint32(1)) | (np.bitwise_count(code) & 1).astype(np.uint32))
        if not np.array_equal(self._words(label), expected):
            return "parity extension differs"
        if not em["discriminating"] or em["nc"] or em["ns"]:
            return "discriminating code reported as failing"
        return None

    def _cli(self, label, em):
        pay = em["payload"]
        ok = em["rc"] == 0 and pay.get("verdict") == "PASS" and pay.get("n") == 9
        ok = ok and pay.get("size") == len(self._base) and pay.get("nc") == pay.get("ns") == 0
        return None if ok else f"idcodes verify said {pay!r} with exit code {em['rc']}"

    def _exact(self, label, em):
        prop, a, b = em["prop"], em["a"], em["b"]
        # the registry cell behind each property
        cell = {"identifying": (a, b), "separating": (b, a), "discriminating": (a, b - 1)}[prop]
        lower, upper = self.registry[cell]
        if em["budget"] is not None:
            ok = em["certified"] is None and not em["minimal"] and em["nodes"] == em["budget"] + 1
            ok = ok and em["start_size"] == lower and not em["infeasible"]
            return None if ok else f"expected the budget to run out at size {lower}"
        words, size = self._words(label), em["certified"]
        if not em["minimal"] or words is None or len(words) != size:
            return "no certified code"
        if any(s >= size for s in em["infeasible"]):
            return "a size at or above the result was ruled infeasible"
        if prop == "separating":
            allowed = {upper - 1, upper} if lower == upper else set(range(lower - 1, upper + 1))
        else:
            allowed = {upper} if lower == upper else set(range(lower, upper + 1))
        expected = EXPECTED_SIZES.get((prop, a, b))
        if expected is not None:
            allowed = {expected}
        if size not in allowed:
            return f"certified size {size}, registry allows {sorted(allowed)}"
        check = {"identifying": identifying, "separating": separating, "discriminating": discriminating}[prop]
        n, r = (a, b) if prop == "separating" else (b, a)
        return check(words, n, r)
