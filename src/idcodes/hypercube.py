"""Bit-exact primitives of the binary Hamming space F^n.

A vertex of F^n is a plain int word in [0, 2^n); the dimension lives with
the code or the caller, never with the word.  Coordinate 1 (in the 1-based
convention used throughout) is the most significant of the n bits, so a
published decimal listing of codewords can be loaded verbatim: the length-9
vector written ``110000001`` is simply the integer 385.  Distance is
``(a ^ b).bit_count()``, and a ball is ``ball_offsets(n, r) ^ x``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Iterable

import numpy as np

# Hard cap on the dimension of a Code, fixed rather than a setting: its words
# are uint32, which astype wraps silently past 32 bits, and codefile copies the
# cap at import.  At 30, every word and 2^dim also fit a signed 32-bit int.
MAX_DIM = 30
ODD_RADII = ("defined for odd radii only: for even r the property equals the one at r - 1, since an odd vertex "
             "and an even codeword are always at odd distance")


def _check_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {dim}")


def ball_size(n: int, r: int) -> int:
    """V(n, r) = number of vectors within distance r of a fixed vector."""
    return sum(comb(n, i) for i in range(r + 1))


@lru_cache(maxsize=None)
def ball_offsets(n: int, r: int) -> np.ndarray:
    """XOR masks of all weight <= r words of F^n, as a read-only uint32 array."""
    if not 0 <= r <= n:
        raise ValueError(f"radius {r} out of range for dim {n}")
    return annulus_offsets(n, 0, r)


@lru_cache(maxsize=None)
def annulus_offsets(n: int, lo: int, hi: int) -> np.ndarray:
    """XOR masks of the words with lo <= weight <= hi, weight by weight: never filters all of F^n."""
    if hi > n:
        raise ValueError(f"upper distance {hi} exceeds dim {n}")
    out = []
    for w in range(max(lo, 0), hi + 1):
        for positions in itertools.combinations(range(n), w):
            mask = 0
            for p in positions:
                mask |= 1 << p
            out.append(mask)
    arr = np.array(out, dtype=np.uint32)
    arr.flags.writeable = False
    return arr


def odd_mask(dim: int) -> np.ndarray:
    """Boolean vector over F^dim, True at the odd-weight words."""
    return np.bitwise_count(np.arange(1 << dim)) % 2 == 1


class Code:
    """A nonempty, duplicate-free set of vertices of F^dim, kept sorted.  The
    words, given as any integer sequence or 1-D array, are stored only as the
    read-only uint32 ``array``, which hot code reads; ``words`` builds their
    tuple of Python ints on each access, at about 36 bytes a word."""

    def __init__(self, dim: int, words: Iterable[int] | np.ndarray) -> None:
        _check_dim(dim)
        # floats, strings, ints beyond 64 bits: no int dtype
        arr = words if isinstance(words, np.ndarray) else np.array(words)
        if not len(arr):
            raise ValueError("a code must be nonempty")
        if arr.dtype.kind not in "iu":
            raise ValueError(f"words must be integers in [0, 2^{dim}), got {arr.dtype}")
        if np.any(arr[1:] <= arr[:-1]):
            raise ValueError("words must be strictly increasing")
        for w in (arr[0], arr[-1]):
            if not 0 <= w < 1 << dim:
                raise ValueError(f"word {w} out of range for dim {dim}")
        array = arr.astype(np.uint32)
        array.flags.writeable = False
        vars(self).update(dim=dim, array=array)  # past the immutable __setattr__

    def __setattr__(self, name, value):
        raise AttributeError(f"Code is immutable; cannot set {name!r}")

    @property
    def words(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Code) and self.dim == other.dim and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.dim, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"Code(dim={self.dim}, words={self.words})"

    @classmethod
    def from_words(cls, words: Iterable[int], dim: int) -> "Code":
        """The code of the distinct words, in any order."""
        arr = np.sort(words if isinstance(words, np.ndarray) else np.array(list(words)))
        keep = np.ones(len(arr), dtype=bool)  # not np.unique: its first call imports numpy.ma
        keep[1:] = arr[1:] != arr[:-1]
        return cls(dim, arr[keep])

    def __len__(self) -> int:
        return len(self.array)

    def __contains__(self, item) -> bool:
        i = np.searchsorted(self.array, item)
        return bool(i < len(self.array) and self.array[i] == item)

    def __iter__(self):
        return iter(self.array.tolist())


def full_space(dim: int) -> Code:
    _check_dim(dim)
    return Code(dim, np.arange(1 << dim))


def direct_sum(x_code: Code, y_code: Code) -> Code:
    """All concatenations u|v with u from the first code, v from the second."""
    _check_dim(x_code.dim + y_code.dim)
    # with both inputs sorted, the words u|v come out strictly increasing
    words = (x_code.array[:, None] << np.uint32(y_code.dim)) | y_code.array
    out = Code(x_code.dim + y_code.dim, words.ravel())
    assert len(out) == len(x_code) * len(y_code)
    return out


def permute_words(words, perms, dim: int) -> np.ndarray:
    """Coordinate permutations of a 1-D word array, broadcast over permutations.

    perms has shape (..., dim) and lists 1-based source positions: output
    coordinate i is input coordinate perm[i-1].  The result has shape
    perms.shape[:-1] + (len(words),), dtype uint32.
    """
    words = np.asarray(words, dtype=np.uint32)
    perms = np.asarray(perms)
    if perms.shape[-1:] != (dim,) or np.any(np.sort(perms, axis=-1) != np.arange(1, dim + 1)):
        raise ValueError("perm must be a permutation of 1..dim")
    # one shift per output coordinate: the bit its source coordinate sits at
    shifts = np.moveaxis(dim - perms, -1, 0).astype(np.uint32)[..., None]
    out = np.zeros(perms.shape[:-1] + words.shape, dtype=np.uint32)
    for i, shift in enumerate(shifts):
        out |= ((words >> shift) & 1) << np.uint32(dim - 1 - i)
    return out
