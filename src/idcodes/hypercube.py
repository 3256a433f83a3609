"""Bit-exact primitives of the binary Hamming space F^n.

Vectors are machine integers tagged with a dimension.  Coordinate 1 (in the
1-based convention used throughout) is the most significant of the ``dim``
bits, so a published decimal listing of codewords can be loaded verbatim:
the length-9 vector written ``110000001`` is simply the integer 385.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

import numpy as np

# Hard cap on the dimension: every table and enumeration is O(2^dim).
# Module-level so callers can raise it deliberately.
MAX_DIM = 30


def _check_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {dim}")


@dataclass(frozen=True, order=True)
class BitVector:
    """A vertex of F^n: ``dim`` coordinates packed into an unsigned int."""

    word: int
    dim: int

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if not 0 <= self.word < (1 << self.dim):
            raise ValueError(f"word {self.word} out of range for dim {self.dim}")

    @property
    def weight(self) -> int:
        return self.word.bit_count()

    def bit(self, pos: int) -> int:
        """Coordinate at 1-based position pos (1 = most significant)."""
        if not 1 <= pos <= self.dim:
            raise ValueError(f"position {pos} out of range for dim {self.dim}")
        return (self.word >> (self.dim - pos)) & 1

    def complement(self) -> "BitVector":
        return BitVector(self.word ^ ((1 << self.dim) - 1), self.dim)

    def __str__(self) -> str:
        return format(self.word, f"0{self.dim}b")


def distance(x: BitVector, y: BitVector) -> int:
    """Hamming distance: the number of coordinates where x and y differ."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} != {y.dim}")
    return (x.word ^ y.word).bit_count()


def parity(x: BitVector) -> int:
    """Parity-check bit: 0 for even weight, 1 for odd."""
    return x.word.bit_count() & 1


def append_parity(x: BitVector) -> BitVector:
    """x with its parity bit appended; the result always has even weight."""
    return BitVector((x.word << 1) | parity(x), x.dim + 1)


def delete_coordinate(x: BitVector, pos: int) -> BitVector:
    """Remove the coordinate at 1-based position pos, keeping the rest in order."""
    if x.dim < 2:
        raise ValueError("cannot delete from a 1-dimensional vector")
    if not 1 <= pos <= x.dim:
        raise ValueError(f"position {pos} out of range for dim {x.dim}")
    low_bits = x.dim - pos  # bits strictly below the deleted coordinate
    high = x.word >> (low_bits + 1)
    low = x.word & ((1 << low_bits) - 1)
    return BitVector((high << low_bits) | low, x.dim - 1)


def ball_size(n: int, r: int) -> int:
    """V(n, r) = number of vectors within distance r of a fixed vector."""
    return sum(comb(n, i) for i in range(r + 1))


def _offsets(n: int, lo: int, hi: int) -> list[int]:
    # Weight-layered generation: never filters all of F^n.
    out = []
    for w in range(lo, hi + 1):
        for positions in itertools.combinations(range(n), w):
            mask = 0
            for p in positions:
                mask |= 1 << p
            out.append(mask)
    return out


@lru_cache(maxsize=None)
def ball_offsets(n: int, r: int) -> np.ndarray:
    """XOR masks of all weight <= r words of F^n, as a read-only uint32 array."""
    if not 0 <= r <= n:
        raise ValueError(f"radius {r} out of range for dim {n}")
    arr = np.array(_offsets(n, 0, r), dtype=np.uint32)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def annulus_offsets(n: int, lo: int, hi: int) -> np.ndarray:
    """XOR masks of the words with lo <= weight <= hi."""
    lo = max(lo, 0)
    if hi > n:
        raise ValueError(f"upper distance {hi} exceeds dim {n}")
    arr = np.array(_offsets(n, lo, hi), dtype=np.uint32)
    arr.flags.writeable = False
    return arr


def odd_mask(dim: int) -> np.ndarray:
    """Boolean vector over F^dim, True at the odd-weight words."""
    return (np.bitwise_count(np.arange(1 << dim, dtype=np.uint32)) & 1) == 1


def ball(x: BitVector, r: int) -> list[BitVector]:
    """All vectors within distance r of x (x included), weight layer by layer."""
    if not 0 <= r <= x.dim:
        raise ValueError(f"radius {r} out of range for dim {x.dim}")
    return [BitVector(x.word ^ off, x.dim) for off in _offsets(x.dim, 0, r)]


def sphere(x: BitVector, r: int) -> list[BitVector]:
    """All vectors at distance exactly r of x."""
    if not 0 <= r <= x.dim:
        raise ValueError(f"radius {r} out of range for dim {x.dim}")
    return [BitVector(x.word ^ off, x.dim) for off in _offsets(x.dim, r, r)]


@dataclass(frozen=True)
class Code:
    """A nonempty, duplicate-free set of vertices of F^dim, kept sorted."""

    dim: int
    words: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        if not self.words:
            raise ValueError("a code must be nonempty")
        arr = np.array(self.words)  # floats, strings, ints beyond 64 bits: no int dtype
        if arr.dtype.kind not in "iu":
            raise ValueError(f"words must be integers in [0, 2^{self.dim}), got {arr.dtype}")
        if np.any(arr[1:] <= arr[:-1]):
            raise ValueError("words must be strictly increasing")
        for w in (arr[0], arr[-1]):
            if not 0 <= w < 1 << self.dim:
                raise ValueError(f"word {w} out of range for dim {self.dim}")

    @classmethod
    def from_words(cls, words: Iterable[int], dim: int) -> "Code":
        arr = np.sort(np.array(list(words)))
        keep = np.ones(len(arr), dtype=bool)
        keep[1:] = arr[1:] != arr[:-1]
        return cls(dim, tuple(arr[keep].tolist()))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, item) -> bool:
        if isinstance(item, BitVector):
            if item.dim != self.dim:
                return False
            item = item.word
        i = bisect_left(self.words, item)
        return i < len(self.words) and self.words[i] == item

    def __iter__(self):
        return iter(self.words)


def full_space(dim: int) -> Code:
    _check_dim(dim)
    return Code(dim, tuple(range(1 << dim)))


def direct_sum(x_code: Code, y_code: Code) -> Code:
    """All concatenations u|v with u from the first code, v from the second."""
    _check_dim(x_code.dim + y_code.dim)
    u = np.array(x_code.words, dtype=np.int64)
    v = np.array(y_code.words, dtype=np.int64)
    # with both inputs sorted, the words u|v come out strictly increasing
    words = ((u[:, None] << y_code.dim) | v).ravel()
    out = Code(x_code.dim + y_code.dim, tuple(words.tolist()))
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


def apply_isometry(code: Code, translate: BitVector, perm: Sequence[int]) -> Code:
    """Permute coordinates of every codeword, then XOR-translate; canonical result.

    perm lists 1-based source positions: output coordinate i is input
    coordinate perm[i-1].  Both operations preserve all pairwise distances.
    """
    if translate.dim != code.dim:
        raise ValueError("translate dimension does not match code")
    words = permute_words(code.words, perm, code.dim) ^ np.uint32(translate.word)
    return Code.from_words(words.tolist(), code.dim)
