"""Parity bridge between identifying and discriminating codes.

F^{n+1} splits into even-weight vectors (the attribute side) and odd-weight
vectors (the individuals).  A code sitting inside the even half is
r-discriminating (r odd) when every odd vector gets a nonempty cover set
and no two odd vectors share one.  Appending a parity bit maps an
r-identifying code of F^n bijectively onto such codes of F^{n+1}; deleting
any single coordinate maps back.  Both directions preserve size because a
deleted bit of an even-weight vector is recoverable as the parity of the
rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypercube import Code
from .signatures import _evaluate_static


def even_words(dim: int) -> np.ndarray:
    words = np.arange(1 << dim, dtype=np.uint32)
    return words[(np.bitwise_count(words) & 1) == 0]


@dataclass(frozen=True)
class DiscriminatingReport:
    """Cover-set verdict over the odd vertices.  Witnesses: the smallest
    uncovered odd vertex; the two smallest uncovered odd vertices if there
    are two, else the two smallest members of the exact cover-set class
    holding the smallest unseparated covered odd vertex (None if none)."""

    dim: int
    radius: int
    size: int
    nc: int
    ns: int
    discriminating: bool
    uncovered: int | None
    unseparated: tuple[int, int] | None


def _check_even(code: Code) -> np.ndarray:
    """The codewords as a uint32 array, after checking they all have even weight."""
    words = np.array(code.words, dtype=np.uint32)
    odd = np.flatnonzero(np.bitwise_count(words) & 1)
    if len(odd):
        raise ValueError(f"codeword {code.words[odd[0]]} has odd weight; all must be even")
    return words


def discriminating_report(code: Code, radius: int) -> DiscriminatingReport:
    """Nonemptiness/distinctness of odd-vertex cover sets, with witnesses."""
    if radius % 2 == 0:
        raise ValueError("the property is defined for odd radii only")
    words = _check_even(code)
    nc, ns, uncovered, pair = _evaluate_static(words, code.dim, radius, True, odd_targets=True)
    return DiscriminatingReport(
        dim=code.dim,
        radius=radius,
        size=len(code),
        nc=nc,
        ns=ns,
        discriminating=(nc + ns == 0),
        uncovered=uncovered,
        unseparated=pair,
    )


def is_discriminating(code: Code, radius: int) -> bool:
    return discriminating_report(code, radius).discriminating


def to_discriminating(code: Code) -> Code:
    """Append each codeword's parity bit; output lives in the even half
    of F^{n+1} and is r-discriminating there whenever the input is
    r-identifying (r odd)."""
    words = np.array(code.words, dtype=np.int64)
    # w -> 2w + parity(w) keeps the words strictly increasing
    return Code(code.dim + 1, tuple(((words << 1) | (np.bitwise_count(words) & 1)).tolist()))


def to_identifying(code: Code, pos: int | None = None) -> Code:
    """Delete one coordinate (1-based; default the last).

    For an all-even code the deletion is injective, and it turns an
    r-discriminating code of F^n into an r-identifying code of F^{n-1}
    for any choice of coordinate.
    """
    words = _check_even(code)
    if pos is None:
        pos = code.dim
    if code.dim < 2:
        raise ValueError("cannot delete from a 1-dimensional vector")
    if not 1 <= pos <= code.dim:
        raise ValueError(f"position {pos} out of range for dim {code.dim}")
    low_bits = code.dim - pos  # bits strictly below the deleted coordinate
    high = words >> (low_bits + 1) << low_bits
    out = np.sort(high | (words & ((1 << low_bits) - 1)))
    assert np.all(out[1:] > out[:-1]), "coordinate deletion must stay injective"
    return Code(code.dim - 1, tuple(out.tolist()))
