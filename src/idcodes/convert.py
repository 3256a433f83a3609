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

import numpy as np

from .hypercube import Code
from .signatures import VerifyReport, _evaluate_static


class DiscriminatingReport(VerifyReport):
    """A ``VerifyReport`` over the odd vertices only: nc, ns and the
    witnesses count and name odd vertices."""

    @property
    def discriminating(self) -> bool:
        return self.f == 0


def _check_even(code: Code) -> np.ndarray:
    """The codewords as a uint32 array, after checking they all have even weight."""
    words = code.array
    odd = np.flatnonzero(np.bitwise_count(words) & 1)
    if len(odd):
        raise ValueError(f"codeword {words[odd[0]]} has odd weight; all must be even")
    return words


def discriminating_report(code: Code, radius: int) -> DiscriminatingReport:
    """Nonemptiness/distinctness of odd-vertex cover sets, with witnesses."""
    if radius % 2 == 0:
        raise ValueError("the property is defined for odd radii only")
    words = _check_even(code)
    return DiscriminatingReport(code.dim, radius, len(code),
                                *_evaluate_static(words, code.dim, radius, odd_targets=True))


def is_discriminating(code: Code, radius: int) -> bool:
    return discriminating_report(code, radius).discriminating


def to_discriminating(code: Code) -> Code:
    """Append each codeword's parity bit; output lives in the even half
    of F^{n+1} and is r-discriminating there whenever the input is
    r-identifying (r odd)."""
    words = code.array
    # w -> 2w + parity(w) keeps the words strictly increasing
    return Code(code.dim + 1, (words << 1) | (np.bitwise_count(words) & 1))


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
    return Code(code.dim - 1, out)
