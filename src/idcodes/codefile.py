"""The on-disk code format: a header line then decimal codewords.

    n=<dim> r=<radius>
    # optional comments
    0
    17 0031

The header is the first line not blank without its ``#`` comment; <dim> is
at most ``MAX_DIM``.  Codewords are ASCII decimal digits (leading zeros
allowed), separated by any whitespace.  The radius in the header is
provenance (what the code was built or checked for), and the radius a
reading CLI command uses unless --r is given; parsing still verifies
nothing.  Input order is free, output is canonical sorted order.  Writes
go through a temp file and an atomic rename so readers never observe a
half-written code.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .hypercube import MAX_DIM, Code

_HEADER = re.compile(r"^n=([0-9]+)\s+r=([0-9]+)$")
# str.splitlines ends a line at each of these; a comment runs up to one
_EOL = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")
_COMMENT = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
_DIGITS_AND_C_SPACE = b"0123456789 \t\n\r\v\f"


class CodeFileError(ValueError):
    """Parse failure, carrying the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


@dataclass(frozen=True)
class CodeFile:
    code: Code
    radius: int


def _lines(text: str) -> Iterator[tuple[int, str, int]]:
    """(line number, line without its comment and stripped, offset of the
    next line) for each line, numbered and split as str.splitlines does."""
    pos, line_no = 0, 0
    while pos < len(text):
        line_no += 1
        eol = _EOL.search(text, pos)
        end, nxt = eol.span() if eol else (len(text), len(text))
        yield line_no, text[pos:end].split("#", 1)[0].strip(), nxt
        pos = nxt


def parse_code_text(text: str) -> CodeFile:
    line_no, lines = 0, _lines(text)
    for line_no, line, start in lines:
        if line:
            break
    else:
        raise CodeFileError(max(line_no, 1), "missing header line 'n=<dim> r=<radius>'")
    m = _HEADER.match(line)
    if not m:
        raise CodeFileError(line_no, f"expected 'n=<dim> r=<radius>', got {line!r}")
    dim, radius = int(m.group(1)), int(m.group(2))
    if dim < 1:
        raise CodeFileError(line_no, "dim must be positive")
    if dim > MAX_DIM:
        raise CodeFileError(line_no, f"dim must be at most {MAX_DIM}")
    body = _COMMENT.sub("", text[start:])
    if body.strip() and body.isascii() and not body.encode().translate(None, _DIGITS_AND_C_SPACE):
        # fromstring splits at C whitespace and reads a blank body as [0]; a token past int64 reads as its maximum
        words = np.sort(np.fromstring(body, dtype=np.int64, sep=" "))
        if words[-1] < 1 << dim and not np.any(words[1:] == words[:-1]):
            return CodeFile(Code(dim, words.astype(np.uint32)), radius)
    # some token is bad, or a separator is whitespace only to str.split: walk the tokens
    seen: set[int] = set()
    for line_no, line, _ in lines:
        for tok in line.split():
            if not (tok.isascii() and tok.isdigit()):
                raise CodeFileError(line_no, f"expected a decimal codeword, got {tok!r}")
            word = int(tok)
            if word >= (1 << dim):
                raise CodeFileError(line_no, f"codeword {word} out of range for n={dim}")
            if word in seen:
                raise CodeFileError(line_no, f"duplicate codeword {word}")
            seen.add(word)
    if not seen:
        raise CodeFileError(line_no, "no codewords")
    return CodeFile(Code(dim, sorted(seen)), radius)


def read_code_file(path: str | os.PathLike) -> CodeFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_text(fh.read())


def serialize_code(code: Code, radius: int, comments: Iterable[str] = ()) -> str:
    """The code file of `code` at `radius`: the header, one ``# `` line per
    comment, then the words in canonical (sorted) order, one per line, in
    decimal without leading zeros.  A comment may not hold a line break."""
    comments = list(comments)
    for bad in filter(_EOL.search, comments):
        raise ValueError(f"comment {bad!r} holds a line break")
    head = "".join(f"{line}\n" for line in (f"n={code.dim} r={radius}", *(f"# {c}" for c in comments))).encode()
    words = code.array
    # the words of d digits run from the first word >= 10^(d - 1) to the first >= 10^d
    cuts = [0, *words.searchsorted(10 ** np.arange(1, len(str(words[-1])), dtype=np.uint32)), len(words)]
    # the header and the rows share one buffer, so no second copy of the text joins them
    out = np.empty(len(head) + int(np.diff(cuts) @ np.arange(2, len(cuts) + 1)), dtype=np.uint8)
    out[:len(head)], at = np.frombuffer(head, dtype=np.uint8), len(head)
    for d, (lo, hi) in enumerate(zip(cuts, cuts[1:]), 1):
        rows = out[at:at + (hi - lo) * (d + 1)].reshape(hi - lo, d + 1)  # d digits, then a newline
        at += rows.size
        rows[:, d] = ord("\n")
        rest = words[lo:hi].copy()
        for j in range(d - 1, -1, -1):
            np.divmod(rest, 10, out=(rest, rows[:, j]), casting="unsafe")
        rows[:, :d] += ord("0")
    return str(out, "utf-8")


def write_code_file(
    path: str | os.PathLike,
    code: Code,
    radius: int,
    comments: Iterable[str] = (),
) -> None:
    """Serialize and atomically replace whatever is at `path`."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".codefile-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(serialize_code(code, radius, comments))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
