"""Packed binary rows, matrices with distinct rows, and set families.

A row is stored as an unsigned integer, most significant bit first:
the text "0110" is the row with value 0b0110 and column 1 on the left.
Reading a row's text as a binary literal therefore gives its stored
value. A matrix stores its rows packed, as a tuple of such integers; a
set family is a matrix whose rows are read as subsets, row k's column j
marking element j. Columns and set elements are 1-based throughout.

Large matrices go through C-level passes rather than a Python step per
row:

- parse_matrix decodes text of nothing but rows and newlines as a
  whole: a strided slice and one translate settle the characters and
  the shape, and one int(..., 2) of all rows, each left-padded to 1, 2,
  4 or 8 bytes, becomes an array of row values. Text with comments,
  padding or CR, and text that fails a check, goes through the
  per-line loop, which alone words the ParseError.
- parse_any runs that bulk decoder before it scans for a header, so
  plain ".bm" text is never scanned for one.
- column_sums reads the rows as one lane integer per byte offset, one
  byte per row (up to width 8 the rows themselves, above it the byte
  offsets of _row_bytes), and counts each column as one bit_count of
  that integer shifted to the column's bit and masked to one bit per
  lane.
- column_sum counts one column, fresh from the matrix: up to width 8
  one bit_count of the rows' lane integer, above it a per-row bit test
  summed in C. A certificate's recount thus reads only its own column.
- format_matrix and format_family read a row's text from a table of
  strings per byte value and byte offset: at most ceil(width / 8)
  lookups and a join per row.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import and_
from typing import Iterable, Sequence

from .errors import (
    DuplicateRow,
    Empty,
    IndexOutOfRange,
    ParseError,
    WidthCapExceeded,
)

#: Maximum number of columns a row may have. Rows are packed into single
#: integers; everything in this package is desk scale (width <= 16 in
#: practice), so one machine word is plenty.
WIDTH_CAP = 64


@dataclass(frozen=True, slots=True)
class BinaryMatrix:
    """An ordered collection of distinct equal-width rows, stored packed.

    row_values holds each row as its integer value (see the module
    docstring); f"{v:0{width}b}" is a row's text, format_matrix the
    whole matrix's.
    """

    width: int
    row_values: tuple[int, ...]

    def __post_init__(self):
        width, values = self.width, self.row_values
        if not isinstance(width, int) or width < 1:
            raise ValueError(f"width must be a positive integer, got {width!r}")
        if width > WIDTH_CAP:
            raise WidthCapExceeded(f"width {width} exceeds cap {WIDTH_CAP}")
        if not values:
            raise Empty("a matrix needs at least one row")
        limit = 1 << width
        for v in values:
            if not isinstance(v, int) or not 0 <= v < limit:
                raise ValueError(f"value {v!r} out of range for width {width}")
        if len(set(values)) != len(values):
            seen = set()
            for v in values:
                if v in seen:
                    raise DuplicateRow(f"duplicate row {v:0{width}b}")
                seen.add(v)

    @classmethod
    def from_values(cls, width: int, values: Iterable[int]) -> "BinaryMatrix":
        return cls(width, tuple(values))

    @property
    def n_rows(self) -> int:
        return len(self.row_values)

    @property
    def non_zero(self) -> bool:
        """True iff at least one bit anywhere in the matrix is 1."""
        return any(self.row_values)


def _packed_matrix(width: int, values: tuple[int, ...]) -> BinaryMatrix:
    """A BinaryMatrix built without __post_init__'s checks, for rows the
    caller has already checked: at least one, distinct, each in
    [0, 2**width), with 1 <= width <= WIDTH_CAP."""
    m = object.__new__(BinaryMatrix)
    object.__setattr__(m, "width", width)
    object.__setattr__(m, "row_values", values)
    return m


class SetFamily(BinaryMatrix):
    """A matrix read as an ordered family of distinct subsets of [width].

    Each member is its row: element k of the ground set is column k.
    A family never equals the plain matrix with the same rows. Build
    one as SetFamily(width, values), or from ".fam" text by parse_family.
    """

    __slots__ = ()


def column_sum(m: BinaryMatrix, j: int) -> int:
    """Number of ones in 1-based column j, counted from the rows alone.

    Up to width 8 it is one bit_count of the rows read as one lane
    integer (see column_sums); above it, each row's bit j masked in
    place, summed and shifted back down.
    """
    width, values = m.width, m.row_values
    if not 1 <= j <= width:
        raise IndexOutOfRange(f"column {j} outside [1, {width}]")
    shift = width - j
    if width <= 8:
        lanes = int.from_bytes(b"\x01" * len(values), "big")
        return (int.from_bytes(bytes(values), "big") >> shift & lanes).bit_count()
    return sum(map(and_, values, repeat(1 << shift))) >> shift


def _row_bytes(width: int, values: Iterable[int]) -> list[bytes]:
    """The rows' bytes, one bytes object per byte offset.

    Each row is padded on the right to whole bytes, so bit 7 of byte
    offset 0 is column 1 and bit 7 - k of offset t is column 8t + k + 1.
    Entry i of every returned object belongs to row i.
    """
    n_bytes = (width + 7) // 8
    pad = 8 * n_bytes - width
    if pad:
        values = map(int.__lshift__, values, repeat(pad))
    rows = array("Q", values)  # at least 8 bytes, enough for WIDTH_CAP bits
    if sys.byteorder == "little":
        rows.byteswap()
    data, size = rows.tobytes(), rows.itemsize
    return [data[size - n_bytes + t :: size] for t in range(n_bytes)]


def column_sums(width: int, values: Sequence[int]) -> list[int]:
    """Number of ones in each column of the given rows, column 1 first.

    The rows are read as one lane integer per byte offset, one byte per
    row: up to width 8 the rows themselves, above it each byte offset of
    _row_bytes. Shifting a lane integer right by a column's bit and
    masking it to the low bit of every lane leaves one set bit per row
    with a one there, so each column costs one bit_count.
    """
    lanes = int.from_bytes(b"\x01" * len(values), "big")
    if width <= 8:
        rows = int.from_bytes(bytes(values), "big")
        return [(rows >> shift & lanes).bit_count() for shift in range(width - 1, -1, -1)]
    sums = []
    for t, column_bytes in enumerate(_row_bytes(width, values)):
        rows = int.from_bytes(column_bytes, "big")
        last = 7 - min(8, width - 8 * t)
        sums += [(rows >> shift & lanes).bit_count() for shift in range(7, last, -1)]
    return sums


# --- text formats ----------------------------------------------------------
#
# ".bm": one row per line over '0'/'1', all lines equal length. Lines
# starting with '#' are comments; blank lines are ignored.
#
# ".fam": first significant line "ground <m>", then one member per line
# as space-separated 1-based elements, "-" denoting the empty set.
# Comment and blank lines are skipped as in ".bm".


def _significant_lines(text: str):
    # Lines end at "\n", "\r\n" or "\r" only; str.splitlines would also
    # break at "\f", "\v", "\x1c"-"\x1e", "\x85", U+2028 and U+2029.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_matrix(text: str, source: str = "<input>") -> BinaryMatrix:
    """Parse ".bm" text into a matrix.

    ASCII text of nothing but rows and newlines is decoded as a whole,
    as bytes, by _decode_rows. Any other text, and text that fails one
    of its checks, goes to _parse_matrix_lines, which skips comments and
    blank lines and words the first error.
    """
    m = _decode_matrix(text)
    return _parse_matrix_lines(text, source) if m is None else m


#: Array typecode per row size in bytes (1, 2, 4 and 8).
_TYPECODES = {array(code).itemsize: code for code in "BHILQ"}


def _decode_matrix(text: str) -> BinaryMatrix | None:
    """The matrix of ASCII text made of rows and newlines alone, or None."""
    return _decode_rows(text.encode()) if text.isascii() else None


def _decode_rows(data: bytes) -> BinaryMatrix | None:
    """The matrix of bytes made of '0', '1' and newlines alone, or None
    if other bytes occur, or its lines are not rows of one width in
    [1, WIDTH_CAP], or repeat.

    One strided slice checks that every (width + 1)-th byte is a
    newline, n of them, and one translate that deleting '0' and '1'
    leaves exactly n newlines: so those are all the other bytes (unlike
    int(line, 2), this rejects '0b', '_', signs and non-ASCII digits),
    the last byte is one of them, and every line is `width` long. Each
    row is left-padded with zeros to a whole array item of 1, 2, 4 or 8
    bytes, so the concatenated rows read in base 2 (linear time, and
    exempt from the int-string digit limit) are the rows' big-endian
    items.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    width = data.index(b"\n")
    n = len(data) // (width + 1)
    newlines = b"\n" * n
    if not (
        0 < width <= WIDTH_CAP
        and data[width :: width + 1] == newlines
        and data.translate(None, b"01") == newlines
    ):
        return None
    size = 1 << ((width - 1) // 8).bit_length()
    pad = b"0" * (8 * size - width)
    rows = array(
        _TYPECODES[size], int(pad + data[:-1].replace(b"\n", pad), 2).to_bytes(n * size, "big")
    )
    if sys.byteorder == "little":
        rows.byteswap()
    values = tuple(rows.tolist())
    if len(set(values)) != n:
        return None
    return _packed_matrix(width, values)


def _parse_matrix_lines(text: str, source: str) -> BinaryMatrix:
    """Parse ".bm" text one line at a time, raising a ParseError that
    names the first bad line."""
    seen: dict[int, int] = {}  # row value -> line, in row order
    width = None
    for lineno, line in _significant_lines(text):
        if set(line) - {"0", "1"}:
            raise ParseError(source, lineno, f"invalid row character in {line!r}")
        if width is None:
            width = len(line)
            if width > WIDTH_CAP:
                raise ParseError(source, lineno, f"row width {width} exceeds cap {WIDTH_CAP}")
        elif len(line) != width:
            raise ParseError(
                source, lineno, f"row width {len(line)} differs from first row width {width}"
            )
        value = int(line, 2)
        if value in seen:
            raise ParseError(source, lineno, f"duplicate row {line} (first at line {seen[value]})")
        seen[value] = lineno
    if not seen:
        raise ParseError(source, 0, "no matrix rows found")
    return _packed_matrix(width, tuple(seen))


@cache
def _bits_table(length: int) -> list[str]:
    """Per byte value, the text of its first `length` bits, high bit
    first: one byte offset's columns (see _row_bytes)."""
    return [format(b, "08b")[:length] for b in range(256)]


def format_matrix(m: BinaryMatrix) -> str:
    """Format a matrix as ".bm" text."""
    columns = _row_bytes(m.width, m.row_values)
    pieces = [map(_bits_table(8).__getitem__, c) for c in columns[:-1]]
    pieces.append(map(_bits_table(m.width - 8 * len(pieces)).__getitem__, columns[-1]))
    return "\n".join(map("".join, zip(*pieces))) + "\n"


def _decimal(token: str) -> int:
    """int(token) for an optional '-' and ASCII digits only: no '+', '_'
    or non-ASCII digits."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_family(text: str, source: str = "<input>") -> SetFamily:
    """Parse ".fam" text into a family; the ground size and the elements
    are ASCII decimal integers."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(source, 0, "no family content found")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "ground":
        raise ParseError(source, lineno, f'expected "ground <m>" header, got {header!r}')
    try:
        ground = _decimal(parts[1])
    except ValueError:
        raise ParseError(source, lineno, f"ground size {parts[1]!r} is not an integer") from None
    if ground < 1:
        raise ParseError(source, lineno, f"ground size must be positive, got {ground}")
    if ground > WIDTH_CAP:
        raise ParseError(source, lineno, f"ground size {ground} exceeds cap {WIDTH_CAP}")

    seen: dict[int, int] = {}  # member value -> line, in member order
    for lineno, line in lines[1:]:
        value = 0
        if line != "-":
            for token in line.split():
                try:
                    e = _decimal(token)
                except ValueError:
                    raise ParseError(source, lineno, f"element {token!r} is not an integer") from None
                if not 1 <= e <= ground:
                    raise ParseError(source, lineno, f"element {e} outside [1, {ground}]")
                bit = 1 << (ground - e)
                if value & bit:
                    raise ParseError(source, lineno, f"element {e} listed twice")
                value |= bit
        if value in seen:
            raise ParseError(
                source, lineno, f"duplicate member (first at line {seen[value]})"
            )
        seen[value] = lineno
    if not seen:
        raise ParseError(source, 0, "family has no members")
    return SetFamily(ground, tuple(seen))


@cache
def _member_table(offset: int) -> list[str]:
    """Per byte value at byte offset `offset` (see _row_bytes), the
    elements its set bits stand for, each preceded by a space."""
    return [
        "".join(f" {8 * offset + k + 1}" for k in range(8) if (b >> (7 - k)) & 1)
        for b in range(256)
    ]


def format_family(m: BinaryMatrix) -> str:
    """Format a matrix as ".fam" text, its rows read as subsets."""
    pieces = [
        map(_member_table(t).__getitem__, column_bytes)
        for t, column_bytes in enumerate(_row_bytes(m.width, m.row_values))
    ]
    lines = list(map(str.lstrip, map("".join, zip(*pieces))))
    if 0 in m.row_values:  # rows are distinct: at most one empty member
        lines[m.row_values.index(0)] = "-"
    return f"ground {m.width}\n" + "\n".join(lines) + "\n"


def parse_any(text: str, source: str = "<input>") -> BinaryMatrix:
    """Parse text as ".fam" if it carries a ground header, else as ".bm".

    The bulk ".bm" decoder runs first: text it takes has no header, so
    it agrees with the header scan. Only text it declines is scanned for
    a header and then parsed one line at a time.
    """
    m = _decode_matrix(text)
    if m is not None:
        return m
    if "ground" in text:
        for _, line in _significant_lines(text):
            if line.split()[:1] == ["ground"]:
                return parse_family(text, source)
            break
    return _parse_matrix_lines(text, source)
