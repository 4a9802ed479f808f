"""Closure checking, fixed-point closure, column-sum statistics.

A space is a non-zero matrix whose row set is closed under an operator.
Every closure check and the closure itself run on one kernel: with the
left row a fixed, an operator is op(a, b) == u ^ (b & d) for masks
(u, d) of a alone, and op(b, a) is the same with the masks of the
operator whose arguments are swapped. The closure's one entry,
closure_values(table, values, mask), builds no operator or matrix.

Rows that fit in a byte are handled as byte strings, with no Python set.
Per operator, row a looks up the 256-byte table of op(a, .),
b -> u ^ (b & d), built the first time it is used and kept for the
process. A check asks one question, whether every image op(a, b) of
two rows is a row: it translates the first row's images alone, then
every row's images as one joined string, and deletes the rows' own
bytes, which must leave nothing. The closure translates the rows so far
through the table of op(a, .), and for an asymmetric table also through
that of op(., a) and interleaves the two, then deletes the present rows
and appends the rest in first-occurrence order: a few C-level calls per
worklist row. Wider rows build one Python set of images per left row to
check, and pair one row at a time to close.

Six tables ignore an argument: the two constants, the two projections
and their negations. Under these, every image op(a, b) is h(a) or h(b)
for the diagonal h(x) = op(x, x), so the wide kernels check and close
them through h alone, one image per row.

The column-sum statistics record, for each matrix, the set of column
sums, the best column, and whether that column covers at least half
the rows (the exact-integer test 2 * max >= n, no fractions anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .bitcore import WIDTH_CAP, BinaryMatrix, _packed_matrix, column_sums
from .errors import ParameterOutOfRange, WidthCapExceeded
from .operators import OpLike, apply_values


def row_map(table: int, a: int, mask: int) -> tuple[int, int]:
    """Masks (u, d) with apply_values(table, a, b, mask) == u ^ (b & d) for all b.

    With the left row fixed, every operator acts column by column as
    a constant or as b's bit, possibly negated: u = op(a, 0...0) is the
    output where b's bit is 0, and d = u ^ op(a, 1...1) marks the
    columns where b's bit changes it.
    """
    u = apply_values(table, a, 0, mask)
    return u, u ^ apply_values(table, a, mask, mask)


#: Every byte in order, and 1 in every byte, as 256-byte big-endian
#: integers: a bitwise operation on such integers acts on each byte alone.
_EVERY_BYTE = int.from_bytes(bytes(range(256)), "big")
_EACH_BYTE = int.from_bytes(b"\x01" * 256, "big")


@cache
def _map_table(u: int, d: int) -> bytes:
    """Translation table of b -> u ^ (b & d) on bytes: one row's images."""
    return ((_EVERY_BYTE & _EACH_BYTE * d) ^ _EACH_BYTE * u).to_bytes(256, "big")


class _RowTables(dict):
    """Row a -> the 256-byte table of op(a, .) for one (table, mask) at a
    width of at most 8, built the first time row a is looked up.

    The masks row_map(table, a, mask) of every row are computed at once
    on the 256 bytes of _EVERY_BYTE.
    """

    __slots__ = ("maps",)

    def __init__(self, table: int, mask: int):
        masks = _EACH_BYTE * mask
        u = apply_values(table, _EVERY_BYTE, 0, masks)
        d = u ^ apply_values(table, _EVERY_BYTE, masks, masks)
        self.maps = tuple(zip(u.to_bytes(256, "big"), d.to_bytes(256, "big")))[: mask + 1]

    def __missing__(self, a: int) -> bytes:
        t = self[a] = _map_table(*self.maps[a])
        return t


#: The process-wide row-table lookup of each (table, mask).
_row_tables = cache(_RowTables)


def _swapped(table: int) -> int:
    """The truth table of op(b, a): the (0, 1) and (1, 0) entries trade places."""
    return (table & 9) | (table >> 1 & 2) | (table << 1 & 4)


def _diagonal(table: int, mask: int) -> tuple[int, int] | None:
    """Masks (u, d) of the diagonal op(x, x) == u ^ (x & d) when the table
    ignores an argument, else None.

    A table ignores b iff op(a, 0) == op(a, 1) for each a, that is
    (table & 5) == (table >> 1 & 5), and ignores a iff
    (table & 3) == (table >> 2 & 3): tables 0, 3, 5, 10, 12 and 15.
    """
    if (table & 5) != (table >> 1 & 5) and (table & 3) != (table >> 2 & 3):
        return None
    u = apply_values(table, 0, 0, mask)
    return u, u ^ apply_values(table, mask, mask, mask)


def closed_under(table: int, values: tuple[int, ...] | bytes, mask: int) -> bool:
    """True iff op(a, b) is among the values for every a, b in the values.

    When the rows fit in a byte (mask < 256) the values are one bytes
    object (values given as bytes are that object), and a row's images
    are that object translated through the 256-byte table of op(a, .);
    they are all rows when deleting the rows' bytes leaves nothing. The
    first left row is tested alone, since most failing checks fail on it;
    then every row's images are translated, joined and tested at once.

    Wider rows build the set {u ^ (b & d) for b} of one left row's images
    at a time, stopping at the first row whose images leave the rows. A
    table that ignores an argument tests the one set of diagonal images.
    """
    if mask < 256:
        if not values:
            return True
        tables = _row_tables(table, mask)
        rows = bytes(values)
        if rows.translate(tables[rows[0]]).translate(None, rows):
            return False
        return not b"".join(map(rows.translate, map(tables.__getitem__, rows))).translate(
            None, rows
        )
    present = set(values)
    diagonal = _diagonal(table, mask)
    if diagonal is not None:
        u, d = diagonal
        return {u ^ (a & d) for a in values} <= present
    for a in values:
        u, d = row_map(table, a, mask)
        if not {u ^ (b & d) for b in values} <= present:
            return False
    return True


def is_closed(m: BinaryMatrix, op: OpLike) -> bool:
    """True iff every (ordered) operator application lands in the row set.

    All ordered pairs are tested, including a row with itself; the
    diagonal matters (for NAND/NOR it produces the row's negation). For
    each left row a the images op(a, b) are u ^ (b & d) with the masks of
    row_map, so one row's pairs are checked at once by closed_under. The
    negation marker is truth table 3, whose only image of row a is its
    complement.
    """
    return closed_under(op.table, m.row_values, (1 << m.width) - 1)


def closure(generators: BinaryMatrix, op: OpLike) -> BinaryMatrix:
    """Smallest superset of the generator rows closed under op (see closure_values)."""
    mask = (1 << generators.width) - 1
    return _packed_matrix(generators.width, closure_values(op.table, generators.row_values, mask))


def closure_values(table: int, values: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The closure's rows: distinct generator values under a truth table,
    mask all ones at their width, closed into at most mask + 1 rows.

    Worklist fixed point: generator rows first, new rows appended in
    discovery order. Row i with value a adds the absent images among
    op(a, b) then op(b, a) for b = rows 0..i in turn, each new image once,
    at its first occurrence. With a fixed, op(a, b) is u ^ (b & d) for
    the masks (u, d) = row_map(table, a), and op(b, a) is the same with
    the masks of the swapped table.

    Rows that fit in a byte (mask < 256) take _byte_closure, a few C-level
    calls per row. Wider rows pair one at a time, except under a table
    that ignores an argument: there every image of an earlier row's pairs
    is present, so row i's only possible new image is its diagonal, and
    appending the absent diagonals in order is the same closure.
    """
    if mask < 256:
        return tuple(_byte_closure(table, values, mask))
    rows = list(values)
    present = set(rows)
    diagonal = _diagonal(table, mask)
    # iterating a list reads its length at every step, so the rows
    # appended below are visited in turn
    if diagonal is not None:
        u, d = diagonal
        for a in rows:
            r = u ^ (a & d)
            if r not in present:
                present.add(r)
                rows.append(r)
        return tuple(rows)
    swapped = _swapped(table)
    for i, a in enumerate(rows, 1):
        u, d = row_map(table, a, mask)  # op(a, b)
        us, ds = row_map(swapped, a, mask)  # op(b, a)
        for b in rows[:i]:
            r = u ^ (b & d)
            if r not in present:
                present.add(r)
                rows.append(r)
            r = us ^ (b & ds)
            if r not in present:
                present.add(r)
                rows.append(r)
    return tuple(rows)


def _byte_closure(table: int, values: tuple[int, ...], mask: int) -> bytearray:
    """closure_values's rows for rows that fit in a byte, in the same order.

    Under a symmetric table op(a, b) == op(b, a), so the pair loop's
    images op(a, b), op(b, a) for b in turn are x0 x0 x1 x1 ..., whose
    first occurrences come in the order of x0 x1 ...: row i translates
    rows[:i+1] once. Other tables interleave the two translations. A
    table that ignores an argument takes one of these paths too, and
    re-translates rows whose images are present, at most 256 of them.
    """
    tables = _row_tables(table, mask)
    rows = bytearray(values)
    # iterating a bytearray reads its length at every step, so the rows
    # appended below are visited in turn
    if table == _swapped(table):
        for i, a in enumerate(rows, 1):
            new = rows[:i].translate(tables[a]).translate(None, rows)
            if new:
                rows += bytes(dict.fromkeys(new))
        return rows
    swapped = _row_tables(_swapped(table), mask)
    for i, a in enumerate(rows, 1):
        head = rows[:i]
        pairs = bytearray(2 * i)
        pairs[0::2] = head.translate(tables[a])  # op(a, b)
        pairs[1::2] = head.translate(swapped[a])  # op(b, a)
        new = pairs.translate(None, rows)
        if new:
            rows += bytes(dict.fromkeys(new))
    return rows


@dataclass(frozen=True, slots=True)
class PsiStats:
    """Column-sum statistics of one matrix."""

    psi_set: frozenset[int]
    max_psi: int
    witness_column: int
    frankl_holds: bool


def psi(m: BinaryMatrix) -> PsiStats:
    """Column sums as a set, plus the best column.

    witness_column is the smallest 1-based column attaining the maximum;
    frankl_holds is the exact test 2 * max >= n.
    """
    values = m.row_values
    sums = column_sums(m.width, values)
    max_psi = max(sums)
    return PsiStats(
        psi_set=frozenset(sums),
        max_psi=max_psi,
        witness_column=sums.index(max_psi) + 1,
        frankl_holds=2 * max_psi >= len(values),
    )


def counterexample_identity(n: int) -> BinaryMatrix:
    """The (n+1) x n matrix of the n unit rows atop the zero row.

    Closed under conjunction and abjunction, yet every column sums to 1,
    so for n > 1 no column reaches half the rows.
    """
    if n < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n}")
    # Checked before the rows are built: they take about n * n / 2 bits.
    if n > WIDTH_CAP:
        raise WidthCapExceeded(f"width {n} exceeds cap {WIDTH_CAP}")
    values = [1 << (n - i) for i in range(1, n + 1)]
    values.append(0)
    return BinaryMatrix.from_values(n, values)


def counterexample_block(n: int, k: int) -> BinaryMatrix:
    """An (n+2) x (n+1) conjunction-closed matrix with best column sum k+1.

    Rows: (1, e_i) for i <= k, then (0, e_i) for i > k, then (1, 0...0)
    and the zero row. Column 1 sums to k+1; every other column sums to 1.
    """
    if n < 1:
        raise ParameterOutOfRange(f"n must be >= 1, got {n}")
    if not 1 <= k <= n:
        raise ParameterOutOfRange(f"k must be in [1, {n}], got {k}")
    if n + 1 > WIDTH_CAP:
        raise WidthCapExceeded(f"width {n + 1} exceeds cap {WIDTH_CAP}")
    first = 1 << n
    values = []
    for i in range(1, n + 1):
        e_i = 1 << (n - i)
        values.append((first | e_i) if i <= k else e_i)
    values.append(first)
    values.append(0)
    return BinaryMatrix.from_values(n + 1, values)

