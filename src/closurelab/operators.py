"""The sixteen binary boolean operators and elementwise negation.

An operator is identified by its 4-bit truth table: bit (2a + b) of the
table is the output on the input pair (a, b). Named aliases cover the
classical connectives; every table is built from its defining lambda
rather than a hand-written constant. Negation carries truth table 3,
op(a, b) = not a, since a row set is closed under one exactly when it
is closed under the other.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

from .bitcore import BinaryMatrix, _packed_matrix


@dataclass(frozen=True, slots=True)
class BoolOp:
    """A binary boolean operator as a 4-bit truth table."""

    table: int

    def __post_init__(self):
        if not isinstance(self.table, int) or not 0 <= self.table <= 15:
            raise ValueError(f"truth table must be in [0, 15], got {self.table!r}")


class _Negation:
    """Marker for elementwise unary negation in operator positions.

    Its table is 3, op(a, b) = not a: every row's complement is an image
    (pair the row with anything), and every image is some row's
    complement, so closure under not a is closure under negation.
    """

    __slots__ = ()
    table = 3


#: Unary negation marker, accepted wherever closure checks take an operator.
NEGATION = _Negation()

OpLike = BoolOp | _Negation


def _table(fn) -> int:
    return sum(fn(a, b) << (2 * a + b) for a in (0, 1) for b in (0, 1))


AND = BoolOp(_table(lambda a, b: a & b))
OR = BoolOp(_table(lambda a, b: a | b))
XOR = BoolOp(_table(lambda a, b: a ^ b))
XNOR = BoolOp(_table(lambda a, b: 1 - (a ^ b)))
NAND = BoolOp(_table(lambda a, b: 1 - (a & b)))
NOR = BoolOp(_table(lambda a, b: 1 - (a | b)))
#: Material conditional a -> b, i.e. (not a) or b.
IMP = BoolOp(_table(lambda a, b: (1 - a) | b))
#: Abjunction (nonimplication) a and not b.
ABJ = BoolOp(_table(lambda a, b: a & (1 - b)))
#: Converse conditional b -> a, i.e. a or not b.
CIMP = BoolOp(_table(lambda a, b: a | (1 - b)))
#: Converse nonimplication b and not a.
CABJ = BoolOp(_table(lambda a, b: b & (1 - a)))

#: All sixteen operators in truth-table order.
ALL_OPS = tuple(BoolOp(t) for t in range(16))

_ALIASES = {
    "and": AND,
    "or": OR,
    "xor": XOR,
    "xnor": XNOR,
    "nand": NAND,
    "nor": NOR,
    "imp": IMP,
    "abj": ABJ,
    "cimp": CIMP,
    "cabj": CABJ,
}

_NAME_BY_TABLE = {op.table: name for name, op in _ALIASES.items()}


def op_name(op: OpLike) -> str:
    """Stable display name: an alias if one exists, else "tt:<table>"."""
    if isinstance(op, _Negation):
        return "not"
    return _NAME_BY_TABLE.get(op.table, f"tt:{op.table}")


def parse_op(text: str) -> OpLike:
    """Parse an operator name (case-insensitive) or a raw "tt:<0-15>" form,
    the table in ASCII decimal digits."""
    name = text.strip().lower()
    if name == "not":
        return NEGATION
    if name in _ALIASES:
        return _ALIASES[name]
    # ASCII digits of value at most 15; int() alone would take "-0" and "+3".
    table = re.fullmatch(r"tt:0*(1[0-5]|[0-9])", name)
    if table:
        return BoolOp(int(table[1]))
    raise ValueError(f"unknown operator {text!r}")


def apply_values(table: int, a: int, b: int, mask: int) -> int:
    """Elementwise truth-table application on packed row values."""
    out = 0
    if table & 1:
        out |= ~a & ~b
    if table & 2:
        out |= ~a & b
    if table & 4:
        out |= a & ~b
    if table & 8:
        out |= a & b
    return out & mask


def _clone(table: int) -> int:
    """Bit mask of the truth tables that table generates by composition.

    The tables of the projections a (12) and b (10), closed under table
    applied to 4-bit tables, are the binary part of its clone.
    """
    found = {12, 10}
    while True:
        grown = found | {apply_values(table, x, y, 15) for x in found for y in found}
        if grown == found:
            return sum(1 << t for t in found)
        found = grown


#: CLONE[f] has bit g set iff g is a term in f (Post's lattice of clones).
#: A row set closed under f is closed under every g in CLONE[f]: each
#: image of g is a nest of f images of the same two rows.
CLONE = tuple(_clone(t) for t in range(16))

#: ABOVE[g] has bit f set iff g is in CLONE[f]: a row set not closed
#: under g is not closed under any of them.
ABOVE = tuple(sum(1 << f for f in range(16) if CLONE[f] >> g & 1) for g in range(16))


@cache
def _complement_table(mask: int) -> bytes:
    """Translation table of x -> x ^ mask on bytes, for mask < 256."""
    return bytes(x ^ mask for x in range(256))


def _complemented(width: int, values: tuple[int, ...]) -> Sequence[int]:
    """Every row negated, in order: at a width of at most 8 one
    bytes.translate of the rows through the table of x -> x ^ mask."""
    mask = (1 << width) - 1
    if mask < 256:
        return bytes(values).translate(_complement_table(mask))
    return tuple(v ^ mask for v in values)


def tilde_matrix(m: BinaryMatrix) -> BinaryMatrix:
    """Negate every row of the matrix (row order preserved).

    The complements of distinct rows in range are distinct and in range,
    so the result skips the row checks.
    """
    return _packed_matrix(m.width, tuple(_complemented(m.width, m.row_values)))


def tilde_op(op: BoolOp) -> BoolOp:
    """The operator dual under complementing both inputs and the output.

    tilde_op(op)(not a, not b) == not op(a, b) for all bits: op applied
    to the complemented projection tables (3 is not a, 5 is not b),
    then complemented.
    """
    return BoolOp(apply_values(op.table, 3, 5, 15) ^ 15)
