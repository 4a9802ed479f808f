"""Orthogonal row bases and unique decompositions.

A row set closed under conjunction and abjunction always contains a
unique collection of pairwise-disjoint nonzero rows (the basis) such
that every row is the OR of exactly one subset of them. The zero row is
represented by the empty subset and is never itself a basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitcore import BinaryMatrix, BitRow
from .errors import (
    BasisVerificationFailed,
    NotDecomposable,
    PreconditionViolated,
    WidthMismatch,
)
from .operators import ABJ, AND
from .spaces import is_closed


@dataclass(frozen=True, slots=True)
class Basis:
    """Pairwise-orthogonal nonzero rows, in ascending order."""

    width: int
    vectors: tuple[BitRow, ...]

    def __post_init__(self):
        for v in self.vectors:
            if v.width != self.width:
                raise WidthMismatch(f"vector {v} has width {v.width}, expected {self.width}")
            if v.value == 0:
                raise ValueError("the zero row cannot be a basis vector")
        vals = [v.value for v in self.vectors]
        for i, a in enumerate(vals):
            for b in vals[i + 1 :]:
                if a & b:
                    raise ValueError("basis vectors must be pairwise orthogonal")


@dataclass(frozen=True, slots=True)
class Decomposition:
    """The 1-based basis indices whose OR reproduces a row."""

    index_set: frozenset[int]


def compute_basis(m: BinaryMatrix) -> Basis:
    """Find the unique basis of a row set: its atoms.

    In a row set closed under AND and ABJ the basis is exactly the
    atoms, the nonzero rows with no other nonzero row inside them. Two
    atoms s and t are disjoint, since s & t is a row inside both, and
    every row is the OR of the atoms inside it, since removing them
    from it with ABJ would otherwise leave a nonzero row with no atom
    inside.

    One scan in ascending row order finds the atoms and checks the
    basis: a row inside r is smaller than r, so every atom inside r is
    found before r. A nonzero row with no atom inside it is an atom and
    must miss every atom found so far; any other row must equal the OR
    of the atoms inside it.

    The scan runs regardless of closure, so a family that happens to
    have a basis without it (say 01, 10, 11) still succeeds. When a
    rule fails, PreconditionViolated points at the missing closures,
    and BasisVerificationFailed signals a bug (preconditions held yet
    the guaranteed construction broke).
    """
    w = m.width
    atoms: list[int] = []
    failure = None
    for r in sorted(m.row_values):
        inside = 0
        for a in atoms:
            if a & r == a:
                inside |= a
        if inside == r:
            continue
        if inside:
            failure = f"row {r:0{w}b} does not decompose over the atoms inside it"
            break
        hit = next((a for a in atoms if a & r), None)
        if hit is not None:
            failure = f"atoms {hit:0{w}b} and {r:0{w}b} overlap"
            break
        atoms.append(r)

    if failure is not None:
        if not (is_closed(m, AND) and is_closed(m, ABJ)):
            raise PreconditionViolated(
                f"no basis: rows are not closed under both AND and ABJ ({failure})"
            )
        raise BasisVerificationFailed(failure)

    return Basis(w, tuple(BitRow(w, v) for v in atoms))


def decompose(row: BitRow, basis: Basis) -> Decomposition:
    """The unique index set whose vectors OR to the row.

    Selects exactly the basis vectors dominated by the row and verifies
    the OR reproduces it; orthogonality makes the selection unique. The
    zero row decomposes as the empty set.
    """
    if row.width != basis.width:
        raise WidthMismatch(f"row width {row.width} differs from basis width {basis.width}")
    indices = []
    ored = 0
    for i, v in enumerate(basis.vectors, 1):
        if v.value & row.value == v.value:
            indices.append(i)
            ored |= v.value
    if ored != row.value:
        raise NotDecomposable(f"row {row} is not an OR of basis vectors")
    return Decomposition(frozenset(indices))
