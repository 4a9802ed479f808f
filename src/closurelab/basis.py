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
from .operators import ABJ, AND, IMP, tilde_matrix
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


def check_basis_preconditions(m: BinaryMatrix) -> bool:
    """True iff the row set is closed under AND and under ABJ (a and not b)."""
    return is_closed(m, AND) and is_closed(m, ABJ)


def compute_basis(m: BinaryMatrix, order: str = "ascending") -> Basis:
    """Construct the unique basis of a row set.

    Repeatedly removes any row that is the OR of two or more other
    remaining rows; the surviving nonzero rows form the basis. A row r
    is so expressible iff the OR of all other remaining rows dominated
    by r (rows r' with r' & r == r') equals r, which a single pass in
    any candidate order detects exactly: removals never change any other
    row's expressibility.

    Closure under AND and ABJ guarantees the result verifies. The
    construction runs regardless and its output is checked, so a family
    that happens to have a basis without those closures (say 01, 10, 11)
    still succeeds. The check is that the survivors are pairwise
    orthogonal and that every row decomposes over them; a survivor the
    removal pass left expressible would overlap the survivors it
    dominates, so orthogonality covers it. When verification fails,
    PreconditionViolated points at the missing closures, and
    BasisVerificationFailed signals a bug (preconditions held yet the
    guaranteed construction broke).

    The order argument ("ascending" or "descending" row value) is a test
    hook; both must produce the same basis set.
    """
    if order not in ("ascending", "descending"):
        raise ValueError(f"order must be 'ascending' or 'descending', got {order!r}")

    remaining = set(m.row_values)
    candidates = sorted(remaining, reverse=(order == "descending"))
    for r in candidates:
        if r == 0:
            continue
        dominated_or = 0
        for other in remaining:
            if other != r and other & r == other:
                dominated_or |= other
        if dominated_or == r:
            remaining.discard(r)

    basis_values = sorted(v for v in remaining if v != 0)

    failure = None
    for i, a in enumerate(basis_values):
        for b in basis_values[i + 1 :]:
            if a & b:
                failure = f"surviving rows {a:b} and {b:b} overlap"
                break
        if failure:
            break
    if failure is None:
        for v in m.row_values:
            ored = 0
            for b in basis_values:
                if b & v == b:
                    ored |= b
            if ored != v:
                failure = f"row {v:b} does not decompose over the survivors"
                break
    if failure is not None:
        if not check_basis_preconditions(m):
            raise PreconditionViolated(
                f"no basis: rows are not closed under both AND and ABJ ({failure})"
            )
        raise BasisVerificationFailed(failure)

    return Basis(m.width, tuple(BitRow(m.width, v) for v in basis_values))


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


def tilde_closure_properties(m: BinaryMatrix) -> bool:
    """For a conditional-closed matrix, whether the complemented rows
    are closed under AND and under ABJ.

    Being closed under the material conditional forces both (the
    complement of a -> b is the abjunction of the complements, and
    a and b = a and not (a and not b)); this runs the check anyway so
    the claim is exercised computationally.
    """
    if not is_closed(m, IMP):
        raise PreconditionViolated("rows are not closed under the material conditional")
    return _tilde_closure_core(m)


def _tilde_closure_core(m: BinaryMatrix) -> bool:
    return check_basis_preconditions(tilde_matrix(m))
