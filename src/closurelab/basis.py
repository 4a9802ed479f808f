"""Orthogonal row bases and unique decompositions.

A row set closed under conjunction and abjunction always contains a
unique collection of pairwise-disjoint nonzero rows (the basis) such
that every row is the OR of exactly one subset of them. The zero row is
represented by the empty subset and is never itself a basis vector.
Rows and basis vectors are packed integers (see bitcore), and a
decomposition is the ascending tuple of its vectors' 1-based indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitcore import BinaryMatrix
from .errors import BasisVerificationFailed, NotDecomposable, PreconditionViolated
from .operators import ABJ, AND
from .spaces import is_closed


@dataclass(frozen=True, slots=True)
class Basis:
    """Pairwise-orthogonal nonzero rows, as packed values in ascending
    order; compute_basis is the one constructor and proves them."""

    width: int
    vectors: tuple[int, ...]


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

    return Basis(w, tuple(atoms))


def decompose(row: int, basis: Basis) -> tuple[int, ...]:
    """The unique 1-based indices, ascending, of the vectors that OR to
    the row.

    Selects exactly the basis vectors dominated by the row and verifies
    the OR reproduces it; orthogonality makes the selection unique. The
    zero row decomposes as the empty tuple, and a row with a bit in no
    vector (a row wider than the basis among them) is NotDecomposable.
    """
    indices = []
    ored = 0
    for i, v in enumerate(basis.vectors, 1):
        if v & row == v:
            indices.append(i)
            ored |= v
    if ored != row:
        raise NotDecomposable(f"row {row:0{basis.width}b} is not an OR of basis vectors")
    return tuple(indices)
