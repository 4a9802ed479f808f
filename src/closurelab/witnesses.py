"""Constructive column witnesses for every closure theorem.

Each operation re-traces one proof on the packed rows of a matrix (the
topology witness reads them as subsets, columns as elements) and returns
a certificate naming a column (or element) whose ones count is at least
half the rows, re-verified by independent recount before returning.
A failed hypothesis raises PreconditionViolated; a failed internal step
raises VerificationFailed and means a bug, since the theorems guarantee
success on every valid input.

THEOREMS lists each theorem once: its name, its `closurelab witness`
verb, the operators of its hypothesis and its core. The private core
assumes the hypothesis and runs the proof. Theorem.witness is the gate
in front of it: closure under each hypothesis operator in order, then a
non-zero matrix, each raising PreconditionViolated when it fails. A
campaign reads the same hypothesis from its closure-mask bits and calls
the core directly; the public witnesses and the `witness` verb call the
row's Theorem.witness. Only the topology row gates on something weaker
than its campaign hypothesis, and stores that gate on the row.

Every core takes one MatrixViews record: the matrix and the views of it
that several cores read, each computed on first use and kept. A campaign
builds one record per family, so the three negation rows count the
columns once, and the three IMP rows, which re-trace one chain, build
the complemented rows once: those are AND- and ABJ-closed, so their
basis gives the half-full column, and their AND closure is OR closure
of the rows. The proof scans read the record's column sums; the
certificates recount from the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .basis import compute_basis
from .bitcore import BinaryMatrix, column_sum, column_sums
from .errors import (
    AllEmpty,
    GroupAxiomFailed,
    PreconditionViolated,
    VerificationFailed,
)
from .operators import (
    ABJ,
    AND,
    IMP,
    NAND,
    NEGATION,
    NOR,
    OR,
    XNOR,
    XOR,
    BoolOp,
    OpLike,
    op_name,
    tilde_matrix,
)
from .spaces import closed_under, is_closed


@dataclass(frozen=True, slots=True)
class FranklWitness:
    """A certified column: at least half the rows carry a 1 there."""

    column: int
    ones: int
    total_rows: int

    def __post_init__(self):
        if 2 * self.ones < self.total_rows:
            raise ValueError(
                f"not a witness: 2*{self.ones} < {self.total_rows}"
            )


class MatrixViews:
    """One matrix and the views of it that the theorem cores share, each
    computed on first use and kept: the column sums, the complemented
    rows, and whether those are AND-closed."""

    def __init__(self, m: BinaryMatrix):
        self.m = m

    sums = cached_property(lambda self: column_sums(self.m.width, self.m.row_values))
    tilde = cached_property(lambda self: tilde_matrix(self.m))
    tilde_and = cached_property(lambda self: is_closed(self.tilde, AND))


def _recount(m: BinaryMatrix, column: int) -> FranklWitness:
    """Build the certificate from a fresh count straight off the matrix."""
    ones = column_sum(m, column)
    n = m.n_rows
    if 2 * ones < n:
        raise VerificationFailed(
            f"column {column} recount gave {ones} ones over {n} rows"
        )
    return FranklWitness(column, ones, n)


def negation_witness(m: BinaryMatrix) -> FranklWitness:
    """Witness for rows closed under negation.

    Rows split into complementary pairs, so the row count is even, no
    column is constant, and every column holds exactly n/2 ones. The
    pairing is checked explicitly on column 1: the rows with a leading 1
    are exactly the complements of the rows with a leading 0.
    """
    return _THEOREM["negation_lemma"].witness(m)


def _negation_core(views: MatrixViews) -> FranklWitness:
    m = views.m
    values = m.row_values
    n = len(values)
    mask = (1 << m.width) - 1
    top = 1 << (m.width - 1)
    upper = {v for v in values if v & top}
    lower = {v for v in values if not v & top}
    if {v ^ mask for v in lower} != upper:
        raise VerificationFailed("column-1 halves are not complements of each other")
    for j, ones in enumerate(views.sums, 1):
        if 2 * ones != n:
            raise VerificationFailed(f"column {j} does not hold exactly half the ones")
    return _recount(m, 1)


def sheffer_reduction(m: BinaryMatrix, op: BoolOp) -> FranklWitness:
    """Witness for rows closed under NAND or NOR.

    Applying either operator to a row and itself yields the row's
    negation, so the set is negation-closed and the negation pairing
    applies unchanged.
    """
    if op not in (NAND, NOR):
        raise ValueError(f"expected NAND or NOR, got {op_name(op)}")
    return _THEOREM["nand_reduction" if op == NAND else "nor_reduction"].witness(m)


def group_witness(m: BinaryMatrix, op: BoolOp) -> FranklWitness:
    """Witness for rows closed under XOR or XNOR.

    The rows form a group (identity: the zero row for XOR, the all-ones
    row for XNOR, both produced by the diagonal; every element is its
    own inverse). In such a group each column is either constant or
    split exactly in half, so a scan finds a column with at least half
    ones; the rows-with-1 / rows-with-0 split there is checked to favor
    the ones side.
    """
    if op not in (XOR, XNOR):
        raise ValueError(f"expected XOR or XNOR, got {op_name(op)}")
    return _THEOREM["xor_group" if op == XOR else "xnor_group"].witness(m)


def _group_core(views: MatrixViews, op: BoolOp) -> FranklWitness:
    m = views.m
    n = m.n_rows
    # The diagonal a op a is the identity, so every element is its own
    # inverse and the identity is present; the latter stays an assertion.
    identity = 0 if op == XOR else (1 << m.width) - 1
    if identity not in m.row_values:
        raise GroupAxiomFailed("identity element missing from a closed row set")
    for j, ones in enumerate(views.sums, 1):
        if 2 * ones >= n:
            return _recount(m, j)
    raise VerificationFailed("no column reaches half the rows in a group-closed set")


def topology_witness(m: BinaryMatrix) -> int:
    """Element contained in at least half the members of a family closed
    under union and (nonempty) intersection.

    Any matrix qualifies, its rows read as members and column j as
    element j. Take the minimal-cardinality nonempty member that is
    lexicographically smallest among ties. Every member either contains
    it or misses it entirely; joining it to the members that miss it
    embeds them injectively into the members that contain it, so its
    elements appear in at least half the family. Returns the smallest
    such element.

    Families whose pairwise intersections may be empty without the empty
    set being a member still qualify; only the closure that can be
    satisfied is demanded.
    """
    return _THEOREM["topology"].witness(m).column


def _topology_gate(m: BinaryMatrix) -> None:
    """Raise unless the family is closed under union and nonempty
    intersection and has a nonempty member."""
    # Union is OR of the rows; a nonempty intersection is an AND image
    # other than the empty row 0. Since a & 0 == 0, the rows plus 0 are
    # AND-closed exactly when every AND image of the rows is a row or 0.
    values = m.row_values
    if not (is_closed(m, OR) and closed_under(AND.table, (*values, 0), (1 << m.width) - 1)):
        # The first failing pair in member order names the failed check.
        present = set(values)
        for a in values:
            for b in values:
                if a | b not in present:
                    raise PreconditionViolated("family is not closed under union")
                meet = a & b
                if meet and meet not in present:
                    raise PreconditionViolated("family is not closed under nonempty intersection")
    if not any(values):
        raise AllEmpty("every member is the empty set; no element exists")


def _topology_core(views: MatrixViews) -> FranklWitness:
    m = views.m
    values = m.row_values
    n = len(values)
    # Element 1 is the top bit, so among members of one size the
    # lexicographically smallest sorted elements is the largest value.
    b = min((v for v in values if v), key=lambda v: (v.bit_count(), -v))
    contains = []
    misses = []
    for a in values:
        if a & b == b:
            contains.append(a)
        elif not a & b:
            misses.append(a)
        else:
            raise VerificationFailed("a member neither contains nor misses the minimal set")
    joined = {b | a for a in misses}
    if len(joined) != len(misses) or not joined <= set(contains):
        raise VerificationFailed("join map is not an injection into the containing members")
    element = m.width - b.bit_length() + 1  # b's smallest element
    ones = column_sum(m, element)
    if ones != len(contains):
        raise VerificationFailed(f"element {element} recount gave {ones} of {n}")
    return FranklWitness(element, ones, n)


def conditional_witness(m: BinaryMatrix) -> FranklWitness:
    """Witness for rows closed under the material conditional.

    The complemented rows are AND/ABJ-closed and so carry a unique
    orthogonal basis. Splitting them by whether their decomposition uses
    the first basis vector v1, stripping v1's bits injects the users
    into the non-users, so v1's columns carry ones in at most half the
    complemented rows, i.e. at least half the original rows.
    """
    return _THEOREM["material_conditional"].witness(m)


def _conditional_core(views: MatrixViews) -> FranklWitness:
    m, tilde = views.m, views.tilde
    n = m.n_rows
    basis = compute_basis(tilde)  # preconditions guaranteed; raises if not

    if not basis.vectors:
        # Only the single all-ones row complements to {zero row}; any
        # column works.
        return _recount(m, 1)

    # A row's decomposition (verified by compute_basis) uses v1 iff it covers v1.
    v1 = basis.vectors[0].value
    users = [u for u in tilde.row_values if u & v1 == v1]
    if not users:
        raise VerificationFailed("first basis vector is not used by any row")
    stripped = {u & ~v1 for u in users}
    # A stripped row misses v1, so it is a non-user exactly when it is a row.
    if len(stripped) != len(users) or not stripped <= set(tilde.row_values):
        raise VerificationFailed("stripping v1 is not an injection into the non-users")

    t = m.width - v1.bit_length() + 1  # v1's first column
    if column_sum(tilde, t) != len(users):
        raise VerificationFailed("tilde column count disagrees with the v1-user count")
    ones = column_sum(m, t)
    # Exact count flip between a matrix and its complement.
    if ones != n - len(users):
        raise VerificationFailed("count flip between matrix and complement failed")
    return FranklWitness(t, ones, n)


def tilde_closure_properties(m: BinaryMatrix) -> bool:
    """For a conditional-closed matrix, whether the complemented rows
    are closed under AND and under ABJ.

    Being closed under the material conditional forces both (the
    complement of a -> b is the abjunction of the complements, and
    a and b = a and not (a and not b)); this runs the check anyway so
    the claim is exercised computationally.
    """
    return _THEOREM["tilde_preconditions"].witness(m)


def _tilde_preconditions_core(views: MatrixViews) -> bool:
    return views.tilde_and and is_closed(views.tilde, ABJ)


def imp_implies_or_closed(m: BinaryMatrix) -> bool:
    """Whether a conditional-closed row set is also closed under OR.

    Always true: the complemented rows are closed under AND, so the
    complement of every pairwise OR is present among them. Both the
    complement-side membership and the direct OR-closure are computed
    and compared.
    """
    return _THEOREM["imp_implies_or"].witness(m)


def _imp_implies_or_core(views: MatrixViews) -> bool:
    """OR closure of the rows, decided directly and as AND closure of
    the complemented rows (~(a | b) is ~a & ~b), which must agree."""
    direct = is_closed(views.m, OR)
    if views.tilde_and != direct:
        raise VerificationFailed("complement-side and direct OR-closure disagree")
    return direct


#: How a failed closure gate names an operator, where not by op_name.
_GATE_NAMES = {NEGATION: "negation", IMP: "the material conditional"}


@dataclass(frozen=True, slots=True)
class Theorem:
    """One proved statement: rows closed under every hypothesis operator,
    in a non-zero matrix, make the core's check pass. A row with a gate
    runs it in place of the operator checks in witness(m)."""

    name: str
    verb: str | None  # `closurelab witness` verb, None when there is none
    hypothesis: tuple[OpLike, ...]
    core: Callable[[MatrixViews], object]
    gate: Callable[[BinaryMatrix], None] | None = None

    def witness(self, m: BinaryMatrix) -> object:
        """The core's result on m, or PreconditionViolated (or the gate's
        error) naming the first part of the hypothesis m fails."""
        if self.gate is not None:
            self.gate(m)
        else:
            for op in self.hypothesis:
                if not is_closed(m, op):
                    name = _GATE_NAMES.get(op, op_name(op))
                    raise PreconditionViolated(f"rows are not closed under {name}")
        if not m.non_zero:
            raise PreconditionViolated("the all-zero matrix is not a space")
        return self.core(MatrixViews(m))


#: Rows in `closurelab witness` verb order; the campaign also runs them
#: in this order.
THEOREMS = (
    Theorem("negation_lemma", "not", (NEGATION,), _negation_core),
    # NAND or NOR of a row with itself is its negation.
    Theorem("nand_reduction", "nand", (NAND,), _negation_core),
    Theorem("nor_reduction", "nor", (NOR,), _negation_core),
    Theorem("xor_group", "xor", (XOR,), lambda views: _group_core(views, XOR)),
    Theorem("xnor_group", "xnor", (XNOR,), lambda views: _group_core(views, XNOR)),
    # One chain: the complement is AND- and ABJ-closed (tilde_preconditions),
    # so its basis gives the column (material_conditional), and its AND
    # closure is OR closure of the rows (imp_implies_or).
    Theorem("material_conditional", "imp", (IMP,), _conditional_core),
    Theorem("tilde_preconditions", None, (IMP,), _tilde_preconditions_core),
    Theorem("imp_implies_or", None, (IMP,), _imp_implies_or_core),
    # The campaign hypothesis is AND and OR; the public witness gates on
    # the weaker union and nonempty-intersection closure of the family.
    Theorem("topology", "topology", (AND, OR), _topology_core, _topology_gate),
)

_THEOREM = {t.name: t for t in THEOREMS}
