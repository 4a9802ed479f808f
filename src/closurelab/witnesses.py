"""Constructive column witnesses for every closure theorem.

Each operation re-traces one proof on the packed rows of a matrix (the
topology witness reads them as subsets, columns as elements) and returns
a certificate naming a column (or element) whose ones count is at least
half the rows, re-verified by independent recount before returning.
A failed hypothesis raises PreconditionViolated; a failed internal step
raises VerificationFailed and means a bug, since the theorems guarantee
success on every valid input (the half check excepted: _half_column).

THEOREMS maps the name of every check a campaign runs to its one row:
the name, its `closurelab witness` verb, the operators of its
hypothesis and its core. The private core assumes the hypothesis and
runs the proof. Theorem.witness is the gate in front of it: closure
under each hypothesis operator in order, then a non-zero matrix, each
raising PreconditionViolated when it fails. A campaign reads the same
hypothesis from its closure-mask bits and calls the core directly;
library callers, the `witness` verb and the rerun of a reproducer's
`# theorem:` line call THEOREMS[name].witness(m).
Only the topology row gates on something weaker than its campaign
hypothesis, and stores that gate on the row.

Every core takes one MatrixViews record: the rows and the views of them
that two or more rows read, each built on first use and kept (a check
one row alone needs builds its own). A campaign builds one record per
non-zero family, so however many rows apply, its rows are counted in
full at most once, the three negation rows read one passing run of the
negation core, and the three IMP rows, which re-trace one chain, share
one complemented matrix and its AND check: the complemented rows are AND-
and ABJ-closed, so their basis gives the half-full column, and their AND
closure is OR closure of the rows. Each certificate recounts its one column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .basis import compute_basis
from .bitcore import BinaryMatrix, _packed_matrix, column_sum, column_sums
from .errors import AllEmpty, PreconditionViolated, VerificationFailed
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
    _complemented,
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


class _View:
    """A MatrixViews view, stored on the record once built (a build that
    raises stores nothing): functools.cached_property without its lock."""

    def __init__(self, build: Callable[[MatrixViews], object]):
        self.build = build

    def __set_name__(self, owner: type, name: str):
        self.name = name

    def __get__(self, record: MatrixViews, owner: type | None = None):
        view = record.__dict__[self.name] = self.build(record)
        return view


class MatrixViews:
    """One matrix's rows (checked by the caller) and the _View of them that
    at least two THEOREMS rows read: the packed matrix, the column sums,
    the complemented matrix, whether that is AND-closed, and the negation
    core's certificate. What one row alone reads, it builds itself. A
    campaign builds one per non-zero family, whichever rows apply."""

    def __init__(self, width: int, values: tuple[int, ...]):
        self.width = width
        self.values = values

    m = _View(lambda self: _packed_matrix(self.width, self.values))
    sums = _View(lambda self: column_sums(self.width, self.values))
    tilde = _View(lambda self: tilde_matrix(self.m))
    tilde_and = _View(lambda self: is_closed(self.tilde, AND))
    negation = _View(lambda self: _negation_core(self))


def _recount(m: BinaryMatrix, column: int) -> FranklWitness:
    """Build the certificate from a fresh count straight off the matrix."""
    ones = column_sum(m, column)
    n = m.n_rows
    if 2 * ones < n:
        raise VerificationFailed(
            f"column {column} recount gave {ones} ones over {n} rows"
        )
    return FranklWitness(column, ones, n)


def _negation_core(views: MatrixViews) -> FranklWitness:
    """Witness for rows closed under negation, NAND or NOR.

    Rows split into complementary pairs, so the row count is even, no
    column is constant, and every column holds exactly n/2 ones. The
    pairing is checked explicitly: the complemented rows are the rows
    again. Complementing flips column 1, so this says that the rows with
    a leading 1 are exactly the complements of the rows with a leading 0.
    NAND or NOR of a row with itself is its negation, so rows closed
    under either are negation-closed and the pairing applies unchanged.
    """
    m = views.m
    n = m.n_rows
    if set(_complemented(views.width, views.values)) != set(views.values):
        raise VerificationFailed("column-1 halves are not complements of each other")
    for j, ones in enumerate(views.sums, 1):
        if 2 * ones != n:
            raise VerificationFailed(f"column {j} does not hold exactly half the ones")
    return _recount(m, 1)


def _negation_row(views: MatrixViews) -> FranklWitness:
    """The three negation rows' core: the record runs _negation_core once and
    keeps its certificate. A failure is not kept, so each row raises afresh."""
    return views.negation


def _group_core(views: MatrixViews, op: BoolOp) -> FranklWitness:
    """Witness for rows closed under XOR or XNOR.

    The rows form a group (identity: the zero row for XOR, the all-ones
    row for XNOR, both produced by the diagonal; every element is its
    own inverse). In such a group each column is either constant or
    split exactly in half, so a scan finds a column with at least half
    ones; the rows-with-1 / rows-with-0 split there is checked to favor
    the ones side.
    """
    m = views.m
    n = m.n_rows
    # The diagonal a op a is the identity, so every element is its own
    # inverse and the identity is present; the latter stays an assertion.
    identity = 0 if op == XOR else (1 << m.width) - 1
    if identity not in m.row_values:
        raise VerificationFailed("identity element missing from a closed row set")
    for j, ones in enumerate(views.sums, 1):
        if 2 * ones >= n:
            return _recount(m, j)
    raise VerificationFailed("no column reaches half the rows in a group-closed set")


def _topology_gate(m: BinaryMatrix) -> None:
    """Raise unless the family is closed under union and nonempty
    intersection and has a nonempty member.

    Families whose pairwise intersections may be empty without the empty
    set being a member still qualify; only the closure that can be
    satisfied is demanded.
    """
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


def _minimal_member(values: tuple[int, ...]) -> int:
    """The nonempty member of fewest elements, lexicographically smallest
    among ties. Element 1 is the top bit, so among members of one size
    the lexicographically smallest sorted elements is the largest value."""
    size = min(map(int.bit_count, filter(None, values)))
    return max(v for v in values if v.bit_count() == size)


def _topology_core(views: MatrixViews) -> FranklWitness:
    """Element contained in at least half the members of a family closed
    under union and (nonempty) intersection.

    Any matrix qualifies, its rows read as members and column j as
    element j. Take the minimal-cardinality nonempty member that is
    lexicographically smallest among ties. Every member either contains
    it or misses it entirely; joining it to the members that miss it
    embeds them injectively into the members that contain it, so its
    elements appear in at least half the family. The certificate's
    column is the smallest such element.
    """
    m = views.m
    values = m.row_values
    n = len(values)
    b = _minimal_member(values)
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


def _conditional_core(views: MatrixViews) -> FranklWitness:
    """Witness for rows closed under the material conditional.

    The complemented rows are AND/ABJ-closed and so carry a unique
    orthogonal basis. Splitting them by whether their decomposition uses
    the first basis vector v1, stripping v1's bits injects the users
    into the non-users, so v1's columns carry ones in at most half the
    complemented rows, i.e. at least half the original rows.
    """
    m, tilde = views.m, views.tilde
    n = m.n_rows
    basis = compute_basis(tilde)  # preconditions guaranteed; raises if not

    if not basis.vectors:
        # Only the single all-ones row complements to {zero row}; any
        # column works.
        return _recount(m, 1)

    # A row's decomposition (verified by compute_basis) uses v1 iff it covers v1.
    v1 = basis.vectors[0]
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


def _tilde_preconditions_core(views: MatrixViews) -> bool:
    """For a conditional-closed matrix, whether the complemented rows
    are closed under AND and under ABJ.

    Being closed under the material conditional forces both (the
    complement of a -> b is the abjunction of the complements, and
    a and b = a and not (a and not b)); this runs the check anyway so
    the claim is exercised computationally.
    """
    return views.tilde_and and is_closed(views.tilde, ABJ)


def _imp_implies_or_core(views: MatrixViews) -> bool:
    """Whether a conditional-closed row set is also closed under OR.

    Always true: the complemented rows are closed under AND, so the
    complement of every pairwise OR (~(a | b) is ~a & ~b) is present
    among them. Both the
    complement-side membership and the direct OR-closure are computed
    and compared.
    """
    direct = is_closed(views.m, OR)
    if views.tilde_and != direct:
        raise VerificationFailed("complement-side and direct OR-closure disagree")
    return direct


def _count_flip_consistent(width: int, values: tuple[int, ...]) -> bool:
    """Each column's ones count in the complemented rows is n minus its
    count in the rows: one column count over the rows followed by their
    complemented rows finds exactly n ones in every column."""
    n = len(values)
    return column_sums(width, (*values, *_complemented(width, values))) == [n] * width


def _half_column(views: MatrixViews) -> bool:
    """Union-closed half membership: some column holds ones in at least
    half the rows, read from the record's column sums. The union-closed
    (Frankl) conjecture is open in general, so this row failing on a
    union-closed family would be a counterexample, not a bug."""
    if 2 * max(views.sums) < len(views.values):
        raise VerificationFailed("no column reaches half the rows")
    return True


#: How a failed closure gate names an operator, where not by op_name.
_GATE_NAMES = {NEGATION: "negation", IMP: "the material conditional"}


@dataclass(frozen=True, slots=True)
class Theorem:
    """One campaign check: rows closed under every hypothesis operator,
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
        return self.core(MatrixViews(m.width, m.row_values))


#: Every campaign check by name, run in this order: the theorems in
#: `closurelab witness` verb order, the count flip every non-zero family
#: gets, and the half check of OR-closed families.
THEOREMS = {
    t.name: t
    for t in (
        Theorem("negation_lemma", "not", (NEGATION,), _negation_row),
        Theorem("nand_reduction", "nand", (NAND,), _negation_row),
        Theorem("nor_reduction", "nor", (NOR,), _negation_row),
        Theorem("xor_group", "xor", (XOR,), lambda views: _group_core(views, XOR)),
        Theorem("xnor_group", "xnor", (XNOR,), lambda views: _group_core(views, XNOR)),
        # One chain: the complement is AND- and ABJ-closed (tilde_preconditions),
        # so its basis gives the column (material_conditional), and its AND
        # closure is OR closure of the rows (imp_implies_or).
        Theorem("material_conditional", "imp", (IMP,), _conditional_core),
        Theorem("tilde_preconditions", None, (IMP,), _tilde_preconditions_core),
        Theorem("imp_implies_or", None, (IMP,), _imp_implies_or_core),
        # The campaign hypothesis is AND and OR; witness(m) gates on the
        # weaker union and nonempty-intersection closure of the family.
        Theorem("topology", "topology", (AND, OR), _topology_core, _topology_gate),
        Theorem("complement_count_flip", None, (),
                lambda v: _count_flip_consistent(v.width, v.values)),
        Theorem("union_closed_frankl", None, (OR,), _half_column),
    )
}
