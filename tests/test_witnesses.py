import random

import pytest

from closurelab import (
    AND,
    IMP,
    NAND,
    NEGATION,
    NOR,
    OR,
    XNOR,
    XOR,
    BinaryMatrix,
    BoolOp,
    FranklWitness,
    SetFamily,
    closure,
    column_sum,
    compute_basis,
    conditional_witness,
    decompose,
    group_witness,
    imp_implies_or_closed,
    is_closed,
    matrix_to_family,
    negation_witness,
    op_name,
    parse_matrix,
    parse_op,
    sheffer_reduction,
    tilde_matrix,
    tilde_op,
    topology_witness,
)
from closurelab import witnesses
from closurelab.errors import AllEmpty, PreconditionViolated, VerificationFailed
from closurelab.witnesses import THEOREMS, MatrixViews, _topology_core

from conftest import (
    SEMANTICS,
    all_families,
    close_sets_oracle,
    closed_oracle,
    column_count_oracle,
    family_matrix,
    matrix_tuples,
    neg_closed_oracle,
    random_closure,
)

EXAMPLE1 = "0000\n1000\n1100\n0111\n1111\n"


def recount(m, witness):
    """Independent tuple-based verification of a witness certificate."""
    tuples = matrix_tuples(m)
    assert witness.total_rows == len(tuples)
    assert witness.ones == column_count_oracle(tuples, witness.column)
    assert 2 * witness.ones >= witness.total_rows


def test_frankl_witness_invariant():
    FranklWitness(1, 2, 4)
    with pytest.raises(ValueError):
        FranklWitness(1, 1, 4)


def test_negation_witness_pair():
    m = parse_matrix("01\n10\n")
    w = negation_witness(m)
    assert (w.column, w.ones, w.total_rows) == (1, 1, 2)
    recount(m, w)


def test_negation_witness_full_pairing():
    m = parse_matrix("00\n11\n01\n10\n")
    w = negation_witness(m)
    recount(m, w)
    for j in (1, 2):
        assert column_sum(m, j) == 2


def test_negation_witness_precondition():
    with pytest.raises(PreconditionViolated):
        negation_witness(parse_matrix("10\n11\n"))


def test_negation_core_reports_the_first_column_off_half(monkeypatch):
    # Both checks of the core can fail on their own: the per-column half
    # count names the first bad column, and the fresh recount stays.
    m = parse_matrix("000\n111\n010\n101\n")
    monkeypatch.setattr(witnesses, "column_sums", lambda width, values: [2, 1, 3])
    with pytest.raises(VerificationFailed, match="^column 2 does not hold exactly half"):
        negation_witness(m)
    monkeypatch.undo()
    monkeypatch.setattr(witnesses, "column_sum", lambda matrix, column: 0)
    with pytest.raises(VerificationFailed, match="^column 1 recount gave 0 ones"):
        negation_witness(m)


def test_negation_closed_families_exhaustive():
    # Width <= 3: every negation-closed family has an even row count and
    # every single column sums to exactly half.
    for width in (1, 2, 3):
        seen = 0
        for values in all_families(width):
            m = family_matrix(width, values)
            tuples = matrix_tuples(m)
            if not neg_closed_oracle(tuples):
                continue
            seen += 1
            n = len(values)
            assert n % 2 == 0
            for j in range(1, width + 1):
                assert 2 * column_count_oracle(tuples, j) == n
            recount(m, negation_witness(m))
        assert seen == (1 << (1 << (width - 1))) - 1  # nonempty sets of pairs


def test_sheffer_not_closed_pair():
    m = parse_matrix("01\n10\n")
    assert not is_closed(m, NAND)  # 01 nand 10 = 11 is absent
    with pytest.raises(PreconditionViolated):
        sheffer_reduction(m, NAND)


def test_sheffer_closure_of_single_row():
    c = closure(parse_matrix("01\n"), NAND)
    assert {str(r) for r in c.rows} == {"01", "10", "11", "00"}
    w = sheffer_reduction(c, NAND)
    assert (w.ones, w.total_rows) == (2, 4)
    recount(c, w)


def test_sheffer_rejects_other_ops():
    with pytest.raises(ValueError):
        sheffer_reduction(parse_matrix("01\n10\n"), AND)


def test_sheffer_closed_implies_negation_closed():
    # Exhaustive at width <= 3, random closures at width <= 6.
    for width in (1, 2, 3):
        for values in all_families(width):
            m = family_matrix(width, values)
            for op in (NAND, NOR):
                if is_closed(m, op):
                    assert neg_closed_oracle(matrix_tuples(m))
                    recount(m, sheffer_reduction(m, op))
    rng = random.Random(61)
    for _ in range(40):
        op = (NAND, NOR)[rng.randrange(2)]
        m = random_closure(rng.randint(2, 6), op, rng.randint(1, 2), rng)
        assert is_closed(m, NEGATION)
        recount(m, sheffer_reduction(m, op))


def test_group_witness_xor_span():
    m = parse_matrix("000\n110\n011\n101\n")
    w = group_witness(m, XOR)
    assert w.ones == 2 and w.total_rows == 4
    recount(m, w)
    for j in (1, 2, 3):
        assert column_sum(m, j) == 2


def test_group_witness_single_all_ones():
    m = parse_matrix("111\n")
    assert is_closed(m, XNOR)
    w = group_witness(m, XNOR)
    assert (w.ones, w.total_rows) == (1, 1)


def test_group_witness_preconditions():
    with pytest.raises(PreconditionViolated):
        group_witness(parse_matrix("110\n011\n"), XOR)  # 110^011=101 absent
    with pytest.raises(PreconditionViolated):
        group_witness(parse_matrix("00\n"), XOR)  # zero matrix is not a space
    with pytest.raises(ValueError):
        group_witness(parse_matrix("00\n"), AND)


def test_group_witness_accepts_an_equal_operator():
    # Operators are equal by truth table: a fresh BoolOp(6) is XOR, 9 is XNOR.
    xor_space = parse_matrix("000\n011\n101\n110\n")
    xnor_space = parse_matrix("111\n100\n010\n001\n")
    for op, m, named in (
        (BoolOp(6), xor_space, XOR),
        (parse_op("tt:6"), xor_space, XOR),
        (BoolOp(9), xnor_space, XNOR),
    ):
        assert group_witness(m, op) == group_witness(m, named)


def test_xor_closed_contains_zero_row():
    rng = random.Random(303)
    for _ in range(40):
        m = random_closure(rng.randint(1, 6), XOR, rng.randint(1, 3), rng)
        assert 0 in m.row_values
        if m.non_zero:
            recount(m, group_witness(m, XOR))


def test_xnor_closed_contains_ones_row_and_tilde_is_xor_closed():
    assert tilde_op(XNOR) == XOR
    rng = random.Random(305)
    for _ in range(40):
        m = random_closure(rng.randint(1, 6), XNOR, rng.randint(1, 3), rng)
        assert (1 << m.width) - 1 in m.row_values
        assert is_closed(tilde_matrix(m), XOR)
        recount(m, group_witness(m, XNOR))


def topology_recount(f: SetFamily, element: int):
    members = f.members()
    count = sum(1 for s in members if element in s)
    assert 2 * count >= len(members)
    return count


def test_topology_witness_chain():
    f = SetFamily.from_members(2, [(), (1,), (1, 2)])
    element = topology_witness(f)
    assert element == 1
    assert topology_recount(f, element) == 2


def test_topology_witness_disjoint_minimal():
    f = SetFamily.from_members(3, [(1, 2), (3,), (1, 2, 3)])
    element = topology_witness(f)
    assert element == 3
    assert topology_recount(f, element) == 2


def test_topology_witness_on_closed_example_family():
    base = matrix_to_family(parse_matrix(EXAMPLE1)).members()
    closed = close_sets_oracle(base)
    ordered = sorted(closed, key=lambda s: (len(s), tuple(sorted(s))))
    f = SetFamily.from_members(4, [tuple(sorted(s)) for s in ordered])
    element = topology_witness(f)
    topology_recount(f, element)


def test_topology_witness_preconditions():
    with pytest.raises(PreconditionViolated):
        topology_witness(SetFamily.from_members(3, [(1,), (2,)]))  # union absent
    with pytest.raises(PreconditionViolated):
        # intersection {2} missing while nonempty
        topology_witness(SetFamily.from_members(3, [(1, 2), (2, 3), (1, 2, 3)]))
    with pytest.raises(AllEmpty):
        topology_witness(SetFamily.from_members(3, [()]))


def test_topology_witness_random_lattices():
    rng = random.Random(71)
    for _ in range(60):
        width = rng.randint(1, 5)
        n = rng.randint(1, min(6, 1 << width))
        seeds = [
            frozenset(e for e in range(1, width + 1) if rng.random() < 0.5)
            for _ in range(n)
        ]
        closed = close_sets_oracle(seeds)
        if all(not s for s in closed):
            continue
        f = SetFamily.from_members(width, [tuple(sorted(s)) for s in sorted(closed, key=sorted)])
        element = topology_witness(f)
        topology_recount(f, element)


def topology_member_rule(m):
    """The rule on frozenset members: the smallest nonempty member by
    (size, sorted elements), its smallest element, and that element's count."""
    members = matrix_to_family(m).members()
    b = min((s for s in members if s), key=lambda s: (len(s), tuple(sorted(s))))
    element = min(b)
    return element, sum(1 for s in members if element in s)


def and_or_closed_families():
    """Every non-zero AND- and OR-closed family of width <= 3, one whose
    smallest value is not the chosen member, and seeded closures at widths 4-8."""
    for width in (1, 2, 3):
        for values in all_families(width):
            m = family_matrix(width, values)
            if m.non_zero and is_closed(m, AND) and is_closed(m, OR):
                yield m
    yield parse_matrix("0000\n0011\n1100\n1111\n")  # {3, 4} ties {1, 2}
    rng = random.Random(97)
    for _ in range(80):
        width = rng.randint(4, 8)
        generators = rng.sample(range(1, 1 << width), rng.randint(1, 4))
        # OR closure keeps AND closure: meets distribute over joins.
        yield closure(closure(BinaryMatrix.from_values(width, generators), AND), OR)


def test_topology_core_matches_the_member_rule():
    ties = 0
    for m in and_or_closed_families():
        assert is_closed(m, AND) and is_closed(m, OR)
        element, count = topology_member_rule(m)
        assert _topology_core(MatrixViews(m)).column == topology_witness(m) == element, m
        assert column_sum(m, element) == count
        sizes = sorted(v.bit_count() for v in m.row_values if v)
        ties += len(sizes) > 1 and sizes[0] == sizes[1]
    assert ties > 1


def topology_reference(f: SetFamily):
    """The pair-loop gate: the first failing pair names the check."""
    members = f.members()
    member_set = set(members)
    for a in members:
        for b in members:
            if a | b not in member_set:
                raise PreconditionViolated("family is not closed under union")
            meet = a & b
            if meet and meet not in member_set:
                raise PreconditionViolated("family is not closed under nonempty intersection")
    if not any(members):
        raise AllEmpty("every member is the empty set; no element exists")
    return _topology_core(MatrixViews(f)).column


def outcome(fn, f):
    try:
        return fn(f)
    except (PreconditionViolated, AllEmpty) as exc:
        return type(exc), str(exc)


def byte_gate_families():
    """Every width-3 family and 300 seeded width-4 ones."""
    rng = random.Random(4)
    yield from (SetFamily(3, values) for values in all_families(3))
    for _ in range(300):
        yield SetFamily(4, tuple(rng.sample(range(16), rng.randint(1, 16))))


def wide_gate_families():
    """Seeded families at widths 9-12: union/intersection closures in
    shuffled order, each less one member, {a, b, a | b} with a & b empty
    and no empty member (closed), {a, b, a | b} with a & b nonempty and
    missing (not closed), and the empty member alone."""
    rng = random.Random(12)
    for _ in range(40):
        width = rng.randint(9, 12)
        ground = range(1, width + 1)
        seeds = [frozenset(rng.sample(ground, rng.randint(1, width - 1)))
                 for _ in range(rng.randint(1, 4))]
        closed = sorted(close_sets_oracle(seeds), key=sorted)
        rng.shuffle(closed)
        yield SetFamily.from_members(width, closed)
        if len(closed) > 1:
            del closed[rng.randrange(len(closed))]
            yield SetFamily.from_members(width, closed)
        s = rng.sample(ground, rng.randint(2, width))
        i = rng.randint(1, len(s) - 1)
        yield SetFamily.from_members(width, [s[:i], s[i:], s])
        s = rng.sample(ground, rng.randint(3, width))
        i = rng.randint(1, len(s) - 2)
        j = rng.randint(i + 1, len(s) - 1)
        yield SetFamily.from_members(width, [s[:j], s[i:], s])
    yield SetFamily.from_members(9, [()])


@pytest.mark.parametrize(
    "families", [byte_gate_families, wide_gate_families], ids=["byte", "wide"]
)
def test_topology_gate_matches_pair_loop(families):
    kinds = set()
    for f in families():
        expected = outcome(topology_reference, f)
        assert outcome(topology_witness, f) == expected, f.row_values
        kinds.add(expected[1] if isinstance(expected, tuple) else "element")
    assert len(kinds) == 4, kinds  # both messages, all-empty and a witness


def test_conditional_witness_two_row_space():
    m = parse_matrix("10\n11\n")
    w = conditional_witness(m)
    # v1 = 01 in the complemented rows, so the witness is column 2 with
    # a single one out of two rows.
    assert (w.column, w.ones, w.total_rows) == (2, 1, 2)
    recount(m, w)


def test_conditional_witness_full_cube():
    for width in (1, 2, 3, 4):
        m = BinaryMatrix.from_values(width, range(1 << width))
        assert is_closed(m, IMP)
        w = conditional_witness(m)
        recount(m, w)
        for j in range(1, width + 1):
            assert column_sum(m, j) == 1 << (width - 1)


def test_conditional_witness_single_ones_row():
    m = parse_matrix("111\n")
    w = conditional_witness(m)
    assert (w.ones, w.total_rows) == (1, 1)


def test_conditional_split_matches_decompose():
    # Users of v1 are the complemented rows whose decomposition has index
    # 1; the witness is v1's first column and its ones are the non-users.
    rng = random.Random(113)
    split = 0
    for _ in range(80):
        m = random_closure(rng.randint(1, 8), IMP, rng.randint(1, 3), rng)
        tilde = tilde_matrix(m)
        basis = compute_basis(tilde)
        if not basis.vectors:
            continue
        split += 1
        users = [row for row in tilde.rows if 1 in decompose(row, basis).index_set]
        v1 = basis.vectors[0]
        column = next(j for j in range(1, m.width + 1) if v1.bit(j))
        w = conditional_witness(m)
        assert (w.column, w.ones, w.total_rows) == (column, m.n_rows - len(users), m.n_rows)
    assert split > 40


def test_imp_closed_contains_all_ones_row():
    rng = random.Random(83)
    for _ in range(40):
        m = random_closure(rng.randint(1, 7), IMP, rng.randint(1, 3), rng)
        assert (1 << m.width) - 1 in m.row_values
        recount(m, conditional_witness(m))


def test_conditional_witness_precondition():
    with pytest.raises(PreconditionViolated):
        conditional_witness(parse_matrix(EXAMPLE1))


@pytest.mark.parametrize("wrong", ["zero", "all"])
def test_exact_count_checks_fail_on_a_wrong_count(monkeypatch, wrong):
    # The topology and conditional cores check the witness column's count
    # on m exactly, so a count that still reaches half the rows fails too.
    chain = parse_matrix("000\n100\n110\n111\n")
    space = parse_matrix("10\n11\n")
    true_sum = witnesses.column_sum

    def miscount(matrix, column):
        if matrix in (chain, space):
            return 0 if wrong == "zero" else matrix.n_rows
        return true_sum(matrix, column)

    monkeypatch.setattr(witnesses, "column_sum", miscount)
    with pytest.raises(VerificationFailed, match="^element 1 recount gave [04] of 4$"):
        topology_witness(chain)
    with pytest.raises(VerificationFailed, match="^count flip between matrix and complement"):
        conditional_witness(space)


def test_imp_implies_or_closed():
    assert imp_implies_or_closed(parse_matrix("10\n11\n"))
    for width in (1, 2, 3):
        cube = BinaryMatrix.from_values(width, range(1 << width))
        assert imp_implies_or_closed(cube)
    rng = random.Random(89)
    for _ in range(100):
        m = random_closure(rng.randint(1, 7), IMP, rng.randint(1, 3), rng)
        assert imp_implies_or_closed(m)
        assert is_closed(m, OR)
    with pytest.raises(PreconditionViolated):
        imp_implies_or_closed(parse_matrix("10\n01\n"))


def meets_gate_hypothesis(theorem, m) -> bool:
    """The hypothesis a public witness's gate demands, by the tuple oracles."""
    if theorem.verb == "topology":
        members = matrix_to_family(m).members()
        return close_sets_oracle(members) == set(members)
    tuples = matrix_tuples(m)
    return all(
        neg_closed_oracle(tuples) if op is NEGATION else closed_oracle(tuples, SEMANTICS[op_name(op)])
        for op in theorem.hypothesis
    )


def theorem_id(theorem) -> str:
    return theorem.verb or theorem.name


@pytest.mark.parametrize("theorem", THEOREMS, ids=theorem_id)
def test_gated_witness_matches_its_core(theorem):
    # Every non-zero width-3 family that meets the gate's hypothesis: the
    # gated witness (gate then core) and the core give one result.
    seen = 0
    for values in all_families(3):
        m = family_matrix(3, values)
        if not m.non_zero or not meets_gate_hypothesis(theorem, m):
            continue
        seen += 1
        assert theorem.witness(m) == theorem.core(MatrixViews(m)), values
    assert seen


#: Per theorem (by verb, else name), rows that fail its gate and the
#: message it raises.
GATE_FAILURES = {
    "not": [("10\n11\n", "rows are not closed under negation")],
    "nand": [("01\n10\n", "rows are not closed under nand")],
    "nor": [("00\n11\n01\n", "rows are not closed under nor")],
    "xor": [
        ("110\n011\n", "rows are not closed under xor"),
        ("00\n", "the all-zero matrix is not a space"),
    ],
    "xnor": [("110\n011\n", "rows are not closed under xnor")],
    "imp": [(EXAMPLE1, "rows are not closed under the material conditional")],
    "tilde_preconditions": [(EXAMPLE1, "rows are not closed under the material conditional")],
    "imp_implies_or": [(EXAMPLE1, "rows are not closed under the material conditional")],
    "topology": [
        ("100\n010\n", "family is not closed under union"),
        ("110\n011\n111\n", "family is not closed under nonempty intersection"),
    ],
}


@pytest.mark.parametrize("theorem", THEOREMS, ids=theorem_id)
def test_gated_witness_still_rejects_a_failed_hypothesis(theorem):
    for text, message in GATE_FAILURES[theorem_id(theorem)]:
        m = parse_matrix(text)
        with pytest.raises(PreconditionViolated) as exc:
            theorem.witness(m)
        assert str(exc.value) == message

