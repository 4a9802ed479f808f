import random
import re

import pytest

from closurelab import (
    AND,
    IMP,
    NAND,
    NEGATION,
    NOR,
    OR,
    THEOREMS,
    XNOR,
    XOR,
    Basis,
    BinaryMatrix,
    FranklWitness,
    SetFamily,
    closure,
    column_sum,
    compute_basis,
    decompose,
    is_closed,
    op_name,
    parse_family,
    parse_matrix,
    tilde_matrix,
    tilde_op,
)
from closurelab import witnesses
from closurelab.errors import AllEmpty, PreconditionViolated, VerificationFailed
from closurelab.witnesses import MatrixViews, _minimal_member, _topology_core

from conftest import (
    SEMANTICS,
    all_families,
    close_sets_oracle,
    closed_oracle,
    column_count_oracle,
    family_matrix,
    matrix_tuples,
    members,
    neg_closed_oracle,
    random_closure,
    row_texts,
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
    w = THEOREMS["negation_lemma"].witness(m)
    assert (w.column, w.ones, w.total_rows) == (1, 1, 2)
    recount(m, w)


def test_negation_witness_full_pairing():
    m = parse_matrix("00\n11\n01\n10\n")
    w = THEOREMS["negation_lemma"].witness(m)
    recount(m, w)
    for j in (1, 2):
        assert column_sum(m, j) == 2


def test_negation_witness_precondition():
    with pytest.raises(PreconditionViolated):
        THEOREMS["negation_lemma"].witness(parse_matrix("10\n11\n"))


def test_negation_core_reports_the_first_column_off_half(monkeypatch):
    # Both checks of the core can fail on their own: the per-column half
    # count names the first bad column, and the fresh recount stays.
    m = parse_matrix("000\n111\n010\n101\n")
    monkeypatch.setattr(witnesses, "column_sums", lambda width, values: [2, 1, 3])
    with pytest.raises(VerificationFailed, match="^column 2 does not hold exactly half"):
        THEOREMS["negation_lemma"].witness(m)
    monkeypatch.undo()
    monkeypatch.setattr(witnesses, "column_sum", lambda matrix, column: 0)
    with pytest.raises(VerificationFailed, match="^column 1 recount gave 0 ones"):
        THEOREMS["negation_lemma"].witness(m)


def test_negation_core_rejects_rows_that_are_not_their_complements():
    # The even-weight rows of width 3 hold two ones in every column, so
    # only the pairing check (the core's own complement) can reject them.
    m = parse_matrix("000\n011\n101\n110\n")
    views = MatrixViews(m.width, m.row_values)
    assert views.sums == [2, 2, 2]
    with pytest.raises(VerificationFailed, match="^column-1 halves are not complements"):
        witnesses._negation_core(views)


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
            recount(m, THEOREMS["negation_lemma"].witness(m))
        assert seen == (1 << (1 << (width - 1))) - 1  # nonempty sets of pairs


def test_sheffer_not_closed_pair():
    m = parse_matrix("01\n10\n")
    assert not is_closed(m, NAND)  # 01 nand 10 = 11 is absent
    with pytest.raises(PreconditionViolated):
        THEOREMS["nand_reduction"].witness(m)


def test_sheffer_closure_of_single_row():
    c = closure(parse_matrix("01\n"), NAND)
    assert set(row_texts(c)) == {"01", "10", "11", "00"}
    w = THEOREMS["nand_reduction"].witness(c)
    assert (w.ones, w.total_rows) == (2, 4)
    recount(c, w)


#: The theorem row of each Sheffer operator.
REDUCTION = {NAND: "nand_reduction", NOR: "nor_reduction"}


def test_sheffer_closed_implies_negation_closed():
    # Exhaustive at width <= 3, random closures at width <= 6.
    for width in (1, 2, 3):
        for values in all_families(width):
            m = family_matrix(width, values)
            for op in (NAND, NOR):
                if is_closed(m, op):
                    assert neg_closed_oracle(matrix_tuples(m))
                    recount(m, THEOREMS[REDUCTION[op]].witness(m))
    rng = random.Random(61)
    for _ in range(40):
        op = (NAND, NOR)[rng.randrange(2)]
        m = random_closure(rng.randint(2, 6), op, rng.randint(1, 2), rng)
        assert is_closed(m, NEGATION)
        recount(m, THEOREMS[REDUCTION[op]].witness(m))


def test_group_witness_xor_span():
    m = parse_matrix("000\n110\n011\n101\n")
    w = THEOREMS["xor_group"].witness(m)
    assert w.ones == 2 and w.total_rows == 4
    recount(m, w)
    for j in (1, 2, 3):
        assert column_sum(m, j) == 2


def test_group_witness_single_all_ones():
    m = parse_matrix("111\n")
    assert is_closed(m, XNOR)
    w = THEOREMS["xnor_group"].witness(m)
    assert (w.ones, w.total_rows) == (1, 1)


def test_group_witness_preconditions():
    with pytest.raises(PreconditionViolated):
        THEOREMS["xor_group"].witness(parse_matrix("110\n011\n"))  # 110^011=101 absent
    with pytest.raises(PreconditionViolated):
        THEOREMS["xor_group"].witness(parse_matrix("00\n"))  # zero matrix is not a space


def test_xor_closed_contains_zero_row():
    rng = random.Random(303)
    for _ in range(40):
        m = random_closure(rng.randint(1, 6), XOR, rng.randint(1, 3), rng)
        assert 0 in m.row_values
        if m.non_zero:
            recount(m, THEOREMS["xor_group"].witness(m))


def test_xnor_closed_contains_ones_row_and_tilde_is_xor_closed():
    assert tilde_op(XNOR) == XOR
    rng = random.Random(305)
    for _ in range(40):
        m = random_closure(rng.randint(1, 6), XNOR, rng.randint(1, 3), rng)
        assert (1 << m.width) - 1 in m.row_values
        assert is_closed(tilde_matrix(m), XOR)
        recount(m, THEOREMS["xnor_group"].witness(m))


def family(width: int, sets) -> SetFamily:
    """The family of the given element collections, in order, read
    from its ".fam" text."""
    lines = "".join(f"{' '.join(map(str, s)) or '-'}\n" for s in sets)
    return parse_family(f"ground {width}\n{lines}")


def topology_recount(f: SetFamily, element: int):
    sets = members(f)
    count = sum(1 for s in sets if element in s)
    assert 2 * count >= len(sets)
    return count


def test_topology_witness_chain():
    f = family(2, [(), (1,), (1, 2)])
    element = THEOREMS["topology"].witness(f).column
    assert element == 1
    assert topology_recount(f, element) == 2


def test_topology_witness_disjoint_minimal():
    f = family(3, [(1, 2), (3,), (1, 2, 3)])
    element = THEOREMS["topology"].witness(f).column
    assert element == 3
    assert topology_recount(f, element) == 2


def test_topology_witness_on_closed_example_family():
    base = members(parse_matrix(EXAMPLE1))
    closed = close_sets_oracle(base)
    ordered = sorted(closed, key=lambda s: (len(s), tuple(sorted(s))))
    f = family(4, [tuple(sorted(s)) for s in ordered])
    element = THEOREMS["topology"].witness(f).column
    topology_recount(f, element)


def test_topology_witness_preconditions():
    with pytest.raises(PreconditionViolated):
        THEOREMS["topology"].witness(family(3, [(1,), (2,)]))  # union absent
    with pytest.raises(PreconditionViolated):
        # intersection {2} missing while nonempty
        THEOREMS["topology"].witness(family(3, [(1, 2), (2, 3), (1, 2, 3)]))
    with pytest.raises(AllEmpty):
        THEOREMS["topology"].witness(family(3, [()]))



@pytest.mark.parametrize(
    "members, message",
    [
        # {1, 2} & {2, 3} = {2} is missing before {1} | {3} = {1, 3} is.
        ([(1, 2), (2, 3), (1, 2, 3), (1,), (3,)], "nonempty intersection"),
        # {1} | {3} = {1, 3} is missing before {1, 2} & {2, 3} = {2} is.
        ([(1,), (3,), (1, 2), (2, 3), (1, 2, 3)], "union"),
        # A closed lattice and then {1, 3}: only {1, 2} & {1, 3} = {1} fails.
        ([(), (2,), (1, 2), (2, 3), (1, 2, 3), (1, 3)], "nonempty intersection"),
        # In row {1, 2}, the missing {1, 2} | {3} precedes {1, 2} & {2, 3}.
        ([(1, 2), (3,), (2, 3)], "union"),
    ],
)
def test_topology_gate_names_the_first_failing_pair(members, message):
    with pytest.raises(PreconditionViolated) as exc:
        THEOREMS["topology"].witness(family(3, members))
    assert str(exc.value) == f"family is not closed under {message}"


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
        f = family(width, [tuple(sorted(s)) for s in sorted(closed, key=sorted)])
        element = THEOREMS["topology"].witness(f).column
        topology_recount(f, element)


def topology_member_rule(m):
    """The rule on frozenset members: the smallest nonempty member by
    (size, sorted elements), its smallest element, and that element's count."""
    sets = members(m)
    b = min((s for s in sets if s), key=lambda s: (len(s), tuple(sorted(s))))
    element = min(b)
    return element, sum(1 for s in sets if element in s)


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
        w = THEOREMS["topology"].witness(m)
        assert w == _topology_core(MatrixViews(m.width, m.row_values)) and w.column == element, m
        assert column_sum(m, element) == count
        sizes = sorted(v.bit_count() for v in m.row_values if v)
        ties += len(sizes) > 1 and sizes[0] == sizes[1]
    assert ties > 1


def test_minimal_member_matches_the_size_then_value_key():
    # The topology core's pick, smallest size then largest value, against
    # one min over the key (bit_count, -value) on seeded families, many of
    # them with several members of the smallest size.
    rng = random.Random(2025)
    ties = 0
    for width in range(1, 13):
        size = 1 << width
        for _ in range(60):
            values = rng.sample(range(size), min(size, rng.randint(1, 40)))
            if rng.random() < 0.5:
                # Add members of one small size, so ties at the minimum are common.
                k = rng.randint(1, width)
                values += [
                    v for v in (sum(1 << b for b in rng.sample(range(width), k)) for _ in range(3))
                    if v not in values
                ]
            if not any(values):
                values.append(size - 1)
            values = tuple(dict.fromkeys(values))
            expected = min((v for v in values if v), key=lambda v: (v.bit_count(), -v))
            assert _minimal_member(values) == expected, (width, values)
            low = min(v.bit_count() for v in values if v)
            ties += sum(v.bit_count() == low for v in values) > 1
    assert ties > 100


def topology_reference(f: SetFamily):
    """The pair-loop gate: the first failing pair names the check."""
    sets = members(f)
    member_set = set(sets)
    for a in sets:
        for b in sets:
            if a | b not in member_set:
                raise PreconditionViolated("family is not closed under union")
            meet = a & b
            if meet and meet not in member_set:
                raise PreconditionViolated("family is not closed under nonempty intersection")
    if not any(sets):
        raise AllEmpty("every member is the empty set; no element exists")
    return _topology_core(MatrixViews(f.width, f.row_values))


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
        yield family(width, closed)
        if len(closed) > 1:
            del closed[rng.randrange(len(closed))]
            yield family(width, closed)
        s = rng.sample(ground, rng.randint(2, width))
        i = rng.randint(1, len(s) - 1)
        yield family(width, [s[:i], s[i:], s])
        s = rng.sample(ground, rng.randint(3, width))
        i = rng.randint(1, len(s) - 2)
        j = rng.randint(i + 1, len(s) - 1)
        yield family(width, [s[:j], s[i:], s])
    yield family(9, [()])


@pytest.mark.parametrize(
    "families", [byte_gate_families, wide_gate_families], ids=["byte", "wide"]
)
def test_topology_gate_matches_pair_loop(families):
    kinds = set()
    for f in families():
        expected = outcome(topology_reference, f)
        assert outcome(THEOREMS["topology"].witness, f) == expected, f.row_values
        kinds.add(expected[1] if isinstance(expected, tuple) else "element")
    assert len(kinds) == 4, kinds  # both messages, all-empty and a witness


def test_conditional_witness_two_row_space():
    m = parse_matrix("10\n11\n")
    w = THEOREMS["material_conditional"].witness(m)
    # v1 = 01 in the complemented rows, so the witness is column 2 with
    # a single one out of two rows.
    assert (w.column, w.ones, w.total_rows) == (2, 1, 2)
    recount(m, w)


def test_conditional_witness_full_cube():
    for width in (1, 2, 3, 4):
        m = BinaryMatrix.from_values(width, range(1 << width))
        assert is_closed(m, IMP)
        w = THEOREMS["material_conditional"].witness(m)
        recount(m, w)
        for j in range(1, width + 1):
            assert column_sum(m, j) == 1 << (width - 1)


def test_conditional_witness_single_ones_row():
    m = parse_matrix("111\n")
    w = THEOREMS["material_conditional"].witness(m)
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
        users = [row for row in tilde.row_values if 1 in decompose(row, basis)]
        column = f"{basis.vectors[0]:0{m.width}b}".index("1") + 1
        w = THEOREMS["material_conditional"].witness(m)
        assert (w.column, w.ones, w.total_rows) == (column, m.n_rows - len(users), m.n_rows)
    assert split > 40


def test_imp_closed_contains_all_ones_row():
    rng = random.Random(83)
    for _ in range(40):
        m = random_closure(rng.randint(1, 7), IMP, rng.randint(1, 3), rng)
        assert (1 << m.width) - 1 in m.row_values
        recount(m, THEOREMS["material_conditional"].witness(m))


def test_conditional_witness_precondition():
    with pytest.raises(PreconditionViolated):
        THEOREMS["material_conditional"].witness(parse_matrix(EXAMPLE1))


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
        THEOREMS["topology"].witness(chain)
    with pytest.raises(VerificationFailed, match="^count flip between matrix and complement"):
        THEOREMS["material_conditional"].witness(space)


def test_imp_implies_or_closed():
    assert THEOREMS["imp_implies_or"].witness(parse_matrix("10\n11\n"))
    for width in (1, 2, 3):
        cube = BinaryMatrix.from_values(width, range(1 << width))
        assert THEOREMS["imp_implies_or"].witness(cube)
    rng = random.Random(89)
    for _ in range(100):
        m = random_closure(rng.randint(1, 7), IMP, rng.randint(1, 3), rng)
        assert THEOREMS["imp_implies_or"].witness(m)
        assert is_closed(m, OR)
    with pytest.raises(PreconditionViolated):
        THEOREMS["imp_implies_or"].witness(parse_matrix("10\n01\n"))


def meets_gate_hypothesis(theorem, m) -> bool:
    """The hypothesis a theorem's witness(m) gate demands, by the tuple oracles."""
    if theorem.verb == "topology":
        sets = members(m)
        return close_sets_oracle(sets) == set(sets)
    tuples = matrix_tuples(m)
    return all(
        neg_closed_oracle(tuples) if op is NEGATION else closed_oracle(tuples, SEMANTICS[op_name(op)])
        for op in theorem.hypothesis
    )


def theorem_id(theorem) -> str:
    return theorem.verb or theorem.name


@pytest.mark.parametrize("theorem", THEOREMS.values(), ids=theorem_id)
def test_gated_witness_matches_its_core(theorem):
    # Every non-zero width-3 family that meets the gate's hypothesis: the
    # gated witness (gate then core) and the core give one result.
    seen = 0
    for values in all_families(3):
        m = family_matrix(3, values)
        if not m.non_zero or not meets_gate_hypothesis(theorem, m):
            continue
        seen += 1
        assert theorem.witness(m) == theorem.core(MatrixViews(m.width, m.row_values)), values
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
    "complement_count_flip": [("00\n", "the all-zero matrix is not a space")],
    "union_closed_frankl": [("01\n10\n", "rows are not closed under or")],
}


@pytest.mark.parametrize("theorem", THEOREMS.values(), ids=theorem_id)
def test_gated_witness_still_rejects_a_failed_hypothesis(theorem):
    for text, message in GATE_FAILURES[theorem_id(theorem)]:
        m = parse_matrix(text)
        with pytest.raises(PreconditionViolated) as exc:
            theorem.witness(m)
        assert str(exc.value) == message



#: (theorem, rows, whether compute_basis is patched, message) of a core
#: step that fails alone when the core is called off its hypothesis. The
#: patched basis holds one vector, 110, that no row need be made of.
CORE_FAILURES = [
    ("xor_group", "01\n10\n", False, "identity element missing from a closed row set"),
    ("xnor_group", "01\n10\n", False, "identity element missing from a closed row set"),
    ("xor_group", "00\n01\n10\n", False,
     "no column reaches half the rows in a group-closed set"),
    ("topology", "110\n011\n", False, "a member neither contains nor misses the minimal set"),
    ("topology", "100\n010\n", False,
     "join map is not an injection into the containing members"),
    ("material_conditional", "10\n01\n00\n", False,
     "stripping v1 is not an injection into the non-users"),
    ("material_conditional", "100\n", True, "first basis vector is not used by any row"),
    ("material_conditional", "001\n111\n011\n", True,
     "tilde column count disagrees with the v1-user count"),
    ("union_closed_frankl", "100\n010\n001\n", False, "no column reaches half the rows"),
]


@pytest.mark.parametrize(
    "name, rows, patched, message",
    CORE_FAILURES,
    ids=[f"{name}-{'-'.join(message.split()[:2])}" for name, _, _, message in CORE_FAILURES],
)
def test_every_core_verification_step_can_fire(monkeypatch, name, rows, patched, message):
    if patched:
        monkeypatch.setattr(witnesses, "compute_basis", lambda m: Basis(3, (0b110,)))
    m = parse_matrix(rows)
    with pytest.raises(VerificationFailed, match=f"^{re.escape(message)}$"):
        THEOREMS[name].core(MatrixViews(m.width, m.row_values))
