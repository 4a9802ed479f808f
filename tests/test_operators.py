import random

import pytest

from closurelab import (
    ABJ,
    ALL_OPS,
    AND,
    CABJ,
    CIMP,
    IMP,
    NAND,
    NEGATION,
    NOR,
    OR,
    XNOR,
    XOR,
    BinaryMatrix,
    BoolOp,
    op_name,
    parse_matrix,
    parse_op,
    tilde_matrix,
    tilde_op,
)
from closurelab.operators import ABOVE, CLONE, apply_values

from conftest import (
    SEMANTICS,
    apply_tuple,
    matrix_tuples,
    neg_tuple,
    row_texts,
    row_tuple,
    truth_fn,
)

NAMED = {
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


def test_named_aliases_match_classical_tables():
    for name, op in NAMED.items():
        fn = SEMANTICS[name]
        for a in (0, 1):
            for b in (0, 1):
                assert truth_fn(op)(a, b) == fn(a, b), (name, a, b)


def test_sixteen_distinct_operators():
    assert len({op.table for op in ALL_OPS}) == 16
    assert len({op.table for op in NAMED.values()}) == 10
    with pytest.raises(ValueError):
        BoolOp(16)
    with pytest.raises(ValueError):
        BoolOp(-1)


def test_apply_imp_example():
    assert apply_values(IMP.table, 0b10, 0b01, 0b11) == 0b01


def test_apply_xor_example():
    assert apply_values(XOR.table, 0b1100, 0b1010, 0b1111) == 0b0110


def test_nand_diagonal_is_negation():
    rng = random.Random(5)
    for _ in range(50):
        width = rng.randint(1, 10)
        mask = (1 << width) - 1
        a = rng.randrange(1 << width)
        assert apply_values(NAND.table, a, a, mask) == a ^ mask
        assert apply_values(NOR.table, a, a, mask) == a ^ mask


def test_apply_matches_tuple_oracle():
    rng = random.Random(6)
    for _ in range(100):
        width = rng.randint(1, 9)
        a = rng.randrange(1 << width)
        b = rng.randrange(1 << width)
        op = ALL_OPS[rng.randrange(16)]
        fn = truth_fn(op)
        expected = apply_tuple(fn, row_tuple(a, width), row_tuple(b, width))
        got = apply_values(op.table, a, b, (1 << width) - 1)
        assert row_tuple(got, width) == expected


def test_apply_is_pointwise():
    # Bit j of the result must not react to changes in any other bit.
    rng = random.Random(8)
    for _ in range(100):
        width = rng.randint(2, 10)
        mask = (1 << width) - 1
        j = rng.randint(1, width)
        a = rng.randrange(1 << width)
        b = rng.randrange(1 << width)
        keep = 1 << (width - j)
        scramble_a = rng.randrange(1 << width) & ~keep
        scramble_b = rng.randrange(1 << width) & ~keep
        op = ALL_OPS[rng.randrange(16)]
        r1 = apply_values(op.table, a, b, mask)
        r2 = apply_values(op.table, (a & keep) | scramble_a, (b & keep) | scramble_b, mask)
        assert r1 & keep == r2 & keep


def test_negate_examples():
    assert row_texts(tilde_matrix(parse_matrix("0101\n"))) == ["1010"]
    rng = random.Random(9)
    for _ in range(50):
        width = rng.randint(1, 12)
        x = BinaryMatrix.from_values(width, [rng.randrange(1 << width)])
        assert tilde_matrix(tilde_matrix(x)) == x
        assert matrix_tuples(tilde_matrix(x)) == [neg_tuple(r) for r in matrix_tuples(x)]


def test_tilde_matrix():
    m = parse_matrix("1111\n0000\n0110\n")
    t = tilde_matrix(m)
    assert row_texts(t) == ["0000", "1111", "1001"]


@pytest.mark.parametrize("width", range(1, 10))
def test_tilde_matrix_complements_each_row_in_order(width):
    # Up to width 8 the rows are complemented by one translate, above it
    # row by row; both give v ^ mask in the rows' order, on the whole
    # space shuffled and on random row sets.
    mask = (1 << width) - 1
    rng = random.Random(width)
    everything = list(range(mask + 1))
    rng.shuffle(everything)
    cases = [everything]
    cases += [rng.sample(range(mask + 1), rng.randint(1, mask + 1)) for _ in range(20)]
    for values in cases:
        t = tilde_matrix(BinaryMatrix.from_values(width, values))
        assert type(t) is BinaryMatrix and t.width == width
        assert t.row_values == tuple(v ^ mask for v in values)


def test_tilde_op_defining_identity_exhaustive():
    # For every operator and all four bit pairs:
    # tilde(op)(not a, not b) == not op(a, b).
    for op in ALL_OPS:
        dual = tilde_op(op)
        for a in (0, 1):
            for b in (0, 1):
                assert truth_fn(dual)(1 - a, 1 - b) == 1 - truth_fn(op)(a, b)


def test_tilde_op_involution_all_sixteen():
    for op in ALL_OPS:
        assert tilde_op(tilde_op(op)) == op


def test_tilde_op_named_pairs():
    assert tilde_op(IMP) == CABJ
    # Derive the xnor dual independently over the four pairs.
    expected = {(a, b): 1 - SEMANTICS["xnor"](1 - a, 1 - b) for a in (0, 1) for b in (0, 1)}
    assert all(expected[(a, b)] == SEMANTICS["xor"](a, b) for a, b in expected)
    assert tilde_op(XNOR) == XOR


def test_tilde_of_imp_acts_as_complement_abjunction():
    # On complemented rows, the dual of the conditional is (not x) and y.
    rng = random.Random(11)
    for _ in range(50):
        width = rng.randint(1, 8)
        mask = (1 << width) - 1
        a = rng.randrange(1 << width)
        b = rng.randrange(1 << width)
        ta, tb = a ^ mask, b ^ mask
        lhs = apply_values(tilde_op(IMP).table, ta, tb, mask)
        assert lhs == apply_values(IMP.table, a, b, mask) ^ mask
        expected = apply_tuple(
            lambda x, y: (1 - x) & y, row_tuple(ta, width), row_tuple(tb, width)
        )
        assert row_tuple(lhs, width) == expected


def test_parse_op_names():
    assert parse_op("AND") is NAMED["and"] or parse_op("AND") == AND
    for name, op in NAMED.items():
        assert parse_op(name) == op
        assert parse_op(name.upper()) == op
        assert op_name(op) == name
    assert parse_op("not") is NEGATION
    assert op_name(NEGATION) == "not"
    assert parse_op("tt:11") == IMP
    assert parse_op("tt:0") == BoolOp(0)
    assert op_name(BoolOp(0)) == "tt:0"
    for bad in ("nope", "tt:16", "tt:-1", "tt:x", ""):
        with pytest.raises(ValueError):
            parse_op(bad)
    # Table numbers are ASCII decimal digits only, unlike int().
    for bad in ("tt:1_5", "tt:+3", "tt:-0", "tt:-00", "tt:\u0663", "tt:\uff12"):
        with pytest.raises(ValueError) as exc:
            parse_op(bad)
        assert str(exc.value) == f"unknown operator {bad!r}"


def tables(*numbers):
    return sum(1 << t for t in set(numbers))


def test_clone_table_facts():
    # NAND and NOR are Sheffer functions; ABJ gives 0, a, b, AND, ABJ and
    # its mirror CABJ; tables with equal clones have the same closed rows.
    assert CLONE[NAND.table] == CLONE[NOR.table] == 0xFFFF
    assert CLONE[ABJ.table] == tables(0, CABJ.table, ABJ.table, AND.table, 10, 12)
    for f, g in ((1, 7), (2, 4), (3, 5), (11, 13)):
        assert CLONE[f] == CLONE[g], (f, g)
    assert CLONE[IMP.table] >> OR.table & 1
    assert CLONE[NEGATION.table] == tables(3, 5, 10, 12)


def apply_table(f, x, y):
    """Truth table of f(x, y) for tables x and y, one input pair at a time."""
    return sum(truth_fn(BoolOp(f))(x >> k & 1, y >> k & 1) << k for k in range(4))


def test_clone_table_is_closed_and_above_is_its_converse():
    for f in range(16):
        # a clone holds a (12), b (10) and f, is closed under f, and
        # holds the clone of each member
        assert CLONE[f] & tables(10, 12, f) == tables(10, 12, f)
        members = [g for g in range(16) if CLONE[f] >> g & 1]
        for x in members:
            assert CLONE[x] & ~CLONE[f] == 0, (f, x)
            for y in members:
                assert CLONE[f] >> apply_table(f, x, y) & 1, (f, x, y)
        for g in range(16):
            assert (ABOVE[g] >> f & 1) == (CLONE[f] >> g & 1)
