import random

import pytest

from closurelab import (
    ALL_OPS,
    NAND,
    NEGATION,
    XOR,
    BinaryMatrix,
    apply_permutations,
    canonicalize,
    closure,
    is_closed,
    parse_matrix,
    psi,
)
from closurelab.equivalence import CANON_WIDTH_CAP
from closurelab.errors import ParameterOutOfRange, WidthCapExceeded

from conftest import (
    canonical_form_oracle,
    canonical_key_oracle,
    first_col_perm_oracle,
    matrix_tuples,
    random_distinct_matrix,
)

EXAMPLE1 = "0000\n1000\n1100\n0111\n1111\n"


def canon_tuples(m):
    return tuple(matrix_tuples(canonicalize(m).matrix))


def test_row_swap_same_canonical_form():
    a = parse_matrix("10\n01\n")
    b = parse_matrix("01\n10\n")
    assert canonicalize(a).matrix == canonicalize(b).matrix


def test_example_vs_column_reversed():
    m = parse_matrix(EXAMPLE1)
    reversed_cols = apply_permutations(m, tuple(range(5)), (3, 2, 1, 0))
    assert canonicalize(m).matrix == canonicalize(reversed_cols).matrix


def test_distinct_matrices_differ():
    a, b = parse_matrix("10\n11\n"), parse_matrix("01\n10\n")
    assert canonicalize(a).matrix != canonicalize(b).matrix
    # Confirmed by the brute-force canonical keys.
    assert canonical_key_oracle(parse_matrix("10\n11\n")) != canonical_key_oracle(
        parse_matrix("01\n10\n")
    )


def test_canonical_matches_bruteforce_oracle():
    rng = random.Random(17)
    for _ in range(150):
        width = rng.randint(1, 6)
        n = rng.randint(1, min(8, 1 << width))
        m = random_distinct_matrix(rng, width, n)
        assert canon_tuples(m) == canonical_key_oracle(m)


def test_canonical_with_duplicate_columns():
    # Duplicate columns are allowed; canonicalization must handle them.
    m = parse_matrix("0000\n1111\n0110\n")  # columns 2 and 3 identical
    assert canon_tuples(m) == canonical_key_oracle(m)
    wide = BinaryMatrix.from_values(10, [0, (1 << 10) - 1])  # all columns identical
    form = canonicalize(wide)
    assert form.matrix == wide


def test_permutation_invariance_hundred_trials():
    rng = random.Random(23)
    for text in (EXAMPLE1, "10\n11\n", "100\n010\n111\n"):
        m = parse_matrix(text)
        base = canonicalize(m).matrix
        for _ in range(100):
            rp = list(range(m.n_rows))
            cp = list(range(m.width))
            rng.shuffle(rp)
            rng.shuffle(cp)
            p = apply_permutations(m, tuple(rp), tuple(cp))
            assert canonicalize(p).matrix == base


def test_recorded_permutations_reproduce_canonical():
    rng = random.Random(29)
    for _ in range(100):
        width = rng.randint(1, 6)
        n = rng.randint(1, min(8, 1 << width))
        m = random_distinct_matrix(rng, width, n)
        form = canonicalize(m)
        assert apply_permutations(m, form.row_perm, form.col_perm) == form.matrix


@pytest.mark.parametrize(
    "row_perm, col_perm, named",
    [
        ((0, 1, 2), (0, 1), "col_perm"),  # too short
        ((0, 1, 2), (0, 0, 1), "col_perm"),  # a repeated column
        ((0, 1, 2), (-1, 0, 1), "col_perm"),  # would wrap to the last column
        ((0, 1, 2), (0, 1, 5), "col_perm"),  # past the last column
        ((2,), (0, 1, 2), "row_perm"),  # one row of three
    ],
    ids=["short", "repeated", "negative", "past_end", "one_row"],
)
def test_apply_permutations_rejects_a_non_permutation(row_perm, col_perm, named):
    m = parse_matrix("101\n010\n111\n")
    with pytest.raises(ParameterOutOfRange, match=f"^{named} "):
        apply_permutations(m, row_perm, col_perm)


def test_are_equivalent_is_reflexive_and_symmetric():
    rng = random.Random(37)
    m = random_distinct_matrix(rng, 4, 5)
    assert canonicalize(m).matrix == canonicalize(m).matrix
    p = apply_permutations(m, (2, 0, 1, 4, 3), (1, 0, 3, 2))
    assert canonicalize(m).matrix == canonicalize(p).matrix
    assert canonicalize(p).matrix == canonicalize(m).matrix


def test_shape_mismatch_is_false():
    # Comparing canonical matrices tells shapes apart with no check of
    # its own: "10" and "100" both canonicalize to one 1 in the last
    # column, and only the width separates them.
    for a, b in (("10\n", "10\n01\n"), ("10\n", "100\n")):
        assert canonicalize(parse_matrix(a)).matrix != canonicalize(parse_matrix(b)).matrix


def test_closure_and_psi_preserved_under_permutations():
    rng = random.Random(41)
    for _ in range(60):
        width = rng.randint(1, 5)
        n = rng.randint(1, min(8, 1 << width))
        m = random_distinct_matrix(rng, width, n)
        rp = list(range(n))
        cp = list(range(width))
        rng.shuffle(rp)
        rng.shuffle(cp)
        rows_only = apply_permutations(m, tuple(rp), tuple(range(width)))
        both = apply_permutations(m, tuple(rp), tuple(cp))
        for op in ALL_OPS + (NEGATION,):
            closed = is_closed(m, op)
            assert is_closed(rows_only, op) == closed
            # operators act elementwise, so column permutation preserves
            # closure as well
            assert is_closed(both, op) == closed
        assert psi(both).psi_set == psi(m).psi_set


def test_width_cap():
    wide = BinaryMatrix.from_values(13, [1, 2])
    with pytest.raises(WidthCapExceeded):
        canonicalize(wide)


@pytest.mark.parametrize("width", range(1, 9))
def test_canonical_form_matches_the_column_search_oracle(width):
    # 250 seeded matrices per width, 2000 in all, of up to 14 rows.
    rng = random.Random(1000 + width)
    for _ in range(250):
        m = random_distinct_matrix(rng, width, rng.randint(1, min(14, 1 << width)))
        assert canonicalize(m) == canonical_form_oracle(m), m.row_values


def _rotations(value, width):
    mask = (1 << width) - 1
    return {((value << k) | (value >> (width - k))) & mask for k in range(width)}


def _fano_with_complements():
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    points = [sum(1 << (6 - c) for c in line) for line in lines]
    return points + [v ^ 0b1111111 for v in points]


def _hamming_7_4():
    generators = (0b1000110, 0b0100101, 0b0010011, 0b0001111)
    words = set()
    for code in range(16):
        word = 0
        for i, g in enumerate(generators):
            if code >> i & 1:
                word ^= g
        words.add(word)
    return sorted(words)


STRUCTURED = {
    "identity plus zero, width 8": (8, [0] + [1 << i for i in range(8)]),
    "full width-6 space": (6, range(64)),
    "2-subsets of 7": (7, [(1 << i) | (1 << j) for i in range(7) for j in range(i)]),
    "rotations of 00010111 and 00000011": (8, _rotations(0b00010111, 8) | _rotations(0b11, 8)),
    "rotations of 0001011 plus the singletons": (
        7, _rotations(0b0001011, 7) | {1 << i for i in range(7)}
    ),
    "rotations of 00000101 minus one singleton": (
        8, _rotations(0b101, 8) | {1 << i for i in range(1, 8)}
    ),
    "Fano plane plus complements": (7, _fano_with_complements()),
    "Hamming [7,4] code": (7, _hamming_7_4()),
    "all-duplicate columns": (8, [0, 0xFF]),
    "one all-ones row": (8, [0xFF]),
    "one row": (7, [0b1011001]),
    "one column": (1, [1, 0]),
    "one column, one row": (1, [1]),
}


@pytest.mark.parametrize("name", STRUCTURED)
def test_structured_sets_match_the_column_search_oracle(name):
    width, values = STRUCTURED[name]
    m = BinaryMatrix.from_values(width, sorted(values))
    form = canonicalize(m)
    assert form == canonical_form_oracle(m)
    # Any reordering of the input gives the same canonical matrix.
    rng = random.Random(name)
    rp, cp = list(range(m.n_rows)), list(range(width))
    rng.shuffle(rp)
    rng.shuffle(cp)
    assert canonicalize(apply_permutations(m, tuple(rp), tuple(cp))).matrix == form.matrix


def _with_duplicate_columns(rng, width):
    """Distinct rows over k <= width base columns, each output column a
    copy of some base column, every base column used at least once."""
    k = rng.randint(1, width)
    base = rng.sample(range(1 << k), rng.randint(1, min(10, 1 << k)))
    source = list(range(k)) + [rng.randrange(k) for _ in range(width - k)]
    rng.shuffle(source)
    return BinaryMatrix.from_values(
        width,
        [
            sum(((b >> (k - 1 - s)) & 1) << (width - 1 - j) for j, s in enumerate(source))
            for b in base
        ],
    )


def test_col_perm_is_the_first_permutation_reaching_the_key():
    # The rule perfbench's oracle checks: among all column permutations
    # whose sorted rows equal the canonical matrix, col_perm is the
    # lexicographically smallest.
    rng = random.Random(53)
    for i in range(240):
        width = 1 + i % 6
        m = _with_duplicate_columns(rng, width)
        form = canonicalize(m)
        assert form.col_perm == first_col_perm_oracle(m), m.row_values
        assert canon_tuples(m) == canonical_key_oracle(m)


def _nand_closed_128x10(rng):
    # Seven atoms partitioning the ten columns; closing them under NAND
    # gives every union of atoms.
    columns = list(range(10))
    rng.shuffle(columns)
    cuts = [0, 2, 4, 6, 7, 8, 9, 10]
    atoms = [sum(1 << c for c in columns[a:b]) for a, b in zip(cuts, cuts[1:])]
    m = closure(BinaryMatrix.from_values(10, atoms), NAND)
    assert m.n_rows == 128
    return m


def _xor_closed_at_the_cap(rng):
    generators = BinaryMatrix.from_values(
        CANON_WIDTH_CAP, rng.sample(range(1, 1 << CANON_WIDTH_CAP), 6)
    )
    m = closure(generators, XOR)
    assert m.n_rows == 64
    return m


def test_large_inputs_are_invariant_under_shuffles():
    # Inputs the column branch and bound could not finish quickly: it
    # took tens of seconds on random 64x10 rows and on a NAND-closed
    # 128x10 space.
    rng = random.Random(59)
    inputs = [
        random_distinct_matrix(rng, 10, 64),
        _nand_closed_128x10(rng),
        BinaryMatrix.from_values(8, range(256)),
        _xor_closed_at_the_cap(rng),
    ]
    for m in inputs:
        form = canonicalize(m)
        assert apply_permutations(m, form.row_perm, form.col_perm) == form.matrix
        for _ in range(5):
            rp, cp = list(range(m.n_rows)), list(range(m.width))
            rng.shuffle(rp)
            rng.shuffle(cp)
            shuffled = apply_permutations(m, tuple(rp), tuple(cp))
            again = canonicalize(shuffled)
            assert again.matrix == form.matrix
            assert apply_permutations(shuffled, again.row_perm, again.col_perm) == again.matrix
