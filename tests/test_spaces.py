import random
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import (
    ABJ,
    ALL_OPS,
    AND,
    IMP,
    NEGATION,
    OR,
    XOR,
    BinaryMatrix,
    BoolOp,
    SetFamily,
    apply_permutations,
    closure,
    counterexample_block,
    counterexample_identity,
    is_closed,
    parse_matrix,
    psi,
)
from closurelab.enumeration import _closed_mask_direct, _neg_closed
from closurelab.errors import ParameterOutOfRange, WidthCapExceeded
from closurelab.operators import apply_values
from closurelab.spaces import (
    _diagonal,
    _RowTables,
    _row_tables,
    _swapped,
    closed_under,
    row_map,
)

from conftest import (
    SEMANTICS,
    apply_tuple,
    closed_oracle,
    closure_oracle,
    column_count_oracle,
    matrix_tuples,
    neg_closed_oracle,
    random_closure,
    random_distinct_matrix,
    row_texts,
    truth_fn,
)

EXAMPLE1 = "0000\n1000\n1100\n0111\n1111\n"


def test_example_matrix_closures():
    m = parse_matrix(EXAMPLE1)
    assert is_closed(m, OR)
    assert closed_oracle(matrix_tuples(m), SEMANTICS["or"])
    assert not is_closed(m, AND)
    assert not closed_oracle(matrix_tuples(m), SEMANTICS["and"])


def test_identity_plus_zero_closures():
    for n in (1, 2, 4, 6):
        m = counterexample_identity(n)
        assert is_closed(m, ABJ)
        assert is_closed(m, AND)
        assert closed_oracle(matrix_tuples(m), SEMANTICS["abj"])


def test_is_closed_matches_oracle_randomly():
    rng = random.Random(31)
    for _ in range(300):
        width = rng.randint(1, 5)
        n = rng.randint(1, min(8, 1 << width))
        m = random_distinct_matrix(rng, width, n)
        op = ALL_OPS[rng.randrange(16)]
        assert is_closed(m, op) == closed_oracle(matrix_tuples(m), truth_fn(op))
        assert is_closed(m, NEGATION) == neg_closed_oracle(matrix_tuples(m))


# --- the affine kernel against the tuple oracle -------------------------------

_KERNEL = settings(max_examples=150, deadline=None, derandomize=True, database=None)
#: Op indices 0..15 are truth tables; 16 stands for negation.
_OPS = ALL_OPS + (NEGATION,)


def assert_kernel_matches_oracle(m: BinaryMatrix) -> None:
    """is_closed, _closed_mask_direct and _neg_closed agree with the oracle
    on every truth table and on negation, and negation closure is closure
    under tables 3 (not a) and 5 (not b)."""
    rows = matrix_tuples(m)
    expected = sum(1 << op.table for op in ALL_OPS if closed_oracle(rows, truth_fn(op)))
    assert _closed_mask_direct(m.width, m.row_values) == expected
    for op in ALL_OPS:
        assert is_closed(m, op) == bool(expected >> op.table & 1), op
    neg = neg_closed_oracle(rows)
    assert neg == closed_oracle(rows, lambda a, b: 1 - a) == closed_oracle(rows, lambda a, b: 1 - b)
    assert bool(expected >> 3 & 1) == bool(expected >> 5 & 1) == neg
    assert is_closed(m, NEGATION) == neg
    assert _neg_closed(m.width, m.row_values) == neg


@st.composite
def generators(draw, max_rows=3):
    # Widths up to 12, so both the byte path (width <= 8) and the image
    # set path of closed_under meet the oracle.
    width = draw(st.integers(1, 12))
    values = draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=max_rows, unique=True)
    )
    return BinaryMatrix.from_values(width, values)


@_KERNEL
@given(gens=generators(), op_index=st.integers(0, 16))
def test_kernel_matches_oracle_on_closures(gens, op_index):
    assert_kernel_matches_oracle(closure(gens, _OPS[op_index]))


@_KERNEL
@given(m=generators(max_rows=20))
def test_kernel_matches_oracle_on_random_sets(m):
    assert_kernel_matches_oracle(m)


@_KERNEL
@given(m=generators(max_rows=1))
def test_kernel_matches_oracle_on_single_rows(m):
    assert_kernel_matches_oracle(m)


@pytest.mark.parametrize("width", range(1, 9))
def test_kernel_matches_oracle_on_the_full_space(width):
    assert_kernel_matches_oracle(BinaryMatrix.from_values(width, range(1 << width)))


def test_closed_under_on_the_rows_alone_matches_an_explicit_set_and_the_oracle():
    # The rows alone, and the rows plus the empty row as the topology
    # gate passes them, meet the oracle on every table and negation, at
    # byte widths and above, on closures, closures less their last row,
    # random sets and a row with its complement (whose AND images add
    # only the empty row). Under AND, the rows plus the empty row are
    # closed exactly when every image of the rows is a row or empty.
    rng = random.Random(23)
    outcomes = set()
    for width in range(1, 13):
        mask = (1 << width) - 1
        for op in _OPS:
            output = truth_fn(op) if isinstance(op, BoolOp) else lambda a, b: 1 - a
            for _ in range(3):
                gens = random_distinct_matrix(rng, width, rng.randint(1, min(2, 1 << width)))
                closed = closure(gens, op).row_values
                scattered = random_distinct_matrix(rng, width, rng.randint(1, min(12, 1 << width)))
                r = rng.randrange(1 << width)
                cases = [closed, closed[:-1] or closed, scattered.row_values, (r, r ^ mask)]
                for values in cases:
                    rows = matrix_tuples(BinaryMatrix.from_values(width, values))
                    expected = closed_oracle(rows, output)
                    assert closed_under(op.table, values, mask) == expected, (op, values)
                    kept = {*rows, (0,) * width}
                    with_empty = closed_oracle(kept, output)
                    assert closed_under(op.table, (*values, 0), mask) == with_empty, (op, values)
                    if op is AND:
                        images = (apply_tuple(output, a, b) for a in rows for b in rows)
                        assert with_empty == all(r in kept for r in images), values
                    outcomes.add((mask < 256, expected, with_empty))
    assert outcomes == set(product((True, False), repeat=3))


#: The tables that ignore an argument: constants, projections, negations.
DIAGONAL_TABLES = (0, 3, 5, 10, 12, 15)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_diagonal_decides_exactly_the_tables_that_ignore_an_argument(width):
    # Every image of such a table is the diagonal of one of its arguments.
    mask = (1 << width) - 1
    for table in range(16):
        diagonal = _diagonal(table, mask)
        assert (diagonal is not None) == (table in DIAGONAL_TABLES), table
        if diagonal is None:
            continue
        u, d = diagonal
        for a in range(mask + 1):
            for b in range(mask + 1):
                image = apply_values(table, a, b, mask)
                assert image in (u ^ (a & d), u ^ (b & d)), (table, a, b)


def test_projection_closure_of_many_rows_within_budget():
    # Under op(a, b) = b every image is the diagonal of a row, so the
    # kernel checks one image set, not one per row: linear, not quadratic.
    m = BinaryMatrix.from_values(16, random.Random(16).sample(range(1 << 16), 8000))
    t0 = time.perf_counter()
    closed = is_closed(m, BoolOp(10))
    elapsed = time.perf_counter() - t0
    assert closed
    assert elapsed < 1.0, f"is_closed under tt:10 on 8000 rows took {elapsed:.2f} s (budget 1 s)"


def test_degenerate_closure_of_many_rows_within_budget():
    # Under a constant, a projection or a negated projection every image
    # is a row's diagonal, so closure appends diagonals and is linear.
    m = BinaryMatrix.from_values(16, random.Random(16).sample(range(1 << 16), 4000))
    for table in (10, 12, 0, 15, 5, 3):
        t0 = time.perf_counter()
        closed = closure(m, BoolOp(table))
        elapsed = time.perf_counter() - t0
        assert closed.row_values[:4000] == m.row_values
        assert elapsed < 0.5, f"closure under tt:{table} of 4000 rows took {elapsed:.2f} s (budget 0.5 s)"


def closure_reference(generators: BinaryMatrix, op) -> tuple[int, ...]:
    """The pair-loop closure: row i against rows 0..i, op(a, b) then op(b, a),
    one apply_values call per ordered pair."""
    mask = (1 << generators.width) - 1
    rows = list(generators.row_values)
    present = set(rows)
    i = 0
    while i < len(rows):
        a = rows[i]
        for j in range(i + 1):
            b = rows[j]
            for r in (apply_values(op.table, a, b, mask), apply_values(op.table, b, a, mask)):
                if r not in present:
                    present.add(r)
                    rows.append(r)
        i += 1
    return tuple(rows)


@_KERNEL
@given(gens=generators(max_rows=4), op_index=st.integers(0, 16))
def test_closure_row_order_matches_pair_loop_reference(gens, op_index):
    op = _OPS[op_index]
    assert closure(gens, op).row_values == closure_reference(gens, op)


def test_closure_row_order_matches_pair_loop_reference_on_many_generators():
    # Up to a dozen generators, so rows share maps and skip their pairs.
    rng = random.Random(20)
    for _ in range(3000):
        width = rng.randint(1, 6)
        gens = random_distinct_matrix(rng, width, rng.randint(1, min(12, 1 << width)))
        op = BoolOp(rng.randrange(16))
        assert closure(gens, op).row_values == closure_reference(gens, op), (gens, op)


@pytest.mark.parametrize("width", [7, 8])
def test_byte_closure_row_order_matches_pair_loop_reference(width):
    # The byte path at its widest, on every table and negation, with up
    # to 16 generators so that some closures fill the whole space.
    rng = random.Random(width)
    full = 0
    for op in _OPS:
        for count in (1, 2, 3, 8, 16):
            gens = random_distinct_matrix(rng, width, count)
            expected = closure_reference(gens, op)
            assert closure(gens, op).row_values == expected, (gens, op)
            full += len(expected) == 1 << width
    assert full >= 4


def test_byte_closure_reads_the_swapped_tables_only_under_asymmetric_tables(monkeypatch):
    # Under a symmetric table op(b, a) is op(a, b), so the closure reads
    # one row-table lookup; every other table also reads the lookup of
    # op(b, a). Tables 3, 5, 10 and 12 close to the same rows either way,
    # so only the lookups tell the two paths apart.
    symmetric = {
        t for t in range(16)
        if all(apply_values(t, a, b, 1) == apply_values(t, b, a, 1) for a in (0, 1) for b in (0, 1))
    }
    assert symmetric == {0, 1, 6, 7, 8, 9, 14, 15}
    read = []

    def recording(table, mask):
        read.append(table)
        return _row_tables(table, mask)

    monkeypatch.setattr("closurelab.spaces._row_tables", recording)
    gens = BinaryMatrix.from_values(8, (3, 200))
    for table in range(16):
        read.clear()
        closure(gens, BoolOp(table))
        assert read == ([table] if table in symmetric else [table, _swapped(table)]), table


@pytest.mark.parametrize("width", [9, 16])
def test_wide_closure_row_order_matches_pair_loop_reference(width):
    # Rows wider than a byte take the one-pair-at-a-time worklist. Three
    # generators keep every closure within 256 rows. The tables that
    # ignore an argument close through their diagonal, which stays linear,
    # so they also take 40 generators: their appended diagonals then
    # follow the generators in the pair loop's order.
    rng = random.Random(width)
    for op in _OPS:
        for count in (1, 2, 3):
            gens = random_distinct_matrix(rng, width, count)
            assert closure(gens, op).row_values == closure_reference(gens, op), (gens, op)
    for table in DIAGONAL_TABLES:
        gens = random_distinct_matrix(rng, width, 40)
        op = BoolOp(table)
        assert closure(gens, op).row_values == closure_reference(gens, op), (gens, op)


@pytest.mark.parametrize("width", [3, 8, 9])
def test_closure_of_a_set_family_is_a_plain_matrix(width):
    family = SetFamily(width, (1 << (width - 1), 1))
    closed = closure(family, OR)
    assert type(closed) is BinaryMatrix
    assert closed.row_values == closure_reference(family, OR)


def test_closed_under_matches_oracle_at_width_8_with_nonzero_u():
    # Tables whose row maps have u != 0 translate through one combined
    # table of b -> u ^ (b & d); closures, closures less a row, and
    # random sets give both outcomes.
    rng = random.Random(88)
    outcomes = set()
    for op in ALL_OPS:
        if not any(u for u, _ in (row_map(op.table, a, 255) for a in range(256))):
            continue
        for _ in range(6):
            closed = closure(random_distinct_matrix(rng, 8, rng.randint(1, 3)), op).row_values
            if len(closed) > 64:
                closed = closed[:64]
            cases = [closed, closed[:-1] or closed, tuple(rng.sample(range(256), 12))]
            for values in cases:
                rows = matrix_tuples(BinaryMatrix.from_values(8, values))
                expected = closed_oracle(rows, truth_fn(op))
                assert closed_under(op.table, values, 255) == expected, (op, values)
                outcomes.add(expected)
    assert outcomes == {True, False}


def first_row_passing_set(table: int, width: int, rng: random.Random):
    """Rows whose first row's images all lie among them while the rows
    are not closed under the table, or None if 200 tries find none.

    The first row a and a few random rows are grown by the images
    op(a, b) until a's images are present; the set is kept when some
    later row still has an image outside it."""
    mask = (1 << width) - 1
    for _ in range(200):
        a = rng.randrange(mask + 1)
        values = [a] + [b for b in rng.sample(range(mask + 1), min(mask + 1, 3)) if b != a]
        while True:
            present = set(values)
            new = [r for r in dict.fromkeys(apply_values(table, a, b, mask) for b in values)
                   if r not in present]
            if not new:
                break
            values += new
        tuples = matrix_tuples(BinaryMatrix.from_values(width, values))
        if not closed_oracle(tuples, truth_fn(BoolOp(table))):
            return tuple(values)
    return None


def test_closed_under_fails_on_a_later_row_after_the_first_passes():
    # The byte path tests the first left row alone and then every row in
    # one joined translate; this set passes the first test and must fail
    # the second. None exists at width 1, whose only two-row set is the
    # whole space, nor for tables whose images do not depend on a (0, 5,
    # 10, 15) or are a itself (12), where the first row decides.
    rng = random.Random(17)
    missing = set()
    for width in range(1, 9):
        mask = (1 << width) - 1
        for table in range(16):
            values = first_row_passing_set(table, width, rng)
            if values is None:
                missing.add((table, width))
                continue
            assert not closed_under(table, values, mask), (table, values)
    assert missing == {(t, 1) for t in range(16)} | {
        (t, w) for t in (0, 5, 10, 12, 15) for w in range(1, 9)
    }


@pytest.mark.parametrize("mask", [255, 511])
def test_closed_under_empty_values_is_true(mask):
    # On the byte path (mask 255) and the image-set path (mask 511).
    for table in range(16):
        assert closed_under(table, (), mask)


@pytest.mark.parametrize("width", range(1, 9))
def test_row_tables_translate_rows_like_apply_values(width):
    # Each table is checked twice: built on first use in a fresh lookup,
    # then read from the process-wide one, which may have cached it.
    mask = (1 << width) - 1
    values = list(range(mask + 1))
    if width > 6:
        values = random.Random(width).sample(values, 64)
    rows = bytes(values)
    for table in range(16):
        for lookup in (_RowTables(table, mask), _row_tables(table, mask)):
            for a in range(mask + 1):
                expected = bytes(apply_values(table, a, b, mask) for b in values)
                assert rows.translate(lookup[a]) == expected, (table, a)


def test_closure_or_join():
    c = closure(parse_matrix("10\n01\n"), OR)
    assert row_texts(c) == ["10", "01", "11"]


def test_closure_imp_single_generator():
    c = closure(parse_matrix("10\n"), IMP)
    assert set(row_texts(c)) == {"10", "11"}
    assert row_texts(c)[0] == "10"  # generators first
    assert is_closed(c, IMP)


def test_closure_xor_span():
    c = closure(parse_matrix("100\n010\n"), XOR)
    assert set(row_texts(c)) == {"100", "010", "110", "000"}
    span = closure_oracle(matrix_tuples(parse_matrix("100\n010\n")), SEMANTICS["xor"])
    assert set(matrix_tuples(c)) == span


def test_closure_negation_marker():
    c = closure(parse_matrix("10\n"), NEGATION)
    assert set(row_texts(c)) == {"10", "01"}
    assert is_closed(c, NEGATION)


def test_closure_postconditions_random():
    rng = random.Random(77)
    for _ in range(200):
        width = rng.randint(1, 5)
        gens = random_distinct_matrix(rng, width, rng.randint(1, min(3, 1 << width)))
        op = ALL_OPS[rng.randrange(16)]
        c = closure(gens, op)
        assert is_closed(c, op)
        assert c.n_rows <= 1 << width
        assert c.row_values[: gens.n_rows] == gens.row_values
        # idempotent as a row set
        again = closure(c, op)
        assert set(again.row_values) == set(c.row_values)
        # matches the independent fixed point
        assert set(matrix_tuples(c)) == closure_oracle(
            matrix_tuples(gens), truth_fn(op)
        )


def test_closure_minimality_bruteforce():
    # The closure must sit inside every closed superset of the generators.
    rng = random.Random(13)
    width = 3
    for _ in range(40):
        gens = random_distinct_matrix(rng, width, rng.randint(1, min(3, 1 << width)))
        op = ALL_OPS[rng.randrange(16)]
        closed_rows = set(closure(gens, op).row_values)
        gen_rows = set(gens.row_values)
        for code in range(1, 1 << 8):
            family = {r for r in range(8) if (code >> r) & 1}
            if not gen_rows <= family:
                continue
            if is_closed(BinaryMatrix.from_values(width, sorted(family)), op):
                assert closed_rows <= family


def test_psi_example():
    stats = psi(parse_matrix(EXAMPLE1))
    assert stats.psi_set == frozenset({2, 3})
    assert stats.max_psi == 3
    assert stats.witness_column == 1  # columns 1 and 2 tie; smallest wins
    assert stats.frankl_holds  # 2*3 >= 5


def test_psi_identity_counterexample():
    stats = psi(counterexample_identity(4))
    assert stats.psi_set == frozenset({1})
    assert stats.max_psi == 1
    assert not stats.frankl_holds  # 2*1 < 5


def test_psi_single_all_ones_row():
    stats = psi(parse_matrix("111\n"))
    assert stats.psi_set == frozenset({1})
    assert stats.frankl_holds


def test_psi_stats_internal_invariants():
    rng = random.Random(71)
    for _ in range(100):
        width = rng.randint(1, 7)
        n = rng.randint(1, min(12, 1 << width))
        m = random_distinct_matrix(rng, width, n)
        stats = psi(m)
        assert stats.max_psi == max(stats.psi_set)
        assert stats.frankl_holds == (2 * stats.max_psi >= n)
        assert stats.psi_set == {
            column_count_oracle(matrix_tuples(m), j) for j in range(1, width + 1)
        }


def test_psi_invariance_under_permutations():
    rng = random.Random(55)
    for _ in range(60):
        width = rng.randint(1, 6)
        n = rng.randint(1, min(10, 1 << width))
        m = random_distinct_matrix(rng, width, n)
        rp = list(range(n))
        cp = list(range(width))
        rng.shuffle(rp)
        rng.shuffle(cp)
        p = apply_permutations(m, tuple(rp), tuple(cp))
        assert psi(p).psi_set == psi(m).psi_set
        assert psi(p).max_psi == psi(m).max_psi


def test_counterexample_identity_small():
    assert row_texts(counterexample_identity(2)) == ["10", "01", "00"]
    m1 = counterexample_identity(1)
    assert row_texts(m1) == ["1", "0"]
    assert psi(m1).frankl_holds  # 2*1 >= 2; failure needs n > 1
    for n in range(2, 11):
        m = counterexample_identity(n)
        assert is_closed(m, ABJ) and is_closed(m, AND)
        stats = psi(m)
        assert stats.max_psi == 1
        assert not stats.frankl_holds
    with pytest.raises(ParameterOutOfRange):
        counterexample_identity(0)


def test_counterexamples_check_the_width_cap_before_building_rows():
    # The widest allowed builds; one column more is rejected before any
    # row exists, so n = 20000 (about 25 MB of rows) peaks well under 1 MB.
    assert counterexample_identity(64).width == 64
    assert counterexample_block(63, 1).width == 64
    for build, width in (
        (lambda: counterexample_identity(65), 65),
        (lambda: counterexample_block(64, 1), 65),
        (lambda: counterexample_identity(20000), 20000),
        (lambda: counterexample_block(20000, 1), 20001),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(WidthCapExceeded, match=f"^width {width} exceeds cap 64$"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (width, peak)


def test_counterexample_block_five_two_instance():
    m = counterexample_block(5, 2)
    assert row_texts(m) == [
        "110000",
        "101000",
        "000100",
        "000010",
        "000001",
        "100000",
        "000000",
    ]
    stats = psi(m)
    assert stats.max_psi == 3
    assert not stats.frankl_holds  # 2*3 < 7


def test_counterexample_block_smallest():
    m = counterexample_block(1, 1)
    assert set(row_texts(m)) == {"11", "10", "00"}
    assert psi(m).max_psi == 2


def test_counterexample_block_properties():
    for n in range(1, 9):
        for k in range(1, n + 1):
            m = counterexample_block(n, k)
            assert m.n_rows == n + 2 and m.width == n + 1
            assert is_closed(m, AND)
            assert closed_oracle(matrix_tuples(m), SEMANTICS["and"])
            assert psi(m).max_psi == k + 1
    with pytest.raises(ParameterOutOfRange):
        counterexample_block(5, 6)
    with pytest.raises(ParameterOutOfRange):
        counterexample_block(5, 0)
    with pytest.raises(ParameterOutOfRange):
        counterexample_block(0, 0)


def test_random_space():
    rng = random.Random(4242)
    for _ in range(30):
        width = rng.randint(2, 6)
        m = random_closure(width, IMP, 2, rng)
        assert m.width == width
        assert is_closed(m, IMP)
