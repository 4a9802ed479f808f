import random

import pytest

from closurelab import (
    ABJ,
    AND,
    IMP,
    THEOREMS,
    Basis,
    BinaryMatrix,
    closure,
    compute_basis,
    decompose,
    is_closed,
    parse_matrix,
    tilde_matrix,
)
from closurelab import basis
from closurelab.errors import (
    BasisVerificationFailed,
    ClosureLabError,
    NotDecomposable,
    PreconditionViolated,
)

from conftest import all_families, family_matrix, random_closure, removal_basis_oracle, row_texts

EXAMPLE1 = "0000\n1000\n1100\n0111\n1111\n"


def basis_strings(m):
    return [f"{v:0{m.width}b}" for v in compute_basis(m).vectors]


def test_simple_basis():
    assert basis_strings(parse_matrix("01\n10\n11\n")) == ["01", "10"]


def test_tilde_of_imp_closure_basis():
    t = tilde_matrix(closure(parse_matrix("10\n"), IMP))
    assert set(row_texts(t)) == {"01", "00"}
    assert basis_strings(t) == ["01"]


def test_identity_counterexample_basis():
    for n in (1, 3, 5):
        m = BinaryMatrix.from_values(n, [1 << (n - i) for i in range(1, n + 1)] + [0])
        assert basis_strings(m) == [format(1 << (n - i), f"0{n}b") for i in range(n, 0, -1)]


def test_preconditions():
    m = BinaryMatrix.from_values(3, [4, 2, 1, 0])
    assert is_closed(m, AND) and is_closed(m, ABJ)
    example = parse_matrix(EXAMPLE1)
    assert not (is_closed(example, AND) and is_closed(example, ABJ))
    rng = random.Random(3)
    for _ in range(30):
        space = random_closure(rng.randint(2, 6), IMP, 2, rng)
        assert THEOREMS["tilde_preconditions"].witness(space)


def test_compute_basis_example_matrix_fails():
    with pytest.raises(PreconditionViolated):
        compute_basis(parse_matrix(EXAMPLE1))


def test_basis_identical_under_both_removal_orders():
    rng = random.Random(1009)
    checked = 0
    for _ in range(200):
        space = random_closure(rng.randint(2, 6), IMP, rng.randint(1, 3), rng)
        t = tilde_matrix(space)
        b = compute_basis(t)
        assert b == removal_basis_oracle(t) == removal_basis_oracle(t, descending=True)
        checked += 1
    assert checked == 200


def test_basis_exhaustive_small_width():
    # Every AND/ABJ-closed family of width 3: the removal construction
    # in both orders agrees, the basis is orthogonal, and every row
    # decomposes back to itself.
    count = 0
    for values in all_families(3):
        m = family_matrix(3, values)
        if not (is_closed(m, AND) and is_closed(m, ABJ)):
            continue
        count += 1
        b = compute_basis(m)
        assert b == removal_basis_oracle(m) == removal_basis_oracle(m, descending=True)
        vals = b.vectors
        assert all(a & c == 0 for i, a in enumerate(vals) for c in vals[i + 1 :])
        for row in m.row_values:
            ored = 0
            for i in decompose(row, b):
                ored |= vals[i - 1]
            assert ored == row
    assert count > 10


def test_basis_matches_removal_oracle_on_every_small_family():
    # Every family of widths 1-4: the same basis as the removal
    # construction, or the same exception type when there is none.
    def outcome(fn, m):
        try:
            return fn(m)
        except ClosureLabError as exc:
            return type(exc)

    with_basis = 0
    families = 0
    for width in (1, 2, 3, 4):
        for values in all_families(width):
            m = family_matrix(width, values)
            got = outcome(compute_basis, m)
            assert got == outcome(removal_basis_oracle, m), (width, values)
            with_basis += isinstance(got, Basis)
            families += 1
    assert (with_basis, families) == (4632, 65808)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("01\n11\n", "row 11 does not decompose over the atoms inside it"),
        ("001\n011\n", "row 011 does not decompose over the atoms inside it"),
        ("0011\n0110\n", "atoms 0011 and 0110 overlap"),
    ],
)
def test_basis_failure_names_rows_at_matrix_width(text, reason):
    with pytest.raises(PreconditionViolated) as exc:
        compute_basis(parse_matrix(text))
    assert str(exc.value) == f"no basis: rows are not closed under both AND and ABJ ({reason})"


def test_basis_failure_with_the_preconditions_met_is_a_bug(monkeypatch):
    # With both closures reported present, a failed scan can only be a
    # bug in the construction: the branch that says so can be reached.
    monkeypatch.setattr(basis, "is_closed", lambda m, op: True)
    with pytest.raises(BasisVerificationFailed) as exc:
        compute_basis(parse_matrix("0011\n0110\n"))
    assert str(exc.value) == "atoms 0011 and 0110 overlap"


def test_decompose_examples():
    b = compute_basis(parse_matrix("01\n10\n11\n"))
    assert decompose(0b11, b) == (1, 2)
    assert decompose(0b00, b) == ()
    single = compute_basis(parse_matrix("01\n"))
    assert single == Basis(2, (0b01,))
    with pytest.raises(NotDecomposable, match="^row 10 is not"):
        decompose(0b10, single)
    # A row wider than the basis has a bit in no vector.
    with pytest.raises(NotDecomposable, match="^row 100 is not"):
        decompose(0b100, single)


def test_decompose_never_silently_wrong():
    rng = random.Random(2027)
    for _ in range(100):
        space = random_closure(rng.randint(2, 6), IMP, 2, rng)
        t = tilde_matrix(space)
        b = compute_basis(t)
        probe = rng.randrange(1 << t.width)
        try:
            d = decompose(probe, b)
        except NotDecomposable:
            continue
        assert d == tuple(sorted(d))
        ored = 0
        for i in d:
            ored |= b.vectors[i - 1]
        assert ored == probe


def test_tilde_closure_properties():
    two_rows = parse_matrix("10\n11\n")
    assert THEOREMS["tilde_preconditions"].witness(two_rows)
    rng = random.Random(5050)
    for _ in range(50):
        space = random_closure(rng.randint(2, 7), IMP, 2, rng)
        assert THEOREMS["tilde_preconditions"].witness(space)
    with pytest.raises(PreconditionViolated):
        THEOREMS["tilde_preconditions"].witness(parse_matrix(EXAMPLE1))
