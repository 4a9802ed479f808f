import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import (
    WIDTH_CAP,
    BinaryMatrix,
    SetFamily,
    column_sum,
    format_family,
    format_matrix,
    parse_any,
    parse_family,
    parse_matrix,
)
from closurelab.errors import (
    DuplicateRow,
    Empty,
    IndexOutOfRange,
    ParseError,
    WidthCapExceeded,
)
from closurelab import bitcore
from closurelab.bitcore import column_sums

from conftest import column_count_oracle, matrix_tuples, members, row_texts

EXAMPLE_FAM = "ground 4\n-\n1\n1 2\n2 3 4\n1 2 3 4\n"
EXAMPLE_ROWS = ["0000", "1000", "1100", "0111", "1111"]


def example_family():
    return parse_family(EXAMPLE_FAM)


def test_matrix_validates_packed_rows():
    for width, values in ((3, [8]), (3, [-1]), (0, [0]), (2, ["1"])):
        with pytest.raises(ValueError):
            BinaryMatrix.from_values(width, values)
    BinaryMatrix.from_values(WIDTH_CAP, [(1 << WIDTH_CAP) - 1])  # at the cap is fine
    with pytest.raises(WidthCapExceeded):
        BinaryMatrix.from_values(WIDTH_CAP + 1, [0])
    with pytest.raises(Empty):
        BinaryMatrix.from_values(3, [])
    with pytest.raises(DuplicateRow, match="^duplicate row 0101$"):
        BinaryMatrix.from_values(4, [5, 5])


def test_matrix_row_values_keep_input_order():
    m = BinaryMatrix.from_values(3, [6, 1, 4])
    assert m.row_values == (6, 1, 4)
    assert row_texts(m) == ["110", "001", "100"]


def test_family_is_a_matrix_but_not_equal_to_one():
    f = example_family()
    m = BinaryMatrix(f.width, f.row_values)
    assert isinstance(f, BinaryMatrix) and not isinstance(m, SetFamily)
    assert f.row_values == m.row_values
    assert f != m and m != f


def test_duplicate_rejection_random_multisets():
    rng = random.Random(20240)
    for _ in range(200):
        width = rng.randint(1, 6)
        n = rng.randint(1, min(8, 1 << width))
        values = rng.sample(range(1 << width), n)
        BinaryMatrix.from_values(width, values)  # distinct rows always construct
        dup_values = values + [values[rng.randrange(n)]]
        rng.shuffle(dup_values)
        with pytest.raises(DuplicateRow):
            BinaryMatrix.from_values(width, dup_values)


def test_example_family_to_matrix():
    f = example_family()
    m = BinaryMatrix(f.width, f.row_values)
    assert row_texts(m) == EXAMPLE_ROWS
    assert m.non_zero


def test_family_matrix_round_trips():
    rng = random.Random(7)
    for _ in range(100):
        width = rng.randint(1, 8)
        n = rng.randint(1, min(10, 1 << width))
        values = rng.sample(range(1 << width), n)
        m = BinaryMatrix.from_values(width, values)
        f = SetFamily(width, m.row_values)
        assert parse_family(format_family(f)) == f
        assert BinaryMatrix(f.width, f.row_values) == m


def test_singleton_families():
    m = parse_family("ground 1\n1\n")
    assert m.width == 1 and row_texts(m) == ["1"]
    m = parse_family("ground 2\n-\n")
    assert row_texts(m) == ["00"]
    assert not m.non_zero


def test_matrix_to_family_members():
    assert members(parse_matrix("000\n")) == (frozenset(),)
    eye = parse_matrix("100\n010\n001\n")
    assert members(eye) == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    )
    assert format_family(parse_matrix("000\n")) == "ground 3\n-\n"
    assert format_family(eye) == "ground 3\n1\n2\n3\n"


def test_family_validation():
    with pytest.raises(ValueError):
        SetFamily(3, (0b1000,))  # element 4 of a ground set of 3
    with pytest.raises(DuplicateRow):
        SetFamily(3, (0b100, 0b100))
    with pytest.raises(Empty):
        SetFamily(3, ())


def test_column_sum_example():
    f = example_family()
    m = BinaryMatrix(f.width, f.row_values)
    assert column_sum(m, 1) == 3
    assert column_sum(m, 1) == column_count_oracle(matrix_tuples(m), 1)
    assert [column_sum(m, j) for j in range(1, 5)] == [3, 3, 2, 2]


def test_column_sum_trivial_cases():
    zero_col = parse_matrix("10\n00\n")
    assert column_sum(zero_col, 2) == 0
    eye = parse_matrix("100\n010\n001\n")
    for j in (1, 2, 3):
        assert column_sum(eye, j) == 1
    with pytest.raises(IndexOutOfRange):
        column_sum(eye, 4)
    with pytest.raises(IndexOutOfRange):
        column_sum(eye, 0)


@st.composite
def matrices_up_to_width_16(draw):
    width = draw(st.integers(1, 16))
    values = draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=40, unique=True)
    )
    return BinaryMatrix.from_values(width, values)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(m=matrices_up_to_width_16())
def test_column_sum_matches_the_oracle_at_widths_1_to_16(m):
    # Widths up to 8 count by deleting bytes, wider ones by masking.
    tuples = matrix_tuples(m)
    for j in range(1, m.width + 1):
        assert column_sum(m, j) == column_count_oracle(tuples, j), j


def test_one_column_sum_matches_the_full_count_and_a_naive_count():
    # column_sum counts one column by itself: a lane integer's bit_count up
    # to width 8, a per-row bit test above it. Each width gets random rows,
    # a single row, and rows with a zero column and a full column.
    rng = random.Random(25)
    for width in range(1, 21):
        size = 1 << width
        families = [rng.sample(range(size), min(size, rng.randint(2, 300))) for _ in range(4)]
        families += [[rng.randrange(size)], [0], [size - 1]]
        if width > 1:
            # Column 1 all ones, column `width` all zeros.
            top = 1 << (width - 1)
            families.append(sorted({top | (rng.randrange(top) & ~1) for _ in range(40)}))
        full = zero = 0
        for values in families:
            m = BinaryMatrix.from_values(width, values)
            sums = column_sums(width, m.row_values)
            for j in range(1, width + 1):
                naive = sum(v >> (width - j) & 1 for v in values)
                assert column_sum(m, j) == sums[j - 1] == naive, (width, values, j)
                full += naive == len(values)
                zero += naive == 0
        assert full and zero, width


def test_column_sum_plus_zero_count_is_n():
    rng = random.Random(99)
    for _ in range(50):
        width = rng.randint(1, 7)
        n = rng.randint(1, min(12, 1 << width))
        m = BinaryMatrix.from_values(width, rng.sample(range(1 << width), n))
        tuples = matrix_tuples(m)
        for j in range(1, width + 1):
            ones = column_sum(m, j)
            zeros = sum(1 - r[j - 1] for r in tuples)
            assert ones + zeros == n


def test_bm_parse_format_round_trip():
    text = "# header comment\n\n0000\n1000\n# middle\n1100\n0111\n1111\n"
    m = parse_matrix(text, "ex1.bm")
    assert row_texts(m) == EXAMPLE_ROWS
    assert format_matrix(m) == "0000\n1000\n1100\n0111\n1111\n"
    assert parse_matrix(format_matrix(m)) == m


def test_bm_parse_errors_name_lines():
    with pytest.raises(ParseError) as exc:
        parse_matrix("01\n0x\n", "bad.bm")
    assert "bad.bm:2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_matrix("01\n011\n", "bad.bm")
    assert "bad.bm:2" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_matrix("01\n10\n01\n", "bad.bm")
    assert "bad.bm:3" in str(exc.value)
    with pytest.raises(ParseError):
        parse_matrix("# nothing\n", "bad.bm")


def test_fam_parse_format_round_trip():
    text = "# family\nground 4\n-\n1\n1 2\n2 3 4\n1 2 3 4\n"
    f = parse_family(text, "ex1.fam")
    assert f == example_family()
    assert format_family(f) == "ground 4\n-\n1\n1 2\n2 3 4\n1 2 3 4\n"
    assert parse_family(format_family(f)) == f


def test_fam_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse_family("ground x\n1\n", "bad.fam")
    assert "bad.fam:1" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_family("ground 3\n1 4\n", "bad.fam")
    assert "bad.fam:2" in str(exc.value)
    with pytest.raises(ParseError):
        parse_family("ground 3\n1 1\n", "bad.fam")
    with pytest.raises(ParseError):
        parse_family("ground 3\n1\n1\n", "bad.fam")
    with pytest.raises(ParseError):
        parse_family("1 2\n", "bad.fam")
    with pytest.raises(ParseError):
        parse_family("ground 3\n", "bad.fam")


@pytest.mark.parametrize(
    "text, message",
    [
        ("ground 12\n1_0\n", "2: element '1_0' is not an integer"),
        ("ground 3\n+2\n", "2: element '+2' is not an integer"),
        ("ground 3\n1 \u0663\n", "2: element '\u0663' is not an integer"),
        ("ground 3\n\uff12\n", "2: element '\uff12' is not an integer"),
        ("ground +3\n1\n", "1: ground size '+3' is not an integer"),
        ("ground 0_3\n1\n", "1: ground size '0_3' is not an integer"),
        ("ground 3\n-1\n", "2: element -1 outside [1, 3]"),
        ("ground 0\n1\n", "1: ground size must be positive, got 0"),
    ],
)
def test_fam_parse_takes_ascii_decimal_digits_only(text, message):
    with pytest.raises(ParseError) as exc:
        parse_family(text, "bad.fam")
    assert str(exc.value) == f"bad.fam:{message}"


def test_family_with_no_content_names_no_line():
    for text in ("", "# c\n\n"):
        with pytest.raises(ParseError) as exc:
            parse_family(text, "e.fam")
        assert str(exc.value) == "e.fam:0: no family content found"


def test_parse_any_detects_format():
    assert isinstance(parse_any("ground 2\n1\n"), SetFamily)
    assert isinstance(parse_any("# c\n10\n"), BinaryMatrix)


# --- bulk kernels against readable references --------------------------------


def test_column_sums_match_the_oracle_across_field_widths():
    # Row counts on each side of a counter-field boundary (255 | 256, and
    # 1 | 2 | 3); rows may repeat, which column_sums must count as given.
    rng = random.Random(1010)
    for width in (1, 7, 8, 9, 16, 17, 64):
        for n in (1, 2, 3, 255, 256, 257):
            full = (1 << width) - 1
            for values in ([rng.getrandbits(width) for _ in range(n)], [full] * n):
                tuples = [tuple(map(int, format(v, f"0{width}b"))) for v in values]
                expected = [column_count_oracle(tuples, j) for j in range(1, width + 1)]
                assert column_sums(width, values) == expected, (width, n)


@st.composite
def rows_up_to_width_64(draw):
    """A width in [1, 64] and 0-300 rows of it, repeats allowed."""
    width = draw(st.integers(1, WIDTH_CAP))
    values = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=300))
    return width, values


def column_sums_oracle(width, values):
    tuples = [tuple(map(int, format(v, f"0{width}b"))) for v in values]
    return [column_count_oracle(tuples, j) for j in range(1, width + 1)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=rows_up_to_width_64())
def test_column_sums_match_the_oracle_at_widths_1_to_64(case):
    # Up to width 8 the rows are the lane integer; wider rows give one per
    # byte offset, the last one holding fewer than eight columns.
    width, values = case
    assert column_sums(width, values) == column_sums_oracle(width, values)


@pytest.mark.parametrize("width", [1, 8, 9, 64])
def test_column_sums_of_no_rows_are_zero(width):
    assert column_sums(width, []) == [0] * width
    assert column_sums(width, ()) == [0] * width


def test_column_sums_of_a_large_width_16_matrix():
    # The shape of the large file the psi and convert verbs read.
    values = random.Random(16).sample(range(1 << 16), 20000)
    assert column_sums(16, values) == column_sums_oracle(16, values)


def _reference_parse_matrix(text, source="<input>"):
    """The one-line-at-a-time ".bm" parser that parse_matrix replaces.
    Lines end at "\n", "\r\n" or "\r" alone, as in the ".bm" format."""
    seen = {}
    width = None
    lines = re.split(r"\r\n|\r|\n", text)
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if set(line) - {"0", "1"}:
            raise ParseError(source, lineno, f"invalid row character in {line!r}")
        if width is None:
            width = len(line)
            if width > WIDTH_CAP:
                raise ParseError(source, lineno, f"row width {width} exceeds cap {WIDTH_CAP}")
        elif len(line) != width:
            raise ParseError(
                source, lineno, f"row width {len(line)} differs from first row width {width}"
            )
        value = int(line, 2)
        if value in seen:
            raise ParseError(source, lineno, f"duplicate row {line} (first at line {seen[value]})")
        seen[value] = lineno
    if not seen:
        raise ParseError(source, 0, "no matrix rows found")
    return BinaryMatrix(width, tuple(seen))


def _outcome(parse, text):
    try:
        m = parse(text, "case.bm")
    except Exception as exc:  # the type and the message are the outcome
        return type(exc), str(exc)
    return m.width, m.row_values


_BAD_ROWS = ("0b{}", "1_0", "+1", "-1", "١", "{}x", "0 1", "١{}", "{} {}")


def _corrupt(rng, lines):
    """One seeded corruption (or harmless rewrite) of a valid row list."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    row = lines[i]
    kind = rng.randrange(10)
    if kind == 0:
        lines[i] = rng.choice(_BAD_ROWS).format(row[: len(row) // 2], row[len(row) // 2 :])
    elif kind == 1:
        lines[i] = row[:-1] if len(row) > 1 else row + "0"
    elif kind == 2:
        lines[i] = row + rng.choice("01")
    elif kind == 3:
        lines[rng.choice((0, i))] = "1" * 65
    elif kind == 4:
        lines.insert(rng.randrange(i, len(lines)) + 1, row)
    elif kind == 5:
        lines.insert(i, rng.choice(("# comment", "#", "  # indented", "")))
    elif kind == 6:
        lines[i] = rng.choice(("\t", " ", "\t ")) + row + rng.choice(("\t", " ", ""))
    elif kind == 7:
        return "\r\n".join(lines) + rng.choice(("\r\n", ""))
    elif kind == 8:
        lines = [rng.choice(("# only comments", "", "  "))]
    else:
        lines[i] = row.replace("1", rng.choice(("١", "2", "I")), 1)
    return "\n".join(lines) + "\n"


_ERROR_KINDS = (
    "invalid row character",
    "exceeds cap",
    "differs from first row width",
    "duplicate row",
    "no matrix rows",
)


def test_parse_matrix_matches_the_per_line_reference_on_corruptions():
    rng = random.Random(2024)
    outcomes = set()
    for case in range(600):
        width = rng.choice((1, 2, 3, 5, 8, 13, 16, 64))
        values = {rng.getrandbits(width) for _ in range(rng.randint(1, 20))}
        text = _corrupt(rng, [format(v, f"0{width}b") for v in values])
        new, ref = _outcome(parse_matrix, text), _outcome(_reference_parse_matrix, text)
        assert new == ref, (case, text)
        if ref[0] is ParseError:
            outcomes.add(next(kind for kind in _ERROR_KINDS if kind in ref[1]))
        else:
            outcomes.add("parsed")
    assert outcomes == {"parsed", *_ERROR_KINDS}


@pytest.mark.parametrize(
    "text",
    [
        "0b01\n",
        "01\n0b1\n",
        "10\n1_0\n",
        "1\n+1\n",
        "1\n-1\n",
        "١\n",
        "10\n1١\n",
        "01\n011\n",
        "0" * 65 + "\n",
        "01\n" + "1" * 65 + "\n",
        "01\n10\n# c\n\n01\n",
        "011\n110\n011\n110\n",
        "\t01\t\n# x\n10\r\n\r\n  11\n",
        "01\r\n10\r\n",
        "",
        "\n\n",
        "# nothing\n  # here\n",
        "01\x0b10\n",
        "01\x0c10\n",
        "01\x8510\n",
        "01\r10\r",
        "01\r\n10\r11\n",
        "01 10\n",
    ],
)
def test_parse_matrix_named_corruptions(text):
    assert _outcome(parse_matrix, text) == _outcome(_reference_parse_matrix, text)


def _distinct_rows(rng, width, n):
    """n distinct row values in random order (fewer if the width has
    fewer), 0 among them, and all-ones too when n > 1."""
    full = (1 << width) - 1
    values = [0, full]
    seen = set(values)
    while len(values) < min(n, full + 1):
        v = rng.getrandbits(width)
        if v not in seen:
            seen.add(v)
            values.append(v)
    values = values[:n]
    rng.shuffle(values)
    return values


def test_parse_matrix_bulk_matches_reference_at_every_width():
    # Every row size the bulk decoder pads to (1, 2, 4 and 8 bytes) and
    # both sides of each edge: widths 8 | 9, 16 | 17, 32 | 33 and 64.
    rng = random.Random(1414)
    for width in range(1, WIDTH_CAP + 1):
        for n in (1, 2, 40):
            values = _distinct_rows(rng, width, n)
            body = "\n".join(format(v, f"0{width}b") for v in values)
            for text in (body + "\n", body):
                expected = _outcome(_reference_parse_matrix, text)
                assert expected == (width, tuple(values))
                assert _outcome(parse_matrix, text) == expected, (width, n, text)


def test_clean_text_never_reaches_the_per_line_parser(monkeypatch):
    def per_line(text, source):
        raise AssertionError("clean text went to the per-line parser")

    monkeypatch.setattr(bitcore, "_parse_matrix_lines", per_line)
    rng = random.Random(1415)
    for width in range(1, WIDTH_CAP + 1):
        values = _distinct_rows(rng, width, 5)
        text = "".join(f"{v:0{width}b}\n" for v in values)
        assert parse_matrix(text) == BinaryMatrix(width, tuple(values))
    monkeypatch.undo()
    # Clean-looking text that fails a bulk check still gets the per-line
    # parser's outcome: a repeated row, ragged lines (one with as many
    # newlines as rows of the first width would have, three with every
    # (width + 1)-th character a newline), a row over the cap, and blank
    # lines, which the per-line parser skips.
    errors = (
        "01\n10\n01\n",
        "011\n110\n01\n",
        "01\n1\n011\n",
        "01100110\n1\n010110\n",
        "011\n1\n0\n",
        "10\n1\n\n",
        "10\n" + "1" * 65 + "\n",
        "1" * 65 + "\n",
    )
    for text in errors + ("10\n\n\n\n\n\n", "1\n\n0\n\n"):
        outcome = _outcome(parse_matrix, text)
        assert outcome == _outcome(_reference_parse_matrix, text), text
        assert (outcome[0] is ParseError) == (text in errors), text


@pytest.mark.parametrize("width", [8, 9, 33, 64])
def test_parsed_matrix_is_interchangeable_with_a_built_one(width):
    values = tuple(_distinct_rows(random.Random(width), width, 20))
    parsed = parse_matrix("".join(f"{v:0{width}b}\n" for v in values))
    built = BinaryMatrix(width, values)
    assert type(parsed) is BinaryMatrix
    assert parsed == built and hash(parsed) == hash(built)
    restored = pickle.loads(pickle.dumps(parsed))
    assert restored == built and hash(restored) == hash(built)
    # The public constructor keeps every check the parser does not need.
    with pytest.raises(ValueError, match="out of range"):
        BinaryMatrix(width, values + (1 << width,))
    with pytest.raises(ValueError, match="out of range"):
        BinaryMatrix(width, (float(values[0]),))
    with pytest.raises(DuplicateRow):
        BinaryMatrix(width, values + values[:1])


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64])
def test_format_matrix_matches_the_row_string_reference(width):
    rng = random.Random(width)
    for n in (1, 2, 40):
        m = BinaryMatrix(width, tuple(_distinct_rows(rng, width, n)))
        text = format_matrix(m)
        assert text == "".join(format(v, f"0{width}b") + "\n" for v in m.row_values)
        assert parse_matrix(text) == m


def _reference_format_family(m):
    out = [f"ground {m.width}\n"]
    for v in m.row_values:
        members = [j for j in range(1, m.width + 1) if (v >> (m.width - j)) & 1]
        out.append(" ".join(map(str, members)) + "\n" if v else "-\n")
    return "".join(out)


@pytest.mark.parametrize("width", [1, 7, 9, 15, 17, 63, 64])
def test_format_family_matches_the_element_reference(width):
    rng = random.Random(width)
    full = (1 << width) - 1
    extremes = [0, full, 1, 1 << (width - 1)]
    for n in (1, 2, 5, 40):
        values = list(dict.fromkeys(extremes + [rng.getrandbits(width) for _ in range(n)]))
        rng.shuffle(values)
        for m in (BinaryMatrix(width, tuple(values)), BinaryMatrix(width, tuple(values[:n]))):
            text = format_family(m)
            assert text == _reference_format_family(m)
            assert parse_family(text) == SetFamily(width, m.row_values)
    assert format_family(BinaryMatrix(width, (0,))) == f"ground {width}\n-\n"
