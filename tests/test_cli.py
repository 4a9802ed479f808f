import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import closurelab
import closurelab.cli as cli_module
from closurelab import parse_family, parse_matrix, witnesses
from closurelab.cli import cli
from closurelab.errors import ParameterOutOfRange, PreconditionViolated

EXAMPLE1_BM = "0000\n1000\n1100\n0111\n1111\n"
EXAMPLE1_FAM = "ground 4\n-\n1\n1 2\n2 3 4\n1 2 3 4\n"


def invoke(*args, stdin=None):
    return CliRunner().invoke(cli, list(args), input=stdin)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_psi_example_json(tmp_path):
    path = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    result = invoke("psi", path)
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["psi"] == [2, 3]
    assert data["max"] == 3
    assert data["frankl"] is True
    assert data["witness_column"] == 1


def test_psi_text_format(tmp_path):
    path = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    result = invoke("psi", path, "--format", "text")
    assert result.exit_code == 0
    assert "psi: 2 3" in result.output
    assert "frankl: true" in result.output


def test_psi_accepts_family_input(tmp_path):
    path = write(tmp_path, "ex1.fam", EXAMPLE1_FAM)
    data = json.loads(invoke("psi", path).output)
    assert data["psi"] == [2, 3]


def test_psi_from_stdin():
    result = invoke("psi", "-", stdin=EXAMPLE1_BM)
    assert result.exit_code == 0
    assert json.loads(result.output)["max"] == 3


def test_counterexample_identity_then_psi(tmp_path):
    result = invoke("counterexample", "identity", "--n", "5", "--format", "text")
    assert result.exit_code == 0
    path = write(tmp_path, "id5.bm", result.output)
    data = json.loads(invoke("psi", path).output)
    assert data["max"] == 1
    assert data["frankl"] is False


def test_counterexample_block_five_two_rows():
    result = invoke("counterexample", "block", "--n", "5", "--k", "2", "--format", "text")
    assert result.output.splitlines() == [
        "110000",
        "101000",
        "000100",
        "000010",
        "000001",
        "100000",
        "000000",
    ]
    bad = invoke("counterexample", "block", "--n", "5", "--k", "6")
    assert bad.exit_code == 2


def test_counterexample_over_cap_width_exits_2_before_building_rows():
    # A million rows of a million bits would need tens of GB; the width
    # is checked first.
    for args, width in (
        (["identity", "--n", "1000000"], 1000000),
        (["block", "--n", "1000000", "--k", "1"], 1000001),
    ):
        result = invoke("counterexample", *args)
        assert (result.exit_code, result.stderr, result.stdout) == (
            2, f"error: width {width} exceeds cap 64\n", ""
        )


def test_check_closure_exit_codes(tmp_path):
    path = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    ok = invoke("check-closure", path, "--op", "or")
    assert ok.exit_code == 0 and json.loads(ok.output)["closed"] is True
    bad = invoke("check-closure", path, "--op", "and")
    assert bad.exit_code == 1 and json.loads(bad.output)["closed"] is False
    everything = invoke("check-closure", path)
    assert everything.exit_code == 0
    status = json.loads(everything.output)["closed_under"]
    assert status["or"] is True and status["and"] is False and len(status) == 17


def test_check_closure_all_ops_matches_each_op(tmp_path):
    # The all-operator report reads one closure mask; each entry must
    # still say what the single-operator check says, in the same order.
    names = ["tt:0", "nor", "cabj", "tt:3", "abj", "tt:5", "xor", "nand", "and", "xnor",
             "tt:10", "imp", "tt:12", "cimp", "or", "tt:15", "not"]
    for code in range(1, 1 << 4):
        rows = "".join(f"{r:02b}\n" for r in range(4) if code >> r & 1)
        path = write(tmp_path, f"f{code}.bm", rows)
        status = json.loads(invoke("check-closure", path).output)["closed_under"]
        text = invoke("check-closure", path, "--format", "text").output
        assert text == "".join(
            f"{name}: {'closed' if status[name] else 'not closed'}\n" for name in names
        )
        for name in names:
            single = invoke("check-closure", path, "--op", name)
            assert json.loads(single.output)["closed"] is status[name], (rows, name)


def test_check_closure_unknown_op(tmp_path):
    path = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    assert invoke("check-closure", path, "--op", "frobnicate").exit_code == 2


def test_close_verb(tmp_path):
    path = write(tmp_path, "gen.bm", "10\n01\n")
    result = invoke("close", path, "--op", "or", "--format", "text")
    assert result.output == "10\n01\n11\n"
    data = json.loads(invoke("close", path, "--op", "or").output)
    assert data["rows"] == ["10", "01", "11"]


def test_canon_verb(tmp_path):
    a = write(tmp_path, "a.bm", "10\n01\n")
    b = write(tmp_path, "b.bm", "01\n10\n")
    out_a = invoke("canon", a, "--format", "text").output
    out_b = invoke("canon", b, "--format", "text").output
    assert out_a == out_b
    data = json.loads(invoke("canon", a).output)
    assert set(data) == {"width", "rows", "row_perm", "col_perm"}


def test_basis_verb(tmp_path):
    path = write(tmp_path, "b.bm", "01\n10\n11\n")
    data = json.loads(invoke("basis", path).output)
    assert data["vectors"] == ["01", "10"]
    by_row = {entry["row"]: entry["indices"] for entry in data["rows"]}
    assert by_row["11"] == [1, 2]
    failing = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    result = invoke("basis", failing)
    assert result.exit_code == 1


def test_witness_imp(tmp_path):
    path = write(tmp_path, "m.bm", "10\n11\n")
    data = json.loads(invoke("witness", "imp", path).output)
    assert data == {
        "column_or_element": 2,
        "n": 2,
        "ones": 1,
        "operator": "imp",
        "verified": True,
    }


def test_witness_imp_precondition_exit(tmp_path):
    path = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    result = invoke("witness", "imp", path)
    assert result.exit_code == 1
    assert "material conditional" in result.output


def test_witness_other_operators(tmp_path):
    not_path = write(tmp_path, "n.bm", "01\n10\n")
    assert json.loads(invoke("witness", "not", not_path).output)["ones"] == 1
    nand_path = write(tmp_path, "s.bm", "01\n10\n11\n00\n")
    assert json.loads(invoke("witness", "nand", nand_path).output)["ones"] == 2
    assert json.loads(invoke("witness", "nor", nand_path).output)["ones"] == 2
    xor_path = write(tmp_path, "x.bm", "000\n110\n011\n101\n")
    assert json.loads(invoke("witness", "xor", xor_path).output)["ones"] == 2
    xnor_path = write(tmp_path, "xn.bm", "111\n")
    assert json.loads(invoke("witness", "xnor", xnor_path).output)["n"] == 1


def test_witness_topology(tmp_path):
    path = write(tmp_path, "t.fam", "ground 2\n-\n1\n1 2\n")
    data = json.loads(invoke("witness", "topology", path).output)
    assert data["column_or_element"] == 1
    assert data["ones"] == 2 and data["n"] == 3
    # {1}, {2}, {1,2} is not AND-closed, but the witness demands only
    # nonempty intersections.
    path = write(tmp_path, "u.fam", "ground 2\n1\n2\n1 2\n")
    result = invoke("witness", "topology", path)
    assert result.exit_code == 0
    assert json.loads(result.output)["column_or_element"] == 1


def test_witness_verbs_in_usage_order(tmp_path):
    path = write(tmp_path, "n.bm", "01\n10\n")
    result = invoke("witness", "nope", path)
    assert result.exit_code == 2
    assert "'not', 'nand', 'nor', 'xor', 'xnor', 'imp', 'topology'" in result.output


def test_convert_round_trip(tmp_path):
    rng = random.Random(404)
    width = 5
    values = rng.sample(range(1 << width), 6)
    bm_text = "".join(format(v, f"0{width}b") + "\n" for v in values)
    bm = write(tmp_path, "m.bm", bm_text)
    fam_text = invoke("convert", bm).output
    assert fam_text.startswith("ground 5\n")
    fam = write(tmp_path, "m.fam", fam_text)
    back = invoke("convert", fam).output
    assert back == bm_text
    assert parse_family(fam_text) is not None
    # family -> matrix -> family is the identity on .fam files
    ex_fam = write(tmp_path, "ex1.fam", EXAMPLE1_FAM)
    as_bm = invoke("convert", ex_fam).output
    assert invoke("convert", "-", stdin=as_bm).output == EXAMPLE1_FAM


def test_convert_explicit_target(tmp_path):
    path = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    assert invoke("convert", path, "--to", "bm").output == EXAMPLE1_BM
    path = write(tmp_path, "ex1.fam", EXAMPLE1_FAM)
    assert invoke("convert", path, "--to", "fam").output == EXAMPLE1_FAM


#: name -> (.bm text, the same rows as .fam text)
TWINS = {
    "ex1": (EXAMPLE1_BM, EXAMPLE1_FAM),
    "basis": ("01\n10\n11\n", "ground 2\n2\n1\n1 2\n"),
    "imp": ("10\n11\n", "ground 2\n1\n1 2\n"),
    "topology": ("00\n10\n11\n", "ground 2\n-\n1\n1 2\n"),
    "no_union": ("100\n010\n", "ground 3\n1\n2\n"),
}
TWIN_VERBS = [
    ["check-closure"],
    ["check-closure", "--format", "text"],
    ["close", "--op", "or"],
    ["canon"],
    ["basis"],
    ["witness", "imp"],
    ["witness", "topology"],
]


def test_family_and_matrix_inputs_give_the_same_output(tmp_path):
    exit_codes = set()
    for name, (bm_text, fam_text) in TWINS.items():
        bm = write(tmp_path, f"{name}.bm", bm_text)
        fam = write(tmp_path, f"{name}.fam", fam_text)
        assert invoke("convert", fam).output == bm_text
        for verb in TWIN_VERBS:
            from_bm, from_fam = invoke(*verb, bm), invoke(*verb, fam)
            assert (from_fam.exit_code, from_fam.output) == (from_bm.exit_code, from_bm.output), (
                name, verb)
            exit_codes.add(from_bm.exit_code)
    assert exit_codes == {0, 1}
    for name in ("no_union.bm", "no_union.fam"):
        result = invoke("witness", "topology", str(tmp_path / name))
        assert (result.exit_code, result.output) == (1, "error: family is not closed under union\n")


def test_campaign_cli():
    result = invoke("campaign", "--width", "2")
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["families"] == 15
    assert data["frankl"]["failures"] == 0
    missing_seed = invoke("campaign", "--width", "2", "--mode", "random")
    assert missing_seed.exit_code == 2
    seeded = invoke(
        "campaign", "--width", "3", "--mode", "random", "--seed", "5", "--samples", "10"
    )
    assert seeded.exit_code == 0
    assert json.loads(seeded.output)["families"] == 10


def test_parse_error_exit_and_line(tmp_path):
    path = write(tmp_path, "bad.bm", "01\n0x1\n")
    result = invoke("psi", path)
    assert result.exit_code == 2
    assert "bad.bm:2" in result.output


def test_clean_looking_bad_matrix_exit_and_line(tmp_path):
    # Text of '0', '1' and newlines alone that is still no matrix.
    cases = {
        "repeat.bm": ("01\n10\n11\n10\n", "4: duplicate row 10 (first at line 2)"),
        "short.bm": ("011\n110\n01\n111\n", "3: row width 2 differs from first row width 3"),
        "wide.bm": ("01\n" + "1" * 65 + "\n", "2: row width 65 differs from first row width 2"),
        "over_cap.bm": ("1" * 65 + "\n", "1: row width 65 exceeds cap 64"),
    }
    for name, (text, message) in cases.items():
        path = write(tmp_path, name, text)
        result = invoke("psi", path)
        assert result.exit_code == 2
        assert result.output == f"error: {path}:{message}\n"


def test_non_decimal_family_element_exit_and_line(tmp_path):
    path = write(tmp_path, "bad.fam", "ground 12\n1_0\n")
    result = invoke("psi", path)
    assert result.exit_code == 2
    assert result.output == f"error: {path}:2: element '1_0' is not an integer\n"


def test_only_newline_cr_and_crlf_end_a_line(tmp_path):
    # A form feed is not a line break: the row holding it is bad on its
    # own line, and a later line keeps its own number.
    for name, text, message in (
        ("ff.bm", "01\f10\n", "1: invalid row character in '01\\x0c10'"),
        ("ff.fam", "ground 3\n1\f2\n4\n", "3: element 4 outside [1, 3]"),
    ):
        path = write(tmp_path, name, text)
        result = invoke("psi", path)
        assert (result.exit_code, result.output) == (2, f"error: {path}:{message}\n")
    for name, text in (("crlf.bm", "01\r\n10\r\n"), ("cr.bm", "01\r10\r"), ("mixed.bm", "01\r\n10\r11\n")):
        path = tmp_path / name
        path.write_bytes(text.encode())
        result = invoke("convert", str(path), "--to", "bm")
        assert result.exit_code == 0, name
        assert result.output == text.replace("\r\n", "\n").replace("\r", "\n"), name


def test_check_closure_one_op_as_text(tmp_path):
    path = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    closed = invoke("check-closure", path, "--op", "or", "--format", "text")
    assert (closed.exit_code, closed.output) == (0, "or: closed\n")
    not_closed = invoke("check-closure", path, "--op", "xor", "--format", "text")
    assert (not_closed.exit_code, not_closed.output) == (1, "xor: not closed\n")


def test_witness_as_text(tmp_path):
    path = write(tmp_path, "m.bm", "10\n11\n")
    result = invoke("witness", "imp", path, "--format", "text")
    assert result.exit_code == 0
    assert result.output == (
        "column_or_element: 2\nn: 2\nones: 1\noperator: imp\nverified: True\n"
    )


def test_ground_in_a_comment_alone_reads_as_a_matrix(tmp_path):
    path = write(tmp_path, "c.bm", "# ground rules\n01\n10\n")
    result = invoke("convert", path)
    assert (result.exit_code, result.output) == (0, "ground 2\n2\n1\n")


def test_ground_over_the_width_cap_exits_2(tmp_path):
    path = write(tmp_path, "g65.fam", "ground 65\n1\n")
    result = invoke("psi", path)
    assert (result.exit_code, result.output) == (2, f"error: {path}:1: ground size 65 exceeds cap 64\n")


def test_campaign_without_generators_exits_2():
    result = invoke("campaign", "--width", "2", "--mode", "random", "--seed", "1", "--generators", "0")
    assert (result.exit_code, result.output) == (2, "error: generator_count must be >= 1\n")


# Each verb, its arguments ("INPUT" is a .bm file) and the name in the
# cli module of the function it calls.
_VERB_CALLS = {
    "check-closure": (["check-closure", "INPUT", "--op", "and"], "is_closed"),
    "close": (["close", "INPUT", "--op", "or"], "closure"),
    "psi": (["psi", "INPUT"], "psi"),
    "canon": (["canon", "INPUT"], "canonicalize"),
    "basis": (["basis", "INPUT"], "compute_basis"),
    "witness": (["witness", "imp", "INPUT"], "_WITNESSES"),
    "identity": (["counterexample", "identity", "--n", "3"], "counterexample_identity"),
    "block": (["counterexample", "block", "--n", "5", "--k", "2"], "counterexample_block"),
    "campaign": (["campaign", "--width", "2"], "run_campaign"),
    "convert": (["convert", "INPUT"], "format_family"),
}


@pytest.mark.parametrize("verb", _VERB_CALLS)
@pytest.mark.parametrize(
    "error, code", [(PreconditionViolated("x"), 1), (ParameterOutOfRange("y"), 2)]
)
def test_every_verb_maps_package_errors_to_exit_codes(tmp_path, monkeypatch, verb, error, code):
    # A failed precondition exits 1, any other package error exits 2, in
    # every verb: one "error:" line on stderr and nothing on stdout.
    def fail(*args, **kwargs):
        raise error

    args, target = _VERB_CALLS[verb]
    if target == "_WITNESSES":
        monkeypatch.setitem(cli_module._WITNESSES, "imp", fail)
    else:
        monkeypatch.setattr(cli_module, target, fail)
    path = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    result = invoke(*(path if arg == "INPUT" else arg for arg in args))
    assert (result.exit_code, result.stderr, result.stdout) == (code, f"error: {error}\n", "")


def test_missing_file_exit():
    assert invoke("psi", "/nonexistent/nowhere.bm").exit_code == 2


def test_non_utf8_input_exits_2(tmp_path):
    path = tmp_path / "bad.bm"
    path.write_bytes(b"\xff01\n")
    for source, args, stdin in ((str(path), [str(path)], None), ("<stdin>", ["-"], b"\xff01\n")):
        result = invoke("psi", *args, stdin=stdin)
        assert result.exit_code == 2
        assert result.output.startswith(f"error: {source}: 'utf-8' codec can't decode byte 0xff")


def test_non_utf8_stdin_pipe_exits_2_like_a_file(tmp_path):
    # A real pipe: the interpreter's own stdin decodes with surrogateescape
    # in UTF-8 mode, unlike CliRunner's strict one.
    path = tmp_path / "bad.bm"
    path.write_bytes(b"\xff01\n10\n")
    env = {**os.environ, "PYTHONPATH": str(Path(closurelab.__file__).parents[1])}
    decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    for source, arg in ((str(path), str(path)), ("<stdin>", "-")):
        with path.open("rb") as stdin:
            done = subprocess.run(
                [sys.executable, "-X", "utf8", "-m", "closurelab.cli", "witness", "topology", arg],
                stdin=stdin, capture_output=True, env=env, timeout=60,
            )
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.decode() == f"error: {source}: {decode}\n"


def test_output_to_file(tmp_path):
    src = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    dest = tmp_path / "out.json"
    result = invoke("psi", src, "--output", str(dest))
    assert result.exit_code == 0 and result.output == ""
    assert json.loads(dest.read_text())["max"] == 3
    bm_dest = tmp_path / "canon.bm"
    invoke("canon", src, "--format", "text", "--output", str(bm_dest))
    parse_matrix(bm_dest.read_text())


def test_io_errors_exit_2_with_the_system_message(tmp_path):
    # A missing input and an --output under a regular file: one "error:"
    # line with the OSError's own text on stderr, nothing on stdout.
    src = write(tmp_path, "ex1.bm", EXAMPLE1_BM)
    blocked = tmp_path / "ex1.bm" / "out.json"
    for args, message in (
        (["psi", "/nonexistent/nowhere.bm"], "[Errno 2] No such file or directory: '/nonexistent/nowhere.bm'"),
        (["psi", src, "--output", str(blocked)], f"[Errno 20] Not a directory: '{blocked}'"),
    ):
        result = invoke(*args)
        assert (result.exit_code, result.stderr, result.stdout) == (2, f"error: {message}\n", "")


def test_unwritable_reproducer_exits_2(tmp_path, monkeypatch):
    # A failed check whose reproducer cannot be written: the dump
    # directory lies under a regular file, so making it fails.
    monkeypatch.setattr(witnesses, "_count_flip_consistent", lambda width, values: False)
    dump_dir = Path(write(tmp_path, "file", "")) / "dumps"
    monkeypatch.setenv("CLOSURELAB_DUMP_DIR", str(dump_dir))
    result = invoke("campaign", "--width", "1")
    message = f"error: [Errno 20] Not a directory: '{dump_dir}'\n"
    assert (result.exit_code, result.stderr, result.stdout) == (2, message, "")


def test_closed_stdout_exits_1_quietly():
    # A broken pipe is not mapped with the other I/O errors: click's own
    # handler exits 1 without a message.
    env = {**os.environ, "PYTHONPATH": str(Path(closurelab.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "closurelab.cli", "counterexample", "identity", "--n", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (1, b"")


ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def load_oracle():
    # The benchmark's reference outputs, computed without closurelab.
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_oracle()

#: --op values of check-closure: the named operators, negation and all
#: sixteen truth tables, the six that ignore an argument among them.
CHECK_OPS = (*oracle.TABLES, "not", *(f"tt:{t}" for t in range(16)))
#: --op values of close, where negation is tt:3.
CLOSE_OPS = (*oracle.TABLES, *(f"tt:{t}" for t in range(16)))
WITNESS_OPS = ("not", "nand", "nor", "xor", "xnor", "imp", "topology")
#: The operators a witness's input is closed under, where they are not
#: the witness's own name.
WITNESS_CLOSURES = {"not": ("tt:3",), "topology": ("and", "or")}


def small_closure(rng, width, ops, limit=24):
    """A non-zero row set of at most limit rows closed under every op,
    from one to three random generators, in random order."""
    while True:
        gens = rng.sample(range(1 << width), rng.randint(1, min(3, 1 << width)))
        rows = oracle.close_under_all(gens, width, ops, limit)
        if len(rows) <= limit and any(rows):
            rng.shuffle(rows)
            return rows


@pytest.mark.parametrize("width", range(1, 11))
def test_verbs_match_the_independent_oracle(tmp_path, width):
    # Stdout bytes and exit codes of every data verb against the oracle,
    # on seeded inputs: widths up to 8 take the byte kernels, 9 and 10
    # the wide ones.
    rng = random.Random(width)
    numbers = itertools.count()
    cases = []  # (args, stdout bytes, exit code)

    def write(rows, fam=False):
        path = tmp_path / f"in{next(numbers)}.{'fam' if fam else 'bm'}"
        path.write_text(oracle.format_fam(rows, width) if fam else oracle.format_bm(rows, width))
        return str(path)

    for _ in range(20):
        rows = rng.sample(range(1 << width), rng.randint(1, min(12, 1 << width)))
        path = write(rows)
        op = rng.choice(CHECK_OPS)
        out, code = oracle.check_op_out(rows, width, op)
        cases += [
            (["psi", path], oracle.psi_out(rows, width), 0),
            (["check-closure", path], oracle.check_all_out(rows, width), 0),
            (["check-closure", path, "--op", op], out, code),
            (["convert", path], oracle.format_fam(rows, width).encode(), 0),
            (["convert", write(rows, fam=True)], oracle.format_bm(rows, width).encode(), 0),
        ]
        fmt = rng.choice(("json", "text"))
        if width <= 6:
            cases.append((["canon", path, "--format", fmt], oracle.canon_out(rows, width, fmt), 0))
        op = rng.choice(CLOSE_OPS)
        gens = rows[: rng.randint(1, 3)]
        while len(oracle.closure(gens, width, op, 64)) > 64:
            gens = gens[:-1]
        cases.append(
            (["close", write(gens), "--op", op, "--format", fmt],
             oracle.close_out(gens, width, op, fmt), 0)
        )

    for op in WITNESS_OPS * 3:
        rows = small_closure(rng, width, WITNESS_CLOSURES.get(op, (op,)))
        path = write(rows, fam=op == "topology")
        cases += [
            (["witness", op, path], oracle.witness_out(rows, width, op), 0),
            (["check-closure", path], oracle.check_all_out(rows, width), 0),
        ]
    for _ in range(3):
        rows = small_closure(rng, width, ("and", "abj"))
        path = write(rows)
        vectors = oracle.basis(rows)
        text = [f"vector {i}: {oracle.row_text(v, width)}" for i, v in enumerate(vectors, 1)]
        for r in rows:
            indices = [str(i) for i, v in enumerate(vectors, 1) if v & r == v]
            text.append(f"row {oracle.row_text(r, width)}: {' '.join(indices) or '-'}")
        cases += [
            (["basis", path], oracle.basis_out(rows, width), 0),
            (["basis", path, "--format", "text"], "".join(f"{t}\n" for t in text).encode(), 0),
        ]
    if width >= 3:
        # Two overlapping rows, neither inside the other: no basis.
        shared, only_a, only_b = (1 << k for k in rng.sample(range(width), 3))
        cases.append((["basis", write([shared | only_a, shared | only_b])], b"", 1))

    runner = CliRunner()
    for args, stdout, code in cases:
        result = runner.invoke(cli, args)
        assert (result.stdout_bytes, result.exit_code) == (stdout, code), args
