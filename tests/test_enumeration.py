import contextlib
import functools
import hashlib
import json
import multiprocessing
import os
import signal
import time
import types
from pathlib import Path

import pytest
from click.testing import CliRunner

from closurelab import (
    ABJ,
    AND,
    IMP,
    NEGATION,
    NOR,
    OR,
    THEOREMS,
    BinaryMatrix,
    BoolOp,
    CampaignConfig,
    is_closed,
    parse_matrix,
    run_campaign,
)
from closurelab import bitcore, enumeration, witnesses
from closurelab.cli import cli
from closurelab.enumeration import (
    FRANKL_CHECK,
    RANDOM_OPS,
    THEOREM_NAMES,
    _chunk_args,
    _chunk_families,
    _closed_mask_coded,
    _closed_mask_direct,
    _merge,
    _run_chunk,
    _theorem_runs,
)
from closurelab.errors import (
    BasisVerificationFailed,
    CampaignFailure,
    ClosureLabError,
    ParameterOutOfRange,
    PreconditionViolated,
    WidthCapExceeded,
)
from closurelab.operators import CLONE, op_name
from closurelab.spaces import closed_under

from conftest import (
    SEMANTICS,
    closed_oracle,
    closure_oracle,
    column_count_oracle,
    matrix_tuples,
    row_tuple,
)


def families(cfg):
    """The campaign's (ref, rows, closure mask) triples, chunk by chunk,
    from the stream run_campaign reads."""
    for args in _chunk_args(cfg):
        yield from _chunk_families(args)


def matrices(cfg):
    return (BinaryMatrix.from_values(cfg.width, rows) for _, rows, _ in families(cfg))


def test_enumerate_families_width_one():
    got = [(ref, rows) for ref, rows, _ in families(CampaignConfig(width=1, mode="exhaustive"))]
    assert got == [("f1", (0,)), ("f2", (1,)), ("f3", (0, 1))]


def test_enumerate_families_counts():
    for width, count in ((1, 3), (2, 15), (3, 255)):
        refs = [ref for ref, _, _ in families(CampaignConfig(width=width, mode="exhaustive"))]
        assert refs == [f"f{code}" for code in range(1, count + 1)]


def test_enumerate_families_rows_ascending():
    for width in (2, 3):
        for _, rows, _ in families(CampaignConfig(width=width, mode="exhaustive")):
            assert list(rows) == sorted(set(rows))


def test_or_closed_set_matches_bruteforce_oracle():
    # Double implementation: the packed-int closure check against the
    # tuple-set oracle, over the whole width-2 space.
    cfg = CampaignConfig(width=2, mode="exhaustive")
    ours = set()
    oracle = set()
    for i, m in enumerate(matrices(cfg)):
        if is_closed(m, OR):
            ours.add(i)
        if closed_oracle(matrix_tuples(m), SEMANTICS["or"]):
            oracle.add(i)
    assert ours == oracle
    summary = run_campaign(cfg)
    assert summary.closed_under["or"] == len(ours)


def direct_masks(width, codes):
    size = 1 << width
    masks = []
    for code in codes:
        rows = tuple(r for r in range(size) if code >> r & 1)
        masks.append(_closed_mask_direct(width, rows))
    return masks


def test_coded_closure_mask_matches_direct():
    # The chunked presence-vector kernel against the per-family affine
    # kernel, at every width exhaustive mode runs. No proof re-checks
    # these bits. Widths 1-3: every code, in ranges of lengths 1, 2, 3,
    # ... from unaligned starts; width 4: three of the campaign's parts.
    for width in (1, 2, 3):
        stop = 1 << (1 << width)
        start, length = 1, 1
        while start < stop:
            part = range(start, min(start + length, stop))
            assert _closed_mask_coded(width, part) == direct_masks(width, part), part
            start, length = part.stop, length + 1
    parts = [part for _, _, part in _chunk_args(CampaignConfig(width=4, mode="exhaustive"))]
    for part in (parts[0], parts[len(parts) // 2], parts[-1]):
        assert _closed_mask_coded(4, part) == direct_masks(4, part), part


def up_closed(closed):
    """Whether the mask holds the whole clone of each table it holds."""
    return all(closed & CLONE[f] == CLONE[f] for f in range(16) if closed >> f & 1)


def test_closure_masks_are_up_closed_under_the_clone_table():
    # Closure under f implies closure under every term in f, whichever
    # kernel found the mask and whichever tables it actually checked.
    for width in (1, 2, 3):
        codes = range(1, 1 << (1 << width))
        for closed in _closed_mask_coded(width, codes) + direct_masks(width, codes):
            assert up_closed(closed), (width, closed)
    for _, _, part in _chunk_args(CampaignConfig(width=4, mode="exhaustive")):
        assert all(up_closed(closed) for closed in _closed_mask_coded(4, part)), part
    cfg = CampaignConfig(width=8, mode="random", sample_count=1000, seed=7)
    imp_closed = []
    for args in _chunk_args(cfg):
        for ref, values, closed in enumeration._chunk_families(args):
            assert up_closed(closed), ref
            if closed >> IMP.table & 1:
                imp_closed.append(closed)
    # The check can fail: IMP generates OR, so dropping the OR bit breaks it.
    assert imp_closed
    assert not any(up_closed(closed & ~(1 << OR.table)) for closed in imp_closed)


def test_full_space_costs_one_closure_check(monkeypatch):
    # NOR comes first and generates every table, so its one check decides
    # all sixteen bits.
    calls = []

    def counting(*args):
        calls.append(args[0])
        return closed_under(*args)

    monkeypatch.setattr(enumeration, "closed_under", counting)
    for width in range(1, 9):
        calls.clear()
        assert _closed_mask_direct(width, tuple(range(1 << width))) == 0xFFFF
        assert calls == [NOR.table], width


def test_negation_closed_families_split_columns_evenly():
    cfg = CampaignConfig(width=2, mode="exhaustive")
    seen = 0
    for m in matrices(cfg):
        if not is_closed(m, NEGATION):
            continue
        seen += 1
        tuples = matrix_tuples(m)
        for j in (1, 2):
            assert 2 * sum(r[j - 1] for r in tuples) == len(tuples)
    assert seen == 3


def test_campaign_exhaustive_small():
    summary = run_campaign(CampaignConfig(width=2, mode="exhaustive"))
    assert summary.families == 15
    for name, counts in summary.theorems.items():
        assert counts["failed"] == 0, name
        assert counts["applicable"] == counts["passed"]
    assert summary.frankl["failures"] == 0
    # negation-closed families: {00,11}, {01,10}, all four rows
    assert summary.closed_under["not"] == 3
    # projections keep every family closed
    assert summary.closed_under["tt:10"] == 15
    assert summary.closed_under["tt:12"] == 15


def test_campaign_theorem_applicability_cross_check():
    cfg = CampaignConfig(width=3, mode="exhaustive")
    summary = run_campaign(cfg)
    imp_closed_nonzero = 0
    or_closed_nonzero = 0
    for m in matrices(cfg):
        if m.non_zero and is_closed(m, IMP):
            imp_closed_nonzero += 1
            assert is_closed(m, OR)  # conditional closure forces OR closure
        if m.non_zero and is_closed(m, OR):
            or_closed_nonzero += 1
    assert summary.theorems["material_conditional"]["applicable"] == imp_closed_nonzero
    assert summary.theorems["imp_implies_or"]["applicable"] == imp_closed_nonzero
    assert summary.frankl["or_closed_nonzero"] == or_closed_nonzero
    assert summary.theorems["complement_count_flip"]["applicable"] == 254


def test_campaign_deterministic_across_workers():
    one = run_campaign(CampaignConfig(width=2, mode="exhaustive", parallelism=1))
    four = run_campaign(CampaignConfig(width=2, mode="exhaustive", parallelism=4))
    assert one.to_json() == four.to_json()


def assert_spawned_pool_matches_serial(monkeypatch, **cfg):
    # Spawned workers start from a fresh interpreter and inherit nothing
    # from the parent process.
    serial = run_campaign(CampaignConfig(parallelism=1, **cfg))
    spawn = functools.partial(multiprocessing.get_context, "spawn")
    monkeypatch.setattr(enumeration, "get_context", spawn)
    parallel = run_campaign(CampaignConfig(parallelism=2, **cfg))
    assert parallel.to_json() == serial.to_json()


def test_parallel_campaign_is_deterministic_under_spawn(monkeypatch):
    assert_spawned_pool_matches_serial(monkeypatch, width=3, mode="exhaustive")


def test_parallel_random_campaign_is_deterministic_under_spawn(monkeypatch):
    # Width-8 rows take the byte path of closed_under, whose tables each
    # spawned worker builds for itself.
    assert_spawned_pool_matches_serial(
        monkeypatch, width=8, mode="random", sample_count=40, generator_count=3, seed=5
    )


#: sha256 of the seed-7 width-8 random summary (1000 samples, 3 generators).
SEED7_W8_SHA256 = "65d75e11d88669b92f9cebe17774fcc0423495a5f6dddf4b6cfd4ecb0ae2be8f"
#: sha256 of the same campaign's summary at a held-out seed, 13.
SEED13_W8_SHA256 = "35a084fb1008623e8cef29b67caa473cffdeb17232eaa28955b17ffe29c00bcf"


def width8_random_digest(seed: int, parallelism: int) -> str:
    cfg = CampaignConfig(
        width=8, mode="random", sample_count=1000, generator_count=3, seed=seed,
        parallelism=parallelism,
    )
    return hashlib.sha256(run_campaign(cfg).to_json().encode()).hexdigest()


@pytest.mark.parametrize("parallelism", [1, 2])
def test_seed7_width8_random_summary_is_pinned(parallelism):
    assert width8_random_digest(7, parallelism) == SEED7_W8_SHA256


@pytest.mark.parametrize("parallelism", [1, 2])
def test_seed13_width8_random_summary_is_pinned(parallelism):
    assert width8_random_digest(13, parallelism) == SEED13_W8_SHA256


def test_campaign_random_mode_deterministic():
    cfg = dict(width=4, mode="random", sample_count=40, generator_count=3)
    a = run_campaign(CampaignConfig(seed=123, **cfg))
    b = run_campaign(CampaignConfig(seed=123, **cfg))
    c = run_campaign(CampaignConfig(seed=124, **cfg))
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()
    assert a.families == 40
    for name, counts in a.theorems.items():
        assert counts["failed"] == 0, name


def test_campaign_random_parallel_matches_serial():
    cfg = dict(width=5, mode="random", sample_count=30, generator_count=2, seed=9)
    serial = run_campaign(CampaignConfig(parallelism=1, **cfg))
    parallel = run_campaign(CampaignConfig(parallelism=3, **cfg))
    assert serial.to_json() == parallel.to_json()


def test_campaign_random_families_are_closed_spaces():
    # Each family is the closure of its own sample's distinct generators
    # under that sample's drawn operator, by the tuple oracle, and the
    # mask the campaign counts holds that operator's bit.
    cfg = CampaignConfig(width=4, mode="random", sample_count=60, generator_count=2, seed=31)
    drawn = set()
    count = 0
    for args in _chunk_args(cfg):
        for (index, op_table, gens), (ref, rows, closed) in zip(args[2], _chunk_families(args)):
            # Negation is truth table 3: op(a, b) = not a.
            fn = SEMANTICS.get(op_name(BoolOp(op_table)), lambda a, b: 1 - a)
            tuples = matrix_tuples(BinaryMatrix.from_values(cfg.width, rows))
            generators = [tuple(int(c) for c in f"{g:04b}") for g in dict.fromkeys(gens)]
            assert ref == f"s{index}"
            assert len(tuples) == len(set(tuples)), ref
            assert set(tuples) == closure_oracle(generators, fn), ref
            assert closed_oracle(tuples, fn), ref
            assert closed >> op_table & 1, ref
            drawn.add(op_table)
            count += 1
    assert count == 60
    assert drawn == {op.table for op in RANDOM_OPS}


def test_config_validation():
    with pytest.raises(WidthCapExceeded):
        CampaignConfig(width=5, mode="exhaustive")
    with pytest.raises(WidthCapExceeded):
        CampaignConfig(width=9, mode="random", seed=1)
    with pytest.raises(ParameterOutOfRange):
        CampaignConfig(width=3, mode="random")  # missing seed
    with pytest.raises(ParameterOutOfRange):
        CampaignConfig(width=3, mode="weird")
    with pytest.raises(ParameterOutOfRange):
        CampaignConfig(width=0, mode="exhaustive")
    with pytest.raises(ParameterOutOfRange):
        CampaignConfig(width=3, mode="exhaustive", parallelism=0)
    with pytest.raises(ParameterOutOfRange):
        CampaignConfig(width=3, mode="random", seed=1, sample_count=0)


def test_config_rejects_a_random_campaign_without_generators():
    with pytest.raises(ParameterOutOfRange) as exc:
        CampaignConfig(width=3, mode="random", seed=1, generator_count=0)
    assert str(exc.value) == "generator_count must be >= 1"


def test_summary_json_shape():
    summary = run_campaign(CampaignConfig(width=1, mode="exhaustive"))
    data = json.loads(summary.to_json())
    assert set(data) == {"config", "families", "closed_under", "theorems", "frankl"}
    assert data["families"] == 3
    assert len(data["closed_under"]) == 17
    assert all(isinstance(v, int) for v in data["closed_under"].values())


def reproducer_header(text: str) -> dict[str, str]:
    """The "# key: value" comment lines at the top of a reproducer."""
    header = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        key, _, value = line[1:].strip().partition(": ")
        header[key] = value
    return header


def test_campaign_failure_dumps_reproducer(tmp_path, monkeypatch):
    def broken(width, values):
        raise PreconditionViolated("injected failure")

    # The half-count step of the negation proof core, which the NAND and
    # NOR reductions share, so the negation reproducer is picked out by name.
    monkeypatch.setattr(witnesses, "column_sums", broken)
    cfg = CampaignConfig(width=1, mode="exhaustive", parallelism=1)
    with pytest.raises(CampaignFailure) as exc:
        run_campaign(cfg, dump_dir=tmp_path)
    names = [p.split("/")[-1] for p in exc.value.reproducers]
    path = tmp_path / next(n for n in names if n.startswith("repro-negation_lemma-"))
    text = path.read_text()
    dumped = parse_matrix(text)
    assert is_closed(dumped, NEGATION)
    header = reproducer_header(text)
    assert header["theorem"] == "negation_lemma"
    assert header["message"] == "injected failure"
    assert path.name == f"repro-negation_lemma-{header['family']}.bm"
    assert json.loads(header["width"]) == 1
    assert json.loads(header["mode"]) == "exhaustive"
    assert json.loads(header["seed"]) is None


def test_random_reproducer_names_its_operator_and_generators(tmp_path, monkeypatch):
    # Zero column sums fail the count flip on every family: its record
    # counts both the rows and the complemented rows here. Each random-mode
    # reproducer names its drawn operator and distinct generator rows, and
    # the close verb on those rows prints the reproducer's rows in order.
    monkeypatch.setattr(witnesses, "column_sums", lambda width, values: [0] * width)
    cfg = CampaignConfig(width=3, mode="random", sample_count=40, generator_count=3, seed=5)
    with pytest.raises(CampaignFailure):
        run_campaign(cfg, dump_dir=tmp_path / "random")
    dumped = sorted((tmp_path / "random").glob("repro-complement_count_flip-*.bm"))
    assert len(dumped) == 40
    ops, short = set(), 0
    for path in dumped:
        text = path.read_text()
        header = reproducer_header(text)
        op = json.loads(header["op"])
        rows = json.loads(header["generator_rows"])
        assert len(set(rows)) == len(rows) and all(len(r) == 3 for r in rows)
        generators = tmp_path / f"gens-{header['family']}.bm"
        generators.write_text("".join(f"{r}\n" for r in rows))
        result = CliRunner().invoke(cli, ["close", str(generators), "--op", op, "--format", "text"])
        assert result.exit_code == 0
        body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
        assert result.output == body, path.name
        ops.add(op)
        short += len(rows) < 3
    assert ops == {op_name(op) for op in RANDOM_OPS}
    assert short > 0  # repeated draws are written once

    # Exhaustive reproducers carry no sample lines.
    with pytest.raises(CampaignFailure) as exc:
        run_campaign(CampaignConfig(width=2, mode="exhaustive"), dump_dir=tmp_path / "exhaustive")
    for path in exc.value.reproducers:
        header = reproducer_header(Path(path).read_text())
        assert list(header) == [
            "theorem", "message", "family", "width", "mode", "samples", "generators", "seed"
        ]


_REAL_COL_SUMS = bitcore.column_sums
_REAL_IS_CLOSED = witnesses.is_closed


def _no_basis(m):
    raise BasisVerificationFailed("injected basis failure")


def _miscount_complements(width, values):
    # The exhaustive stream yields rows ascending, so complemented rows of a
    # multi-row family come out descending: count one extra one wherever
    # they are counted. The family's MatrixViews record counts its rows
    # here, and the count flip its rows followed by their complements.
    sums = _REAL_COL_SUMS(width, values)
    return [s + 1 for s in sums] if list(values) != sorted(values) else sums


def _zero_sums(width, values):
    return [0] * width


#: Per check, one broken step: (owner, attribute, replacement).
BROKEN_STEPS = {
    # The record's column sums: the negation rows' half scan.
    "negation_lemma": (witnesses, "column_sums", _zero_sums),
    "nand_reduction": (witnesses, "column_sums", _zero_sums),
    "nor_reduction": (witnesses, "column_sums", _zero_sums),
    # The one-column recount of each certificate.
    "xnor_group": (witnesses, "column_sum", lambda m, j: 0),
    "xor_group": (witnesses, "column_sum", lambda m, j: 0),
    "topology": (witnesses, "column_sum", lambda m, j: 0),
    # Each IMP row breaks a step only it reads, outside the MatrixViews record all three share.
    "material_conditional": (witnesses, "compute_basis", _no_basis),
    "tilde_preconditions": (
        witnesses, "is_closed", lambda m, op: op is not ABJ and _REAL_IS_CLOSED(m, op)
    ),
    "imp_implies_or": (
        witnesses, "is_closed", lambda m, op: op is not OR and _REAL_IS_CLOSED(m, op)
    ),
    "complement_count_flip": (witnesses, "column_sums", _miscount_complements),
    # The half check reads the record's column sums too.
    FRANKL_CHECK: (witnesses, "column_sums", _zero_sums),
}


def width_two_campaign_counts() -> dict:
    cfg = CampaignConfig(width=2, mode="exhaustive")
    return _merge([_run_chunk(c) for c in _chunk_args(cfg)])


def assert_cli_dumps_reproducer(check, tmp_path, monkeypatch):
    """The width-2 CLI campaign exits 1 and dumps a reproducer that
    names check; returns its header."""
    monkeypatch.setenv("CLOSURELAB_DUMP_DIR", str(tmp_path))
    result = CliRunner().invoke(cli, ["campaign", "--width", "2"])
    assert result.exit_code == 1
    dumped = sorted(tmp_path.glob(f"repro-{check}-*.bm"))
    assert dumped
    header = reproducer_header(dumped[0].read_text())
    assert header["theorem"] == check
    return header


def assert_counted_failure_and_reproducer(theorem, tmp_path, monkeypatch):
    """A width-2 campaign counts a failure of theorem, and the CLI run
    exits 1 and dumps a reproducer that names it; returns its header."""
    assert width_two_campaign_counts()["theorems"][theorem]["failed"] > 0
    return assert_cli_dumps_reproducer(theorem, tmp_path, monkeypatch)


@pytest.mark.parametrize("theorem", THEOREM_NAMES)
def test_every_theorem_check_can_fail(theorem, tmp_path, monkeypatch):
    owner, attribute, replacement = BROKEN_STEPS[theorem]
    monkeypatch.setattr(owner, attribute, replacement)
    assert_counted_failure_and_reproducer(theorem, tmp_path, monkeypatch)


#: The message each IMP row fails with under its BROKEN_STEPS entry.
IMP_ROW_MESSAGES = {
    "material_conditional": "injected basis failure",
    "tilde_preconditions": "check returned false",
    "imp_implies_or": "complement-side and direct OR-closure disagree",
}


@pytest.mark.parametrize("theorem", IMP_ROW_MESSAGES)
def test_each_imp_row_fails_alone(theorem, monkeypatch):
    # The IMP rows share one chain per family; breaking the step only one
    # of them reads fails that row, with its own message, and no other.
    owner, attribute, replacement = BROKEN_STEPS[theorem]
    monkeypatch.setattr(owner, attribute, replacement)
    counts = _merge([_run_chunk(c) for c in _chunk_args(CampaignConfig(width=3, mode="exhaustive"))])
    assert counts["theorems"][theorem]["failed"] > 0
    failures = {(name, message) for _, name, message, _, _ in counts["failures"]}
    assert failures == {(theorem, IMP_ROW_MESSAGES[theorem])}
    for other in set(IMP_ROW_MESSAGES) - {theorem}:
        assert counts["theorems"][other]["failed"] == 0, other
        assert counts["theorems"][other]["passed"] > 0, other


def campaign_families():
    """(width, values, closed) of every non-zero family at widths 1-3,
    then of the seed-7 width-8 random campaign."""
    configs = [CampaignConfig(width=w, mode="exhaustive") for w in (1, 2, 3)]
    configs.append(
        CampaignConfig(width=8, mode="random", sample_count=1000, generator_count=3, seed=7)
    )
    for cfg in configs:
        for _, values, closed in families(cfg):
            if any(values):
                yield cfg.width, values, closed


def test_shared_imp_chain_matches_the_public_witnesses():
    # The campaign runs the rows that apply to a non-zero family on one
    # shared MatrixViews record, the count flip among them; each row's
    # witness(m) builds its own record and proves the hypothesis.
    seen = set()
    for width, values, closed in campaign_families():
        m = BinaryMatrix(width, values)
        for name, runner in _theorem_runs(width, values, closed):
            assert runner() == THEOREMS[name].witness(m), (name, width, values)
            seen.add(name)
    assert seen == set(THEOREMS)


def test_every_non_zero_family_runs_on_one_record(monkeypatch):
    # Each non-zero family builds exactly one MatrixViews record, in stream
    # order, however many rows apply to it (the count flip alone included);
    # the all-zero family builds none.
    real = enumeration.MatrixViews
    built = []

    def counting(width, values):
        built.append((width, values))
        return real(width, values)

    monkeypatch.setattr(enumeration, "MatrixViews", counting)
    configs = [CampaignConfig(width=w, mode="exhaustive") for w in (1, 2, 3)]
    configs.append(
        CampaignConfig(width=8, mode="random", sample_count=1000, generator_count=3, seed=7)
    )
    for cfg in configs:
        built.clear()
        run_campaign(cfg)
        non_zero = [(cfg.width, values) for _, values, _ in families(cfg) if any(values)]
        assert built == non_zero, cfg


def test_family_code_rows_come_from_two_byte_tables():
    # The exhaustive stream reads a code's rows a byte at a time; two
    # tables cover every code only while a family code fits in 16 bits.
    assert enumeration.EXHAUSTIVE_WIDTH_CAP <= 4
    low, high = enumeration._LOW_ROWS, enumeration._HIGH_ROWS
    for code in range(1 << 16):
        rows = tuple(r for r in range(16) if code >> r & 1)
        assert low[code & 255] + high[code >> 8] == rows, code


def assert_reproducer_reruns_through_its_row(check, tmp_path, monkeypatch):
    """The width-2 CLI campaign dumps a reproducer of check whose "# theorem:"
    row, rerun on its rows, fails under monkeypatch's break and passes
    once the break is undone."""
    header = assert_cli_dumps_reproducer(check, tmp_path, monkeypatch)
    m = parse_matrix(sorted(tmp_path.glob(f"repro-{check}-*.bm"))[0].read_text())
    row = THEOREMS[header["theorem"]]
    try:
        assert not row.witness(m)
    except ClosureLabError:
        pass
    monkeypatch.undo()
    assert row.witness(m)


@pytest.mark.parametrize("check", THEOREMS)
def test_every_reproducer_reruns_through_its_row(check, tmp_path, monkeypatch):
    # Each check's broken step dumps a reproducer whose "# theorem:" row,
    # rerun on its rows, fails under the break and passes without it.
    assert set(BROKEN_STEPS) == set(THEOREMS)
    owner, attribute, replacement = BROKEN_STEPS[check]
    monkeypatch.setattr(owner, attribute, replacement)
    assert_reproducer_reruns_through_its_row(check, tmp_path, monkeypatch)


def _leave_last_column(width, values):
    # Every row negated except in its last column.
    return tuple(v ^ ((1 << width) - 2) for v in values)


def _oracle_sums(width, rows):
    tuples = [row_tuple(r, width) for r in rows]
    return [column_count_oracle(tuples, j) for j in range(1, width + 1)]


def test_the_count_flip_catches_a_wrong_complement(tmp_path, monkeypatch):
    # BROKEN_STEPS reaches the count flip through its count; here its own
    # complement leaves one column unflipped. Intact and broken, on every
    # family, its one-pass verdict (each column of the rows followed by
    # their complements holds n ones) is the two-count formula's
    # (the complements' column sums are n minus the rows').
    for broken in (False, True):
        if broken:
            monkeypatch.setattr(witnesses, "_complemented", _leave_last_column)
        verdicts = set()
        for width, values, _ in campaign_families():
            n = len(values)
            flipped = _oracle_sums(width, witnesses._complemented(width, values))
            two_counts = all(f == n - s for s, f in zip(_oracle_sums(width, values), flipped))
            verdict = witnesses._count_flip_consistent(width, values)
            assert verdict == two_counts, (broken, width, values)
            verdicts.add(verdict)
        assert verdicts == ({True, False} if broken else {True})
    assert width_two_campaign_counts()["theorems"]["complement_count_flip"]["failed"] > 0
    assert_reproducer_reruns_through_its_row("complement_count_flip", tmp_path, monkeypatch)


#: The rows that each run the negation core: one family closed under NAND
#: is closed under all three hypotheses.
NEGATION_ROWS = {"negation_lemma", "nand_reduction", "nor_reduction"}


def test_each_family_counts_its_columns_and_complements_once(monkeypatch):
    # The runners of one family, the count flip and the half check among
    # them, share one MatrixViews record, so however many rows apply, the
    # family's rows are counted in full at most once (the record's sums),
    # the rows followed by their complements once (by the count flip), and
    # the complemented matrix is built at most once. Every binding of
    # column_sums is watched.
    counted = []  # the rows of each full count
    tilde_calls = []  # the matrix of each complemented matrix built
    packed = []  # the rows of each packed matrix the record builds (its m)

    def watch(owner, name, log):
        function = getattr(owner, name)

        def wrapper(*args):
            log.append(args[-1])
            return function(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for owner in (bitcore, witnesses):
        watch(owner, "column_sums", counted)
    watch(witnesses, "tilde_matrix", tilde_calls)
    watch(witnesses, "_packed_matrix", packed)
    configs = [
        CampaignConfig(width=3, mode="exhaustive"),
        CampaignConfig(width=8, mode="random", sample_count=1000, generator_count=3, seed=7),
    ]
    shared = set()
    passes = {}
    for cfg in configs:
        mask = (1 << cfg.width) - 1
        for _, values, closed in families(cfg):
            counted.clear()
            tilde_calls.clear()
            packed.clear()
            runs = _theorem_runs(cfg.width, values, closed)
            assert all(runner() for _, runner in runs), values
            rows = list(values)
            joint = rows + [v ^ mask for v in values]
            counts = [list(c) for c in counted]
            assert all(c in (rows, joint) for c in counts), (values, counts)
            # Every non-zero family, and no other, gets the count flip.
            assert counts.count(rows) <= 1 and counts.count(joint) == any(values), values
            assert len(tilde_calls) <= 1, values
            assert len(packed) <= 1, values
            passes[cfg.width, values] = len(counted)
            names = {name for name, _ in runs}
            if names == {"complement_count_flip"}:
                assert rows not in counts, values  # the count flip reads no sums
            if NEGATION_ROWS <= names:
                shared.add((cfg.mode, "negation"))
            if "material_conditional" in names:
                shared.add((cfg.mode, "imp"))
    assert shared == {(mode, rows) for mode in ("exhaustive", "random") for rows in ("negation", "imp")}
    # {000, 111} is closed under every table: 12 full counts before the
    # rows' sums were shared, now the rows once and the count flip's joint
    # count of the rows and their complements once.
    assert passes[3, (0, 7)] == 2


def test_the_negation_core_runs_once_per_record(monkeypatch):
    # The three negation rows read one certificate kept on the family's
    # record: the core runs once for each non-zero family closed under
    # negation (which NAND and NOR closure imply), however many rows apply.
    real = witnesses._negation_core
    ran = []

    def counting(views):
        ran.append(views.values)
        return real(views)

    monkeypatch.setattr(witnesses, "_negation_core", counting)
    configs = [CampaignConfig(width=w, mode="exhaustive") for w in (1, 2, 3)]
    configs.append(
        CampaignConfig(width=8, mode="random", sample_count=1000, generator_count=3, seed=7)
    )
    for cfg in configs:
        ran.clear()
        run_campaign(cfg)
        closed = [(values, mask) for _, values, mask in families(cfg) if any(values)]
        assert ran == [values for values, mask in closed if mask >> NEGATION.table & 1], cfg
        all_three = [
            values for values, mask in closed
            if NEGATION_ROWS <= {name for name, _ in _theorem_runs(cfg.width, values, mask)}
        ]
        assert all_three and all(ran.count(values) == 1 for values in all_three), cfg


def test_each_negation_row_counts_and_dumps_the_shared_failure(tmp_path, monkeypatch):
    # A failing negation core keeps nothing on the record, so under the
    # negation rows' broken step each row reruns it, counts the failure
    # under its own name and dumps its own reproducer, all with one message.
    owner, attribute, replacement = BROKEN_STEPS["negation_lemma"]
    monkeypatch.setattr(owner, attribute, replacement)
    counts = width_two_campaign_counts()
    by_family = {}
    for ref, name, message, _, _ in counts["failures"]:
        by_family.setdefault(ref, {})[name] = message
    shared = [ref for ref, rows in by_family.items() if NEGATION_ROWS <= set(rows)]
    assert shared
    for row in NEGATION_ROWS:
        assert counts["theorems"][row]["failed"] > 0, row
    assert_cli_dumps_reproducer("negation_lemma", tmp_path, monkeypatch)
    for ref in shared:
        headers = [
            reproducer_header((tmp_path / f"repro-{row}-{ref}.bm").read_text())
            for row in sorted(NEGATION_ROWS)
        ]
        assert [h["theorem"] for h in headers] == sorted(NEGATION_ROWS)
        messages = {by_family[ref][row] for row in NEGATION_ROWS}
        messages |= {h["message"] for h in headers}
        assert messages == {"column 1 does not hold exactly half the ones"}, ref


def test_imp_implies_or_complement_side_can_fail(tmp_path, monkeypatch):
    # BROKEN_STEPS breaks the direct OR side; here only the AND check on
    # the complemented rows fails, and the disagreement is still caught.
    monkeypatch.setattr(
        witnesses, "is_closed", lambda m, op: op is not AND and _REAL_IS_CLOSED(m, op)
    )
    header = assert_counted_failure_and_reproducer("imp_implies_or", tmp_path, monkeypatch)
    assert header["message"] == "complement-side and direct OR-closure disagree"


def test_union_closed_frankl_check_can_fail(tmp_path, monkeypatch):
    # Zero column sums in the record break the half-membership check on
    # every OR-closed family; the rows that scan the same sums fail as well.
    owner, attribute, replacement = BROKEN_STEPS[FRANKL_CHECK]
    monkeypatch.setattr(owner, attribute, replacement)
    assert width_two_campaign_counts()["frankl"]["failures"] > 0
    header = assert_cli_dumps_reproducer(FRANKL_CHECK, tmp_path, monkeypatch)
    assert header["message"] == "no column reaches half the rows"


def test_a_raising_count_in_the_frankl_check_is_a_counted_failure(tmp_path, monkeypatch):
    # An error raised while the half check counts is caught like a theorem
    # runner's: counted, and dumped as a reproducer carrying its message.
    # Only witnesses counts rows, so patching its column_sums reaches
    # every count.
    def raising(width, values):
        raise PreconditionViolated("injected count failure")

    monkeypatch.setattr(witnesses, "column_sums", raising)
    counts = width_two_campaign_counts()
    assert counts["frankl"]["failures"] == counts["frankl"]["or_closed_nonzero"] > 0
    failures = {(name, message) for _, name, message, _, _ in counts["failures"]}
    assert (FRANKL_CHECK, "injected count failure") in failures
    header = assert_cli_dumps_reproducer(FRANKL_CHECK, tmp_path, monkeypatch)
    assert header["message"] == "injected count failure"


FORK = functools.partial(multiprocessing.get_context, "fork")


def test_pool_workers_are_clamped_to_the_chunk_count(monkeypatch):
    fork = FORK()
    started = []

    class RecordingProcess(fork.Process):
        def start(self):
            started.append(self)
            super().start()

    context = types.SimpleNamespace(Pipe=fork.Pipe, Process=RecordingProcess)
    monkeypatch.setattr(enumeration, "get_context", lambda: context)
    wide = run_campaign(CampaignConfig(width=2, mode="exhaustive", parallelism=500))
    # Width 2 splits into one chunk per family: 15 workers, the caller one of them.
    assert len(started) == 14
    assert wide.to_json() == run_campaign(CampaignConfig(width=2, mode="exhaustive")).to_json()
    # One sample is one chunk: the caller runs it and starts no child.
    one = dict(width=4, mode="random", sample_count=1, seed=3)
    single = run_campaign(CampaignConfig(**one, parallelism=4))
    assert len(started) == 14
    assert single.to_json() == run_campaign(CampaignConfig(**one)).to_json()
    assert multiprocessing.active_children() == []


def break_chunks(monkeypatch, in_caller, in_child):
    """Fork the campaign's children, and make _run_chunk call in_caller in
    the calling process and in_child in every child before its work."""
    monkeypatch.setattr(enumeration, "get_context", FORK)
    caller, real = os.getpid(), _run_chunk

    def chunk(args):
        (in_caller if os.getpid() == caller else in_child)()
        return real(args)

    monkeypatch.setattr(enumeration, "_run_chunk", chunk)


def fail(error):
    def step():
        raise error

    return step


@contextlib.contextmanager
def deadline(seconds):
    """Fail a campaign call that is still waiting on its children after
    seconds, rather than hang the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"campaign still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_error_in_a_child_reaches_the_caller(monkeypatch):
    break_chunks(monkeypatch, lambda: None, fail(TypeError("injected in a child")))
    with deadline(30), pytest.raises(TypeError, match="^injected in a child$") as exc:
        run_campaign(CampaignConfig(width=2, mode="exhaustive", parallelism=2))
    # The child's traceback comes along as the cause.
    cause = str(exc.value.__cause__)
    assert cause.startswith("in campaign worker 1:\nTraceback") and "in _run_stride" in cause
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_before_sending_is_named(monkeypatch):
    break_chunks(monkeypatch, lambda: None, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with deadline(30), pytest.raises(RuntimeError, match="worker 1 exited with code -9 "):
        run_campaign(CampaignConfig(width=2, mode="exhaustive", parallelism=2))
    assert multiprocessing.active_children() == []


def test_an_error_in_the_callers_stride_stops_and_joins_its_child(monkeypatch):
    # The caller's error stops the child rather than wait out its stride
    # (two samples are two chunks, one a worker).
    break_chunks(monkeypatch, fail(ValueError("injected in the caller")), lambda: time.sleep(60))
    with deadline(30), pytest.raises(ValueError, match="^injected in the caller$"):
        run_campaign(CampaignConfig(width=4, mode="random", sample_count=2, seed=3, parallelism=2))
    assert multiprocessing.active_children() == []


def test_a_stride_sends_its_counts_in_chunk_order_or_its_error(monkeypatch):
    # A child's body, run here on one end of a real pipe: a two-chunk
    # stride sends both chunks' flat counts in order; a stride whose
    # chunk raises sends the exception and its traceback text.
    receiver, sender = multiprocessing.Pipe(duplex=False)
    stride = _chunk_args(CampaignConfig(width=2, mode="exhaustive"))[3::7]
    assert len(stride) == 2
    enumeration._run_stride(sender, stride)
    assert receiver.recv() == [_run_chunk(c) for c in stride]
    def raising(args):
        raise KeyError("injected")

    monkeypatch.setattr(enumeration, "_run_chunk", raising)
    enumeration._run_stride(sender, stride)
    error, trace = receiver.recv()
    assert type(error) is KeyError and error.args == ("injected",)
    assert trace.startswith("Traceback") and "in _run_stride" in trace
    assert trace.endswith("KeyError: 'injected'\n")
    receiver.close()
    sender.close()


def test_failing_campaign_dumps_the_same_reproducers_through_the_pool(tmp_path, monkeypatch):
    # Chunks cross the children's pipes as flat counts and failure tuples;
    # a failing campaign must dump the same files, in the same order,
    # either way. Forked children inherit the broken step.
    owner, attribute, replacement = BROKEN_STEPS["complement_count_flip"]
    monkeypatch.setattr(owner, attribute, replacement)
    monkeypatch.setattr(enumeration, "get_context", FORK)
    dumped = {}
    for jobs in (2, 1):
        dump_dir = tmp_path / f"jobs{jobs}"
        with pytest.raises(CampaignFailure) as exc:
            run_campaign(CampaignConfig(width=2, mode="exhaustive", parallelism=jobs), dump_dir)
        paths = [Path(p) for p in exc.value.reproducers]
        assert all(p.parent == dump_dir for p in paths)
        dumped[jobs] = [(p.name, p.read_bytes()) for p in paths]
        assert multiprocessing.active_children() == []
    assert dumped[2] and dumped[2] == dumped[1]
    assert {name for name, _ in dumped[1]} == {p.name for p in (tmp_path / "jobs1").iterdir()}


def recount(cfg):
    """The summary counts and the failure tuples of cfg, recounted one
    family and one run at a time from the family stream, without
    _run_chunk or _merge."""
    closed_under = {name: 0 for _, name in enumeration._CLOSED_NAMES}
    theorems = {name: {"applicable": 0, "passed": 0, "failed": 0} for name in THEOREM_NAMES}
    frankl = {"or_closed_nonzero": 0, "failures": 0}
    failures = []
    family_count = 0
    for ref, values, closed in families(cfg):
        family_count += 1
        for bit, name in enumeration._CLOSED_NAMES:
            closed_under[name] += closed >> bit & 1
        for name, runner in _theorem_runs(cfg.width, values, closed):
            try:
                ok, message = bool(runner()), "check returned false"
            except ClosureLabError as exc:
                ok, message = False, str(exc)
            if name == FRANKL_CHECK:
                frankl["or_closed_nonzero"] += 1
                frankl["failures"] += not ok
            else:
                theorems[name]["applicable"] += 1
                theorems[name]["passed" if ok else "failed"] += 1
            if not ok:
                failures.append((ref, name, message, cfg.width, list(values)))
    counts = {"families": family_count, "closed_under": closed_under, "theorems": theorems,
              "frankl": frankl}
    return counts, failures


RECOUNT_CONFIGS = [
    *(CampaignConfig(width=w, mode="exhaustive") for w in (1, 2, 3)),
    CampaignConfig(width=5, mode="random", sample_count=40, seed=7),
]


@pytest.mark.parametrize("broken", [False, True], ids=["intact", "broken_frankl"])
@pytest.mark.parametrize("cfg", RECOUNT_CONFIGS, ids=lambda c: f"{c.mode}_w{c.width}")
def test_merge_matches_a_family_by_family_recount(cfg, broken, monkeypatch):
    if broken:
        owner, attribute, replacement = BROKEN_STEPS[FRANKL_CHECK]
        monkeypatch.setattr(owner, attribute, replacement)
    counts = _merge([_run_chunk(c) for c in _chunk_args(cfg)])
    failures = counts.pop("failures")
    expected, expected_failures = recount(cfg)
    assert counts == expected
    # The failures come in chunk order, each chunk's in family order.
    assert failures == expected_failures
    assert bool(failures) == broken
    if broken:
        assert counts["frankl"]["failures"] == counts["frankl"]["or_closed_nonzero"] > 0
