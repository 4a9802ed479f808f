"""Command-line interface.

One executable, one verb per operation family. Inputs are ".bm" or
".fam" files (or "-" for stdin); the two formats are detected by
content. A family is a matrix read as subsets, so every verb takes
either. Exit codes: 0 success, 1 precondition or verification failure,
2 input, parse or usage errors and I/O errors (reading an input, writing
--output or a campaign's reproducers). The verbs let package and I/O
errors propagate; the command group's `invoke` maps them onto exit 1 or
2 in one place.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from .basis import compute_basis, decompose
from .bitcore import (
    BinaryMatrix,
    SetFamily,
    format_family,
    format_matrix,
    parse_any,
)
from .enumeration import _CLOSED_NAMES, CampaignConfig, _closed_mask_direct, run_campaign
from .equivalence import canonicalize
from .errors import (
    AllEmpty,
    CampaignFailure,
    ClosureLabError,
    NotDecomposable,
    PreconditionViolated,
    VerificationFailed,
)
from .operators import op_name, parse_op
from .spaces import closure, counterexample_block, counterexample_identity, is_closed, psi
from .witnesses import THEOREMS

_VERIFY_ERRORS = (
    PreconditionViolated,
    NotDecomposable,
    AllEmpty,
    VerificationFailed,
    CampaignFailure,
)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_text(path: str, source: str) -> str:
    """The input's text, decoded strictly as UTF-8 from a file or stdin."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail(2, f"{source}: {exc}")


def _load_any(path: str) -> BinaryMatrix:
    source = "<stdin>" if path == "-" else path
    return parse_any(_read_text(path, source), source)


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)


def _emit_json(obj: dict, output: str | None):
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", output)


def _emit_matrix(m: BinaryMatrix, fmt: str, output: str | None, **fields):
    """The matrix as rows, or as JSON with its width, rows and fields."""
    if fmt == "json":
        _emit_json({"width": m.width, "rows": format_matrix(m).split(), **fields}, output)
    else:
        _emit(format_matrix(m), output)


def _emit_kv(pairs: list[tuple[str, object]], output: str | None):
    _emit("".join(f"{k}: {v}\n" for k, v in pairs), output)


def _op_argument(value: str):
    try:
        return parse_op(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="json", show_default=True
)
_OUTPUT = click.option("--output", type=str, default=None, help="Write to a file instead of stdout.")
_INPUT = click.argument("input", type=str)


class _Cli(click.Group):
    """The command group: a failed precondition or verification in any
    verb exits 1, and every other package error and every I/O error
    exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _VERIFY_ERRORS as exc:
            _fail(1, str(exc))
        except ClosureLabError as exc:
            _fail(2, str(exc))
        except BrokenPipeError:
            raise  # click exits 1 quietly when stdout's reader has gone
        except OSError as exc:
            _fail(2, str(exc))


@click.group(cls=_Cli)
def cli():
    """Binary matrices closed under logical operators: closures, column
    statistics, bases, theorem witnesses and verification campaigns."""


@cli.command("check-closure")
@_INPUT
@click.option("--op", "op_text", type=str, default=None, help="Operator name or tt:<0-15>.")
@_FORMAT
@_OUTPUT
def check_closure_cmd(input, op_text, fmt, output):
    """Report whether the rows are closed under an operator (or all)."""
    m = _load_any(input)
    if op_text is not None:
        op = _op_argument(op_text)
        closed = is_closed(m, op)
        if fmt == "json":
            _emit_json({"op": op_name(op), "closed": closed}, output)
        else:
            _emit_kv([(op_name(op), "closed" if closed else "not closed")], output)
        if not closed:
            sys.exit(1)
        return
    closed = _closed_mask_direct(m.width, m.row_values)
    status = {name: bool(closed >> bit & 1) for bit, name in _CLOSED_NAMES}
    if fmt == "json":
        _emit_json({"closed_under": status}, output)
    else:
        _emit_kv(
            [(name, "closed" if closed else "not closed") for name, closed in status.items()],
            output,
        )


@cli.command("close")
@_INPUT
@click.option("--op", "op_text", type=str, required=True, help="Operator name or tt:<0-15>.")
@_FORMAT
@_OUTPUT
def close_cmd(input, op_text, fmt, output):
    """Fixed-point closure of the rows under an operator."""
    m = _load_any(input)
    op = _op_argument(op_text)
    _emit_matrix(closure(m, op), fmt, output, op=op_name(op))


@cli.command("psi")
@_INPUT
@_FORMAT
@_OUTPUT
def psi_cmd(input, fmt, output):
    """Column-sum statistics and the half-membership verdict."""
    m = _load_any(input)
    stats = psi(m)
    if fmt == "json":
        _emit_json(
            {
                "psi": sorted(stats.psi_set),
                "max": stats.max_psi,
                "witness_column": stats.witness_column,
                "frankl": stats.frankl_holds,
            },
            output,
        )
    else:
        _emit_kv(
            [
                ("psi", " ".join(str(s) for s in sorted(stats.psi_set))),
                ("max", stats.max_psi),
                ("witness_column", stats.witness_column),
                ("frankl", "true" if stats.frankl_holds else "false"),
            ],
            output,
        )


@cli.command("canon")
@_INPUT
@_FORMAT
@_OUTPUT
def canon_cmd(input, fmt, output):
    """Canonical form under row and column permutations."""
    form = canonicalize(_load_any(input))
    _emit_matrix(
        form.matrix, fmt, output, row_perm=list(form.row_perm), col_perm=list(form.col_perm)
    )


@cli.command("basis")
@_INPUT
@_FORMAT
@_OUTPUT
def basis_cmd(input, fmt, output):
    """Orthogonal basis and per-row decompositions of an AND/ABJ-closed set."""
    m = _load_any(input)
    b, w = compute_basis(m), m.width
    rows = [(f"{v:0{w}b}", decompose(v, b)) for v in m.row_values]
    if fmt == "json":
        _emit_json(
            {
                "width": w,
                "vectors": [f"{v:0{w}b}" for v in b.vectors],
                "rows": [{"row": row, "indices": idx} for row, idx in rows],
            },
            output,
        )
    else:
        lines = [(f"vector {i}", f"{v:0{w}b}") for i, v in enumerate(b.vectors, 1)]
        lines += [(f"row {row}", " ".join(map(str, idx)) or "-") for row, idx in rows]
        _emit_kv(lines, output)


_WITNESSES = {t.verb: t.witness for t in THEOREMS.values() if t.verb}


@cli.command("witness")
@click.argument("operator", type=click.Choice(list(_WITNESSES)))
@_INPUT
@_FORMAT
@_OUTPUT
def witness_cmd(operator, input, fmt, output):
    """Certified column (or element) covering at least half the rows."""
    w = _WITNESSES[operator](_load_any(input))
    cert = {
        "operator": operator,
        "column_or_element": w.column,
        "ones": w.ones,
        "n": w.total_rows,
        "verified": True,
    }
    if fmt == "json":
        _emit_json(cert, output)
    else:
        _emit_kv(sorted(cert.items()), output)


@cli.group("counterexample")
def counterexample_group():
    """Conjunction/abjunction-closed constructions that defeat half-membership."""


@counterexample_group.command("identity")
@click.option("--n", type=int, required=True)
@_FORMAT
@_OUTPUT
def counterexample_identity_cmd(n, fmt, output):
    """The n unit rows atop the zero row; every column sums to 1."""
    _emit_matrix(counterexample_identity(n), fmt, output)


@counterexample_group.command("block")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@_FORMAT
@_OUTPUT
def counterexample_block_cmd(n, k, fmt, output):
    """Block construction whose best column sums to k+1."""
    _emit_matrix(counterexample_block(n, k), fmt, output)


@cli.command("campaign")
@click.option("--width", type=int, required=True)
@click.option(
    "--mode", type=click.Choice(["exhaustive", "random"]), default="exhaustive", show_default=True
)
@click.option("--samples", type=int, default=100, show_default=True)
@click.option("--generators", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@_OUTPUT
def campaign_cmd(width, mode, samples, generators, seed, jobs, output):
    """Sweep families, re-check every theorem, emit a JSON summary.

    Failing families are dumped as ".bm" reproducers into the current
    directory, or into $CLOSURELAB_DUMP_DIR when set.
    """
    dump_dir = os.environ.get("CLOSURELAB_DUMP_DIR", ".")
    cfg = CampaignConfig(
        width=width,
        mode=mode,
        sample_count=samples,
        generator_count=generators,
        seed=seed,
        parallelism=jobs,
    )
    _emit(run_campaign(cfg, dump_dir=dump_dir).to_json(), output)


@cli.command("convert")
@_INPUT
@click.option("--to", "target", type=click.Choice(["bm", "fam"]), default=None,
              help="Target format; defaults to the opposite of the input.")
@_OUTPUT
def convert_cmd(input, target, output):
    """Convert between the matrix (.bm) and family (.fam) text formats."""
    data = _load_any(input)
    if target is None:
        target = "bm" if isinstance(data, SetFamily) else "fam"
    _emit(format_matrix(data) if target == "bm" else format_family(data), output)


def main():
    cli(prog_name="closurelab")


if __name__ == "__main__":
    main()
