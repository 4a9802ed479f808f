"""Exhaustive and randomized verification campaigns.

Exhaustive mode walks every nonempty set of distinct width-m rows
(encoded as a 2**m-bit integer, one bit per possible row), classifies
each under all sixteen binary operators, and runs every check (each a
witnesses.THEOREMS row) whose hypothesis holds on one record of the
family (see _theorem_runs); a chunk of family codes is classified at
once with row presence vectors. Negation
needs no case of its own: it is truth table 3, so a family's
classification is one 16-bit mask. Random mode draws seeded generator
rows, closes them under a drawn operator, classifies each family with
the affine kernel of spaces, and feeds the results through the same
checks. That classification (also behind `check-closure` without `--op`)
reads implied closures from the clone table operators.CLONE and checks
only the tables nothing already decides. Campaign output is
deterministic for a given config and seed, independent of the worker
count: the family space is split into fixed chunks, and each chunk
returns flat counts (families per closure mask, check runs per name and
outcome) and its failures. _merge alone sums them in chunk order and
shapes the summary.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import asdict, dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Iterator

from .bitcore import BinaryMatrix, format_matrix
from .errors import (
    CampaignFailure,
    ClosureLabError,
    ParameterOutOfRange,
    WidthCapExceeded,
)
from .operators import (
    ABJ,
    ABOVE,
    ALL_OPS,
    AND,
    CLONE,
    IMP,
    NAND,
    NEGATION,
    NOR,
    OR,
    XNOR,
    XOR,
    op_name,
)
from .spaces import _row_tables, closed_under, closure_values
from .witnesses import THEOREMS, MatrixViews, Theorem

EXHAUSTIVE_WIDTH_CAP = 4
RANDOM_WIDTH_CAP = 8

#: Operators a random campaign closes its generators under.
RANDOM_OPS = (NEGATION, AND, OR, XOR, XNOR, NAND, NOR, IMP, ABJ)

#: The half-membership check of every non-zero OR-closed family, counted
#: under "frankl" in the summary rather than with the theorems.
FRANKL_CHECK = "union_closed_frankl"

#: The checks counted under "theorems" in the summary: every table row
#: but the half check.
THEOREM_NAMES = tuple(name for name in THEOREMS if name != FRANKL_CHECK)

#: (mask bit, summary name) of every counted closure; "not" reads bit 3.
_CLOSED_NAMES = tuple((op.table, op_name(op)) for op in (*ALL_OPS, NEGATION))


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """Parameters of one verification campaign."""

    width: int
    mode: str
    sample_count: int = 100
    generator_count: int = 3
    seed: int | None = None
    parallelism: int = 1

    def __post_init__(self):
        if self.width < 1:
            raise ParameterOutOfRange(f"width must be >= 1, got {self.width}")
        if self.mode not in ("exhaustive", "random"):
            raise ParameterOutOfRange(f"mode must be exhaustive or random, got {self.mode!r}")
        if self.mode == "exhaustive" and self.width > EXHAUSTIVE_WIDTH_CAP:
            raise WidthCapExceeded(
                f"exhaustive mode is capped at width {EXHAUSTIVE_WIDTH_CAP}, got {self.width}"
            )
        if self.mode == "random":
            if self.width > RANDOM_WIDTH_CAP:
                raise WidthCapExceeded(
                    f"random mode is capped at width {RANDOM_WIDTH_CAP}, got {self.width}"
                )
            if self.seed is None:
                raise ParameterOutOfRange("random mode requires a seed")
            if self.sample_count < 1:
                raise ParameterOutOfRange("sample_count must be >= 1")
            if self.generator_count < 1:
                raise ParameterOutOfRange("generator_count must be >= 1")
        if self.parallelism < 1:
            raise ParameterOutOfRange("parallelism must be >= 1")


@dataclass(frozen=True, slots=True)
class CampaignSummary:
    """Aggregated, deterministic campaign result."""

    config: dict
    families: int
    closed_under: dict[str, int]
    theorems: dict[str, dict[str, int]]
    frankl: dict[str, int]

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


# --- closure classification ------------------------------------------------


@functools.cache
def _image_tables(width: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per truth table, the (a, b, op(a, b)) triples of width-m rows whose
    image is neither operand (only those can leave a family). Built once
    per process and width."""
    mask = (1 << width) - 1
    rows = range(mask + 1)
    tables = []
    for op in range(16):
        triples = []
        images = _row_tables(op, mask)
        for a in rows:
            triples += [(a, b, r) for b in rows if (r := images[a][b]) != a and r != b]
        tables.append(tuple(triples))
    return tuple(tables)


def _bit_columns(words: range | list[int], length: int) -> list[str]:
    """Column j of the words written as length-bit strings, last word
    first: bit i of int(column, 2) is bit length - 1 - j of words[i]."""
    return ["".join(col) for col in zip(*(format(w, f"0{length}b") for w in reversed(words)))]


def _closed_mask_coded(width: int, codes: range) -> list[int]:
    """The 16-bit closure mask of each family code, a chunk at a time.

    Bit i of presence[r] says whether row r is in family codes[i]. A
    family leaves closure under op exactly where presence[a] &
    presence[b] & ~presence[r] is set for some image triple (a, b, r).
    Negation needs no triples of its own: it is table 3, op(a, b) = not a.
    """
    full = (1 << len(codes)) - 1
    presence = [int(col, 2) for col in reversed(_bit_columns(codes, 1 << width))]
    absent = [full ^ p for p in presence]
    closed = []  # one vector per mask bit
    for triples in _image_tables(width):
        leaves = 0
        for a, b, r in triples:
            leaves |= presence[a] & presence[b] & absent[r]
        closed.append(full ^ leaves)
    return [int(col, 2) for col in reversed(_bit_columns(closed, len(codes)))]


#: Truth tables by descending clone size, ties by table number: a table
#: checked early decides the most others.
_CLONE_ORDER = tuple(sorted(range(16), key=lambda t: (-CLONE[t].bit_count(), t)))


def _closed_mask_direct(width: int, values: tuple[int, ...]) -> int:
    """16-bit closure mask for a family given as its row values.

    Closure under a table implies closure under its whole clone, and a
    failure implies failure under every table above it, so only the
    tables that no earlier answer decides are checked. NAND and NOR
    generate all sixteen: a NAND-closed family costs one check.
    """
    mask = (1 << width) - 1
    values = bytes(values) if mask < 256 else values  # closed_under's bytes() is then a no-op
    closed = known = 0
    for op in _CLONE_ORDER:
        if known >> op & 1:
            continue
        if closed_under(op, values, mask):
            closed |= CLONE[op]
            known |= CLONE[op]
        else:
            known |= ABOVE[op]
    return closed


# Only the tracer's enumeration.classify role still names this.
def _neg_closed(width: int, values: tuple[int, ...]) -> bool:
    mask = (1 << width) - 1
    present = set(values)
    return all(v ^ mask in present for v in values)


@functools.cache
def _applicable(closed: int) -> tuple[Theorem, ...]:
    """The THEOREMS rows whose hypothesis the closure mask meets, in table order."""
    return tuple(t for t in THEOREMS.values() if all(closed >> op.table & 1 for op in t.hypothesis))


def _theorem_runs(
    width: int, values: tuple[int, ...], closed: int
) -> list[tuple[str, Callable[[], object]]]:
    """Applicable checks for one family, as (name, runner) pairs: the
    THEOREMS rows whose hypothesis holds, in table order, so a failure is
    dumped under the name of the row that reruns it (and perfbench's
    tracer times it under that name). A runner returns a truthy
    certificate or True on success; it raises a package error (or returns
    False) on failure. Hypotheses follow the statements exactly: closure
    under the named operator(s), read from the 16-bit closure mask closed
    (negation is bit 3), and a non-zero matrix, so runners call the row
    cores, which do not prove them again. Every non-zero family's runners
    share one MatrixViews record, built without re-checking the rows
    (_chunk_families yields them distinct and in range): its rows are
    counted alone at most once, with their complements once (the count
    flip's one pass), run through a passing negation core once, and packed
    or complemented as a matrix only if a core reads it.
    """
    if not any(values):
        return []
    views = MatrixViews(width, values)
    return [(t.name, functools.partial(t.core, views)) for t in _applicable(closed)]


# --- the family stream ------------------------------------------------------


def _draw_samples(cfg: CampaignConfig) -> list[tuple[int, int, tuple[int, ...]]]:
    """Seeded (index, op_table, generator_values) triples; negation is 3."""
    rng = random.Random(cfg.seed)
    size = 1 << cfg.width
    samples = []
    for i in range(cfg.sample_count):
        op = RANDOM_OPS[rng.randrange(len(RANDOM_OPS))]
        gens = tuple(rng.randrange(size) for _ in range(cfg.generator_count))
        samples.append((i, op.table, gens))
    return samples


def _close_sample(width: int, op_table: int, gens: tuple[int, ...]) -> tuple[int, ...]:
    """A sample's family: its distinct generator rows, drawn in range, closed
    under its drawn truth table by spaces.closure_values (no matrix built)."""
    return closure_values(op_table, tuple(dict.fromkeys(gens)), (1 << width) - 1)


#: Per byte value, the rows its set bits name: a family code below 2**16
#: has the rows _LOW_ROWS[code & 255] + _HIGH_ROWS[code >> 8].
_LOW_ROWS = tuple(tuple(r for r in range(8) if byte >> r & 1) for byte in range(256))
_HIGH_ROWS = tuple(tuple(r + 8 for r in rows) for rows in _LOW_ROWS)


def _chunk_families(args: tuple) -> Iterator[tuple[str, tuple[int, ...], int]]:
    """One chunk's families as (ref, rows, 16-bit closure mask).

    Exhaustive chunks walk family codes (one bit per possible row, rows
    in increasing binary order), read each code's rows a byte at a time,
    and classify the whole chunk at once with row presence vectors;
    random chunks close their seeded generators and classify each
    family's row values with the affine kernel. Each non-zero family
    then runs its checks on one record (_theorem_runs).
    """
    mode, width, part = args
    if mode == "exhaustive":
        low, high = _LOW_ROWS, _HIGH_ROWS
        for code, closed in zip(part, _closed_mask_coded(width, part)):
            yield f"f{code}", low[code & 255] + high[code >> 8], closed
    else:
        for index, op_table, gens in part:
            values = _close_sample(width, op_table, gens)
            yield f"s{index}", values, _closed_mask_direct(width, values)


# --- campaign ----------------------------------------------------------------


def _run_chunk(args: tuple) -> tuple[dict[int, int], dict[tuple[str, bool], int], list[tuple]]:
    """One chunk's flat counts: families per 16-bit closure mask, check
    runs per (name, passed), and the failures as (ref, name, message,
    width, rows) in family order. The runners are _theorem_runs' pairs;
    one that raises a package error has failed with its message."""
    width = args[1]
    masks: dict[int, int] = {}
    runs: dict[tuple[str, bool], int] = {}
    failures = []
    for ref, values, closed in _chunk_families(args):
        masks[closed] = masks.get(closed, 0) + 1
        for name, runner in _theorem_runs(width, values, closed):
            try:
                ok = bool(runner())
                message = "" if ok else "check returned false"
            except ClosureLabError as exc:
                ok = False
                message = str(exc)
            runs[name, ok] = runs.get((name, ok), 0) + 1
            if not ok:
                failures.append((ref, name, message, width, list(values)))
    return masks, runs, failures


def _run_stride(sender, chunks: list[tuple]) -> None:
    """A child worker's body: send the caller its stride's flat counts,
    chunk by chunk, or the exception that stopped it with its traceback."""
    try:
        part = [_run_chunk(c) for c in chunks]
    except Exception as exc:
        import traceback  # only a failing child pays for it

        part = exc, traceback.format_exc()
    sender.send(part)


def _run_strides(chunks: list[tuple], workers: int) -> list[tuple]:
    """Every chunk's flat counts, in chunk order, from workers workers.

    Worker k runs the fixed stride chunks[k::workers]. The caller is
    worker 0 and runs its stride in-process, so a single worker starts
    no process. Each other worker is a child process that sends back its
    stride's counts, or its exception, through its own pipe. A child's
    exception is raised here, and a child that dies before it sends is a
    RuntimeError naming the worker and its exit code. No child outlives
    the call. Workers share no state, so any start method gives the
    same results.
    """
    context = get_context()
    children = []
    try:
        for k in range(1, workers):
            receiver, sender = context.Pipe(duplex=False)
            stride = chunks[k::workers]
            child = context.Process(target=_run_stride, args=(sender, stride), daemon=True)
            child.start()
            sender.close()  # the child's copy alone is open: its death reads as EOF
            children.append((child, receiver))
        results = [None] * len(chunks)
        results[::workers] = [_run_chunk(c) for c in chunks[::workers]]
        for k, (child, receiver) in enumerate(children, 1):
            try:
                part = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"campaign worker {k} exited with code {child.exitcode}"
                    " before sending its counts"
                ) from None
            if isinstance(part, tuple):
                error, trace = part
                raise error from RuntimeError(f"in campaign worker {k}:\n{trace}")
            results[k::workers] = part
    except BaseException:
        for child, _ in children:
            child.terminate()  # its counts would go unread
        raise
    finally:
        for child, receiver in children:
            receiver.close()
            child.join()
    return results


def _merge(parts: list[tuple]) -> dict:
    """Sum the chunks' flat counts and shape them, the one place that
    knows the summary's shape: every counted closure and every
    THEOREM_NAMES entry (zeros included), the FRANKL_CHECK runs under
    "frankl", and the failures to dump, joined in chunk order."""
    masks: dict[int, int] = {}
    runs: dict[tuple[str, bool], int] = {}
    failures = []
    for chunk_masks, chunk_runs, chunk_failures in parts:
        for mask, count in chunk_masks.items():
            masks[mask] = masks.get(mask, 0) + count
        for key, count in chunk_runs.items():
            runs[key] = runs.get(key, 0) + count
        failures += chunk_failures

    def tally(name: str) -> tuple[int, int]:
        return runs.get((name, True), 0), runs.get((name, False), 0)

    theorems = {}
    for name in THEOREM_NAMES:
        passed, failed = tally(name)
        theorems[name] = {"applicable": passed + failed, "passed": passed, "failed": failed}
    passed, failed = tally(FRANKL_CHECK)
    return {
        "families": sum(masks.values()),
        "closed_under": {
            name: sum(count for mask, count in masks.items() if mask >> bit & 1)
            for bit, name in _CLOSED_NAMES
        },
        "theorems": theorems,
        "frankl": {"or_closed_nonzero": passed + failed, "failures": failed},
        "failures": failures,
    }


def _chunk_args(cfg: CampaignConfig) -> list[tuple]:
    """Fixed work split, independent of the worker count: (mode, width,
    part) with part a range of family codes or a list of drawn samples."""
    if cfg.mode == "exhaustive":
        items = range(1, 1 << (1 << cfg.width))
    else:
        items = _draw_samples(cfg)
    parts = min(64, len(items))
    base, extra = divmod(len(items), parts)
    args = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        args.append((cfg.mode, cfg.width, items[start : start + size]))
        start += size
    return args


def _sample_lines(cfg: CampaignConfig) -> dict[str, list[str]]:
    """Per random-mode family ref, the reproducer lines naming its drawn
    operator and its distinct generator rows (values as JSON), so that
    `close --op <op>` on those rows rebuilds the family in row order."""
    names = {op.table: op_name(op) for op in RANDOM_OPS}
    return {
        f"s{index}": [
            f"# op: {json.dumps(names[op_table])}",
            f"# generator_rows: {json.dumps([f'{g:0{cfg.width}b}' for g in dict.fromkeys(gens)])}",
        ]
        for index, op_table, gens in _draw_samples(cfg)
    }


def _dump_reproducers(
    failures: list, config: dict, dump_dir: Path, samples: dict[str, list[str]]
) -> list[str]:
    """Write each failing family as a ".bm" file whose leading "#" lines
    name the theorem, its message, the family, the drawn sample of a
    random-mode family (see _sample_lines) and the campaign config
    (values as JSON)."""
    dump_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for ref, name, message, width, values in failures:
        header = [f"# theorem: {name}", f"# message: {' '.join(message.split())}"]
        header.append(f"# family: {ref}")
        header += samples.get(ref, [])
        header += [f"# {key}: {json.dumps(value)}" for key, value in config.items()]
        body = format_matrix(BinaryMatrix.from_values(width, values))
        path = dump_dir / f"repro-{name}-{ref}.bm"
        path.write_text("\n".join(header) + "\n" + body)
        paths.append(str(path))
    return paths


def run_campaign(cfg: CampaignConfig, dump_dir: str | Path = ".") -> CampaignSummary:
    """Run the campaign and aggregate results.

    Any theorem or half-membership failure writes the offending family
    to dump_dir as a ".bm" reproducer and aborts with CampaignFailure.
    The returned summary (and its JSON form) is byte-identical across
    runs with the same config and seed, whatever the parallelism.
    """
    chunks = _chunk_args(cfg)
    # --jobs N starts N - 1 child processes; more workers than chunks
    # would only idle.
    results = _run_strides(chunks, min(cfg.parallelism, len(chunks)))
    total = _merge(results)
    failures = total.pop("failures")
    config = {
        "width": cfg.width,
        "mode": cfg.mode,
        "samples": cfg.sample_count if cfg.mode == "random" else None,
        "generators": cfg.generator_count if cfg.mode == "random" else None,
        "seed": cfg.seed,
    }

    if failures:
        samples = _sample_lines(cfg) if cfg.mode == "random" else {}
        paths = _dump_reproducers(failures, config, Path(dump_dir), samples)
        raise CampaignFailure(
            f"{len(paths)} check failure(s); reproducers written: " + ", ".join(paths),
            paths,
        )

    return CampaignSummary(config=config, **total)
