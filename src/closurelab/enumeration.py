"""Exhaustive and randomized verification campaigns.

Exhaustive mode walks every nonempty set of distinct width-m rows
(encoded as a 2**m-bit integer, one bit per possible row), classifies
each under all sixteen binary operators, and runs every theorem whose
hypothesis holds; a chunk of family codes is classified at once with
row presence vectors. Negation needs no case of its own: it is truth
table 3, so a family's classification is one 16-bit mask. Random mode
draws seeded generator rows, closes them under a drawn operator,
classifies each family with the affine kernel of spaces, and feeds the
results through the same checks. That classification (also behind
`check-closure` without `--op`) reads implied closures from the clone
table operators.CLONE and checks only the tables nothing already
decides. Campaign output is deterministic for a given config and seed,
independent of the worker count: the family space is split into fixed
chunks and partial results are merged in chunk order.
"""

from __future__ import annotations

import functools
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

from .bitcore import BinaryMatrix, _packed_matrix, column_sums, format_matrix
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
    BoolOp,
    _complemented,
    op_name,
)
from .spaces import _row_tables, closed_under, closure
from .witnesses import THEOREMS, MatrixViews

EXHAUSTIVE_WIDTH_CAP = 4
RANDOM_WIDTH_CAP = 8

#: Operators a random campaign closes its generators under.
RANDOM_OPS = (NEGATION, AND, OR, XOR, XNOR, NAND, NOR, IMP, ABJ)

#: Proved statements re-checked on every family whose hypothesis holds:
#: the theorem table, then the count flip every non-zero family gets.
THEOREM_NAMES = tuple(t.name for t in THEOREMS) + ("complement_count_flip",)

#: Each table row with its hypothesis as bits of the 16-bit closure mask.
_HYPOTHESIS_MASKS = tuple((t, sum(1 << op.table for op in t.hypothesis)) for t in THEOREMS)

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


def _count_flip_consistent(width: int, values: tuple[int, ...]) -> bool:
    """Each column's ones count in the complemented rows is n minus its
    count in the rows, counted from the complemented rows themselves."""
    n = len(values)
    flipped = column_sums(width, _complemented(width, values))
    return all(f == n - s for s, f in zip(column_sums(width, values), flipped))


def _theorem_runs(
    width: int, values: tuple[int, ...], closed: int
) -> list[tuple[str, Callable[[], object]]]:
    """Applicable theorem checks for one family, as (name, runner) pairs.

    A runner returns a truthy certificate or True on success; it raises
    a package error (or returns False) on failure. Hypotheses follow the
    statements exactly: closure under the named operator(s), read from
    the 16-bit closure mask closed (negation is bit 3), and a non-zero
    matrix. Both are known here, so runners call the proof cores, which
    do not prove the hypothesis again. They share one MatrixViews record,
    built only when some hypothesis holds and without re-checking the
    rows (_chunk_families yields them distinct and in range), so each
    view of the family (its column sums, its complemented rows) is
    computed at most once.
    """
    if not any(values):
        return []
    tables = [t for t, mask in _HYPOTHESIS_MASKS if closed & mask == mask]
    views = MatrixViews(_packed_matrix(width, values)) if tables else None
    runs: list[tuple[str, Callable[[], object]]] = [
        (t.name, functools.partial(t.core, views)) for t in tables
    ]
    # Checked on (width, values): a matrix per tiny exhaustive family
    # would cost more than the check itself.
    runs.append(("complement_count_flip", lambda: _count_flip_consistent(width, values)))
    return runs


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
    unique = tuple(dict.fromkeys(gens))
    return closure(BinaryMatrix.from_values(width, unique), BoolOp(op_table)).row_values


def _chunk_families(args: tuple) -> Iterator[tuple[str, tuple[int, ...], int]]:
    """One chunk's families as (ref, rows, 16-bit closure mask).

    Exhaustive chunks walk family codes (one bit per possible row, rows
    in increasing binary order) and classify the whole chunk at once
    with row presence vectors; random chunks close their seeded
    generators and classify each family's row values with the affine
    kernel.
    """
    mode, width, part = args
    if mode == "exhaustive":
        rows = range(1 << width)
        for code, closed in zip(part, _closed_mask_coded(width, part)):
            yield f"f{code}", tuple(r for r in rows if code >> r & 1), closed
    else:
        for index, op_table, gens in part:
            values = _close_sample(width, op_table, gens)
            yield f"s{index}", values, _closed_mask_direct(width, values)


# --- campaign ----------------------------------------------------------------


def _new_aggregate() -> dict:
    """Counts in the summary's own shape, plus the failures to dump."""
    return {
        "families": 0,
        "closed_under": {name: 0 for _, name in _CLOSED_NAMES},
        "theorems": {
            name: {"applicable": 0, "passed": 0, "failed": 0} for name in THEOREM_NAMES
        },
        "frankl": {"or_closed_nonzero": 0, "failures": 0},
        "failures": [],
    }


def _check_family(
    width: int,
    ref: str,
    values: tuple[int, ...],
    closed: int,
    agg: dict,
) -> None:
    agg["families"] += 1
    closed_under = agg["closed_under"]
    for bit, name in _CLOSED_NAMES:
        if closed >> bit & 1:
            closed_under[name] += 1

    for name, runner in _theorem_runs(width, values, closed):
        counts = agg["theorems"][name]
        counts["applicable"] += 1
        try:
            ok = bool(runner())
            message = "" if ok else "check returned false"
        except ClosureLabError as exc:
            ok = False
            message = str(exc)
        if ok:
            counts["passed"] += 1
        else:
            counts["failed"] += 1
            agg["failures"].append((ref, name, message, width, list(values)))

    if closed & (1 << OR.table) and any(values):
        agg["frankl"]["or_closed_nonzero"] += 1
        n = len(values)
        if 2 * max(column_sums(width, values)) < n:
            agg["frankl"]["failures"] += 1
            agg["failures"].append(
                (ref, "union_closed_frankl", "no column reaches half the rows", width, list(values))
            )


def _run_chunk(args: tuple) -> dict:
    agg = _new_aggregate()
    for ref, rows, closed in _chunk_families(args):
        _check_family(args[1], ref, rows, closed, agg)
    return agg


def _merge(aggs: list[dict]) -> dict:
    """Sum chunk aggregates key by key, in chunk order: counts add and
    failure lists concatenate."""

    def add(total: dict, part: dict) -> None:
        for key, value in part.items():
            if isinstance(value, dict):
                add(total[key], value)
            else:
                total[key] += value

    total = _new_aggregate()
    for agg in aggs:
        add(total, agg)
    return total


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
    # The pool starts every worker up front; more than one per chunk
    # would only idle, and a single worker runs in-process.
    workers = min(cfg.parallelism, len(chunks))
    if workers == 1:
        results = [_run_chunk(c) for c in chunks]
    else:
        # Workers share no state, so any start method gives the same
        # results. Tasks of several chunks (about eight a worker) cut the
        # per-task cost and keep costly chunks balanced.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, len(chunks) // (8 * workers))
            results = list(pool.map(_run_chunk, chunks, chunksize=chunksize))
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
