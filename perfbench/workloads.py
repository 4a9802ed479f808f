"""Workload definitions and seeded input generation.

Inputs depend only on the seed and the size ("full" or "tiny"), never on
closurelab: the verbs' input files and their expected responses come
from `oracle`, so a timed response can be checked on any seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

import oracle

WORKLOADS = ("exhaustive_w4", "random_w8", "verbs")
#: exhaustive_w4 runs here but is not in BENCHMARK.json: see README.md.
BENCHMARKED = ("random_w8", "verbs")
DEFAULT_SEED = 7

RANDOM_SAMPLES = {"full": 1000, "tiny": 40}

#: sha256 of the campaign summary JSON of the first pass at DEFAULT_SEED;
#: exhaustive mode has no random input, so its digest holds for every pass.
SUMMARY_SHA256 = {
    ("exhaustive_w4", "full"): "b08110258466940fb3fc85dfe907952588d604273226a49c54de044538b6009b",
    ("exhaustive_w4", "tiny"): "85ce1fc38b22768d233769c12b29a8e5df876e2d66258510434b76f2b46e5628",
    ("random_w8", "full"): "65d75e11d88669b92f9cebe17774fcc0423495a5f6dddf4b6cfd4ecb0ae2be8f",
    ("random_w8", "tiny"): "eb93b4ba6629986c38cadf61a835804b672859000ef2e1863360709e6dd297d7",
}


def pass_seed(seed: int, index: int) -> int:
    """Campaign seed of a run's pass `index`: the run seed itself first.

    A random_w8 pass costs what its few 128- and 256-row closures cost,
    and how many a seed draws varies a lot; giving every pass of a run its
    own seed makes one run cover many more families than a repeated seed.
    """
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def campaign_config(workload: str, seed: int, size: str, index: int = 0) -> dict:
    """Keyword arguments of the CampaignConfig that pass `index` runs."""
    if workload == "exhaustive_w4":
        return {"width": 3 if size == "tiny" else 4, "mode": "exhaustive", "parallelism": 1}
    return {
        "width": 8,
        "mode": "random",
        "sample_count": RANDOM_SAMPLES[size],
        "generator_count": 3,
        "seed": pass_seed(seed, index),
        "parallelism": 2,
    }


# --- verbs -------------------------------------------------------------------

#: Rows of the large matrix, at width 16.
_BIG_ROWS = {"full": 20000, "tiny": 500}
_SPACE_WIDTHS = (8, 9, 10, 11, 12)
#: (width, rows) of the canon inputs. Branch and bound over column
#: permutations costs 5-80 ms for a random 4x9 or 6x8 matrix, but about
#: 1 s for 16x9 and 38 s for 64x10, so wider inputs are left out to keep
#: a pass short and its slowest requests the steady large-file ones.
_CANON_SHAPES = {
    "full": ((6, 10), (6, 11), (6, 12), (6, 13), (7, 8), (7, 9), (7, 10), (7, 8),
             (8, 5), (8, 6), (9, 4), (9, 4)),
    "tiny": ((6, 8), (6, 10), (7, 6), (7, 8)),
}
_WITNESS_OPS = ("not", "nand", "nor", "xor", "xnor", "imp", "topology")
_CLOSE_OPS = ("and", "or", "xor", "xnor", "imp", "abj")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _distinct(rng: random.Random, width: int, count: int) -> list[int]:
    return rng.sample(range(1 << width), count)


def _sized_closure(rng, width, ops, low, high, gens=None) -> list[int]:
    """Closure of a few random rows under `ops`, resampled into [low, high] rows."""
    for _ in range(1000):
        count = gens or rng.randrange(3, 6)
        rows = oracle.close_under_all(_distinct(rng, width, count), width, ops, high)
        if low <= len(rows) <= high:
            rng.shuffle(rows)
            return rows
    raise RuntimeError(f"no closure under {ops} with {low}..{high} rows at width {width}")


def closed_space(rng: random.Random, width: int, op: str, target: int) -> list[int]:
    """A row set closed under op (under and+or for "topology"), about target rows."""
    if op == "not":
        rows: list[int] = []
        while len(rows) < target:
            v = rng.randrange(1 << width)
            if v not in rows and oracle.negate(v, width) not in rows:
                rows += [v, oracle.negate(v, width)]
        rng.shuffle(rows)
        return rows
    if op in ("nand", "nor"):
        # Three generators whose columns show t distinct patterns close to
        # every function of those patterns: exactly 2**t rows.
        t = target.bit_length() - 1
        patterns = rng.sample(range(8), t)
        cols = patterns + [rng.choice(patterns) for _ in range(width - t)]
        rng.shuffle(cols)
        gens = [sum(((p >> k) & 1) << (width - 1 - c) for c, p in enumerate(cols)) for k in range(3)]
        rows = oracle.closure(list(dict.fromkeys(gens)), width, op)
        rng.shuffle(rows)
        return rows
    if op in ("xor", "xnor"):
        k = target.bit_length() - 1
        return _sized_closure(rng, width, (op,), target, target, gens=k)
    ops = ("and", "or") if op == "topology" else (op,)
    return _sized_closure(rng, width, ops, target * 3 // 4, target * 5 // 4)


def make_verbs(seed: int, size: str, directory: Path) -> list[dict]:
    """Write the verbs inputs under directory; return the request list.

    Each request is {"verb", "args", "exit", "sha256"}: the argument list
    for the `closurelab` click group, and the exit code and sha256 of the
    stdout bytes it must produce.
    """
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    requests: list[dict] = []
    numbers = itertools.count(1)

    def write(rows: list[int], width: int, fam: bool = False) -> str:
        path = directory / f"in{next(numbers):03d}.{'fam' if fam else 'bm'}"
        text = oracle.format_fam(rows, width) if fam else oracle.format_bm(rows, width)
        path.write_text(text)
        return str(path)

    def add(verb: str, args: list[str], out: bytes, code: int = 0):
        requests.append({"verb": verb, "args": args, "exit": code, "sha256": _sha(out)})

    tiny = size == "tiny"
    sizes = (8, 16) if tiny else (32, 64)

    # Closed spaces at widths 8-12: witness, check-closure (all 17), psi.
    spaces = []
    for i, op in enumerate(_WITNESS_OPS * 2):
        width = _SPACE_WIDTHS[i % len(_SPACE_WIDTHS)]
        rows = closed_space(rng, width, op, sizes[i % 2])
        spaces.append((op, width, rows))
        path = write(rows, width, fam=(op == "topology"))
        add("witness", ["witness", op, path], oracle.witness_out(rows, width, op))
        add("check-closure", ["check-closure", path], oracle.check_all_out(rows, width))
        add("psi", ["psi", path], oracle.psi_out(rows, width))
        if op == "topology":
            add("convert", ["convert", path], oracle.format_bm(rows, width).encode())

    # Single-operator checks: the space's own operator, or another one.
    for op, width, rows in spaces[: 4 if tiny else 10]:
        name = rng.choice(_CLOSE_OPS) if rng.random() < 0.5 or op == "topology" else op
        out, code = oracle.check_op_out(rows, width, name)
        path = write(rows, width)
        add("check-closure", ["check-closure", path, "--op", name], out, code)

    # Fixed-point closure of a few generators.
    for i in range(6 if tiny else 12):
        width = _SPACE_WIDTHS[i % len(_SPACE_WIDTHS)]
        op = _CLOSE_OPS[i % len(_CLOSE_OPS)]
        target = sizes[1] // 2
        for _ in range(1000):
            gens = _distinct(rng, width, rng.randrange(2, 7))
            if target // 2 <= len(oracle.closure(gens, width, op, target * 3 // 2)) <= target * 3 // 2:
                break
        else:
            raise RuntimeError(f"no {op} closure of {target // 2}..{target * 3 // 2} rows")
        fmt = ("json", "text")[i % 2]
        path = write(gens, width)
        add("close", ["close", path, "--op", op, "--format", fmt],
            oracle.close_out(gens, width, op, fmt))

    # Canonical forms at widths 6-9.
    for i, (width, n) in enumerate(_CANON_SHAPES[size]):
        rows = _distinct(rng, width, n)
        fmt = ("json", "text")[i % 2]
        path = write(rows, width)
        add("canon", ["canon", path, "--format", fmt], oracle.canon_out(rows, width, fmt))

    # Bases of AND/ABJ-closed spaces, plus rows that have none (exit 1).
    for i in range(3 if tiny else 8):
        width = _SPACE_WIDTHS[i % len(_SPACE_WIDTHS)]
        rows = _sized_closure(rng, width, ("and", "abj"), sizes[0] * 3 // 4, sizes[0] * 5 // 4)
        add("basis", ["basis", write(rows, width)], oracle.basis_out(rows, width))
    for i in range(2):
        # Two overlapping rows, neither inside the other: no orthogonal basis.
        width = _SPACE_WIDTHS[i]
        shared, only_a, only_b = (1 << k for k in rng.sample(range(width), 3))
        add("basis", ["basis", write([shared | only_a, shared | only_b], width)], b"", 1)

    # Format conversion of spaces.
    for op, width, rows in spaces[: 3 if tiny else 6]:
        if op != "topology":
            add("convert", ["convert", write(rows, width)], oracle.format_fam(rows, width).encode())

    # The large matrix: parse-bound psi and conversion. These are the
    # slowest requests; psi on it is about an eighth of all requests, so
    # latency_p90_ms falls in the middle of that one request type.
    big = _distinct(rng, 16, _BIG_ROWS[size])
    big_path = write(big, 16)
    for _ in range(2 if tiny else 14):
        add("psi", ["psi", big_path], oracle.psi_out(big, 16))
    for _ in range(1 if tiny else 4):
        add("convert", ["convert", big_path], oracle.format_fam(big, 16).encode())

    rng.shuffle(requests)
    return requests
