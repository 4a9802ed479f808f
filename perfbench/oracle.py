"""Reference outputs for the CLI verbs, computed without closurelab.

Every function here takes rows as plain ints (most significant bit is
column 1) and returns the exact bytes the corresponding `closurelab`
verb must print, so the benchmark can check each timed response
byte-for-byte on any seed. The rules reproduced are the documented
ones: operator truth tables from their classical definitions, the
closure worklist order (generator rows first, new rows in discovery
order), the canonical form as the lexicographically smallest sorted
row tuple over column permutations (first such permutation in
lexicographic order), and each witness's choice of column.
"""

from __future__ import annotations

import json
from itertools import permutations

import numpy as np

SEMANTICS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "xnor": lambda a, b: 1 - (a ^ b),
    "nand": lambda a, b: 1 - (a & b),
    "nor": lambda a, b: 1 - (a | b),
    "imp": lambda a, b: (1 - a) | b,
    "abj": lambda a, b: a & (1 - b),
    "cimp": lambda a, b: a | (1 - b),
    "cabj": lambda a, b: (1 - a) & b,
}

#: Truth table of each named operator: bit (2a + b) is the output on (a, b).
TABLES = {
    name: sum(fn(a, b) << (2 * a + b) for a in (0, 1) for b in (0, 1))
    for name, fn in SEMANTICS.items()
}
_NAMES = {table: name for name, table in TABLES.items()}


def op_name(table: int) -> str:
    return _NAMES.get(table, f"tt:{table}")


def op_table(name: str) -> int:
    return TABLES[name] if name in TABLES else int(name[3:])


def apply(table: int, a: int, b: int, width: int) -> int:
    """Bitwise operator application: the union of the table's minterms."""
    out = 0
    if table & 1:
        out |= ~a & ~b
    if table & 2:
        out |= ~a & b
    if table & 4:
        out |= a & ~b
    if table & 8:
        out |= a & b
    return out & ((1 << width) - 1)


def negate(v: int, width: int) -> int:
    return v ^ ((1 << width) - 1)


def row_text(v: int, width: int) -> str:
    return format(v, f"0{width}b")


def col_sums(rows: list[int], width: int) -> list[int]:
    return [sum((v >> (width - j)) & 1 for v in rows) for j in range(1, width + 1)]


def dump_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def format_bm(rows: list[int], width: int) -> str:
    return "".join(row_text(v, width) + "\n" for v in rows)


def format_fam(rows: list[int], width: int) -> str:
    out = [f"ground {width}\n"]
    for v in rows:
        elems = [str(j) for j in range(1, width + 1) if (v >> (width - j)) & 1]
        out.append(" ".join(elems) + "\n" if elems else "-\n")
    return "".join(out)


# --- closure ------------------------------------------------------------------


def is_closed(rows: list[int], width: int, op: str) -> bool:
    present = set(rows)
    if op == "not":
        return all(negate(v, width) in present for v in rows)
    table = op_table(op)
    return all(apply(table, a, b, width) in present for a in rows for b in rows)


def closure(rows: list[int], width: int, op: str, limit: int | None = None) -> list[int]:
    """Worklist fixed point under a binary operator, in the documented
    discovery order.

    With a limit, stops early once more than `limit` rows are found.
    """
    out = list(rows)
    present = set(out)
    i = 0
    table = op_table(op)
    while i < len(out) and (limit is None or len(out) <= limit):
        a = out[i]
        for b in out[: i + 1]:
            for r in (apply(table, a, b, width), apply(table, b, a, width)):
                if r not in present:
                    present.add(r)
                    out.append(r)
        i += 1
    return out


def close_under_all(rows: list[int], width: int, ops: tuple[str, ...],
                    limit: int | None = None) -> list[int]:
    """Smallest superset closed under every listed operator (any order);
    with a limit, some superset of more than `limit` rows once that is sure."""
    current = list(dict.fromkeys(rows))
    while True:
        for op in ops:
            current = closure(current, width, op, limit)
            if limit is not None and len(current) > limit:
                return current
        if all(is_closed(current, width, op) for op in ops):
            return current


# --- canonical form -----------------------------------------------------------


def canonical(rows: list[int], width: int) -> tuple[list[int], list[int], list[int]]:
    """(sorted canonical rows, row_perm, col_perm) by exhaustive search."""
    n = len(rows)
    bits = np.array(
        [[(v >> (width - 1 - c)) & 1 for v in rows] for c in range(width)], dtype=np.int64
    )
    best_key = None
    best_perm = None
    for first in range(width):
        rest = [c for c in range(width) if c != first]
        perms = np.array([(first,) + p for p in permutations(rest)], dtype=np.int64)
        values = np.zeros((len(perms), n), dtype=np.int64)
        for pos in range(width):
            values |= bits[perms[:, pos]] << (width - 1 - pos)
        keys = np.sort(values, axis=1)
        cand = np.arange(len(perms))
        for col in range(n):
            column = keys[cand, col]
            cand = cand[column == column.min()]
        key = tuple(int(x) for x in keys[cand[0]])
        if best_key is None or key < best_key:
            best_key, best_perm = key, [int(c) for c in perms[cand[0]]]
    permuted = []
    for v in rows:
        out = 0
        for c in best_perm:
            out = (out << 1) | ((v >> (width - 1 - c)) & 1)
        permuted.append(out)
    row_perm = sorted(range(n), key=permuted.__getitem__)
    return sorted(permuted), row_perm, best_perm


# --- basis --------------------------------------------------------------------


def basis(rows: list[int]) -> list[int]:
    """Nonzero rows that are not the OR of the other rows they dominate."""
    atoms = []
    for r in rows:
        below = 0
        for o in rows:
            if o != r and o & r == o:
                below |= o
        if r and below != r:
            atoms.append(r)
    return sorted(atoms)


# --- verb outputs -------------------------------------------------------------


def psi_out(rows: list[int], width: int) -> bytes:
    sums = col_sums(rows, width)
    best = max(sums)
    return dump_json(
        {
            "psi": sorted(set(sums)),
            "max": best,
            "witness_column": sums.index(best) + 1,
            "frankl": 2 * best >= len(rows),
        }
    )


def check_all_out(rows: list[int], width: int) -> bytes:
    status = {op_name(t): is_closed(rows, width, op_name(t)) for t in range(16)}
    status["not"] = is_closed(rows, width, "not")
    return dump_json({"closed_under": status})


def check_op_out(rows: list[int], width: int, op: str) -> tuple[bytes, int]:
    closed = is_closed(rows, width, op)
    name = "not" if op == "not" else op_name(op_table(op))
    return dump_json({"op": name, "closed": closed}), 0 if closed else 1


def close_out(rows: list[int], width: int, op: str, fmt: str) -> bytes:
    out = closure(rows, width, op)
    if fmt == "text":
        return format_bm(out, width).encode()
    return dump_json(
        {"op": op_name(op_table(op)), "width": width, "rows": [row_text(v, width) for v in out]}
    )


def canon_out(rows: list[int], width: int, fmt: str) -> bytes:
    canon, row_perm, col_perm = canonical(rows, width)
    if fmt == "text":
        return format_bm(canon, width).encode()
    return dump_json(
        {
            "width": width,
            "rows": [row_text(v, width) for v in canon],
            "row_perm": row_perm,
            "col_perm": col_perm,
        }
    )


def basis_out(rows: list[int], width: int) -> bytes:
    vectors = basis(rows)
    return dump_json(
        {
            "width": width,
            "vectors": [row_text(v, width) for v in vectors],
            "rows": [
                {
                    "row": row_text(r, width),
                    "indices": [i for i, v in enumerate(vectors, 1) if v & r == v],
                }
                for r in rows
            ],
        }
    )


def _first_bit(v: int, width: int) -> int:
    return next(j for j in range(1, width + 1) if (v >> (width - j)) & 1)


def witness_column(rows: list[int], width: int, operator: str) -> int:
    """Column (or element, for topology) each witness construction names."""
    n = len(rows)
    if operator in ("not", "nand", "nor"):
        return 1
    if operator in ("xor", "xnor"):
        sums = col_sums(rows, width)
        return next(j for j, s in enumerate(sums, 1) if 2 * s >= n)
    if operator == "imp":
        atoms = basis([negate(v, width) for v in rows])
        return _first_bit(atoms[0], width) if atoms else 1
    members = [v for v in rows if v]
    smallest = min(members, key=lambda v: (bin(v).count("1"), _elements(v, width)))
    return _first_bit(smallest, width)


def _elements(v: int, width: int) -> tuple[int, ...]:
    return tuple(j for j in range(1, width + 1) if (v >> (width - j)) & 1)


def witness_out(rows: list[int], width: int, operator: str) -> bytes:
    column = witness_column(rows, width, operator)
    ones = col_sums(rows, width)[column - 1]
    return dump_json(
        {
            "operator": operator,
            "column_or_element": column,
            "ones": ones,
            "n": len(rows),
            "verified": True,
        }
    )
