"""Shared independent oracles for the test suite.

Everything here works on rows as plain tuples of 0/1 ints or sets of
elements (extracted from the library objects only through their text
rendering, format_matrix), so closure
checks, column counts and canonical forms are recomputed by a second
route that never touches the packed-integer implementation. The two
exceptions are canonical_form_oracle, the earlier column branch and
bound kept as the reference for the whole CanonicalForm, and
removal_basis_oracle, the earlier remove-expressible-rows construction
kept as the reference for compute_basis. random_closure is an input
generator, not an oracle: it draws seeded closed row sets with the
library's own closure.
"""

from __future__ import annotations

import random
from itertools import permutations

from closurelab import Basis, BinaryMatrix, closure, format_matrix
from closurelab.equivalence import CanonicalForm
from closurelab.errors import BasisVerificationFailed, PreconditionViolated

# Classical definitions of the ten named connectives on single bits.
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


def truth_fn(op):
    """op as a function of two bits: bit 2a + b of its truth table."""
    return lambda a, b: op.table >> (2 * a + b) & 1


def row_tuple(value: int, width: int) -> tuple[int, ...]:
    """A row value's bits, column 1 first, read from its binary text."""
    return tuple(int(ch) for ch in format(value, f"0{width}b"))


def row_texts(m: BinaryMatrix) -> list[str]:
    """The rows' text, one line of format_matrix each."""
    return format_matrix(m).splitlines()


def matrix_tuples(m: BinaryMatrix) -> list[tuple[int, ...]]:
    return [tuple(int(ch) for ch in text) for text in row_texts(m)]


def members(m: BinaryMatrix) -> tuple[frozenset[int], ...]:
    """The rows read as sets of their 1-based columns holding a one."""
    return tuple(frozenset(j for j, ch in enumerate(text, 1) if ch == "1") for text in row_texts(m))


def apply_tuple(fn, a, b):
    return tuple(fn(x, y) for x, y in zip(a, b))


def neg_tuple(a):
    return tuple(1 - x for x in a)


def closed_oracle(rows, fn) -> bool:
    """Pairwise closure check on tuple rows, all ordered pairs."""
    present = set(rows)
    return all(apply_tuple(fn, a, b) in present for a in present for b in present)


def neg_closed_oracle(rows) -> bool:
    present = set(rows)
    return all(neg_tuple(a) in present for a in present)


def closure_oracle(rows, fn) -> set:
    """Fixed-point closure on tuple rows."""
    present = set(rows)
    while True:
        fresh = {apply_tuple(fn, a, b) for a in present for b in present} - present
        if not fresh:
            return present
        present |= fresh


def column_count_oracle(rows, j) -> int:
    """Ones in 1-based column j of tuple rows."""
    return sum(r[j - 1] for r in rows)


def canonical_key_oracle(m: BinaryMatrix) -> tuple:
    """Brute-force minimum over all column permutations, rows sorted."""
    return _brute_force_canon(m)[0]


def first_col_perm_oracle(m: BinaryMatrix) -> tuple[int, ...]:
    """The lexicographically smallest column permutation (0-based)
    reaching the brute-force canonical key."""
    return _brute_force_canon(m)[1]


def _brute_force_canon(m: BinaryMatrix) -> tuple[tuple, tuple[int, ...]]:
    # permutations() yields in lexicographic order, and only a strictly
    # smaller key replaces the incumbent.
    rows = matrix_tuples(m)
    best = best_perm = None
    for perm in permutations(range(m.width)):
        key = tuple(sorted(tuple(r[c] for c in perm) for r in rows))
        if best is None or key < best:
            best, best_perm = key, perm
    return best, best_perm


def canonical_form_oracle(m: BinaryMatrix) -> CanonicalForm:
    """Exact canonical form by branch and bound over column permutations.

    Columns are placed left to right; a branch is cut when even the
    all-zero completion of its sorted row prefixes already exceeds the
    incumbent. Duplicate column patterns are tried only once per node
    (they generate identical subtrees). Deterministic: candidates are
    visited in ascending input-column order and the incumbent is only
    replaced on strict improvement, so col_perm is the lexicographically
    smallest column permutation reaching the canonical key.
    """
    w = m.width
    values = m.row_values
    n = len(values)
    colbits = [[(v >> (w - 1 - c)) & 1 for v in values] for c in range(w)]
    colpattern = [tuple(col) for col in colbits]

    best_key: tuple[int, ...] | None = None
    best_perm: tuple[int, ...] = ()

    def dfs(depth: int, prefixes: list[int], used: int, perm: list[int]):
        nonlocal best_key, best_perm
        if depth == w:
            key = tuple(sorted(prefixes))
            if best_key is None or key < best_key:
                best_key = key
                best_perm = tuple(perm)
            return
        shift = w - depth - 1
        tried = set()
        for c in range(w):
            if used & (1 << c) or colpattern[c] in tried:
                continue
            tried.add(colpattern[c])
            bits = colbits[c]
            newp = [(prefixes[i] << 1) | bits[i] for i in range(n)]
            if best_key is not None:
                # Lower bound: finish every row with zero bits.
                if tuple(q << shift for q in sorted(newp)) > best_key:
                    continue
            perm.append(c)
            dfs(depth + 1, newp, used | (1 << c), perm)
            perm.pop()

    dfs(0, [0] * n, 0, [])

    permuted = []
    for i in range(n):
        v = 0
        for c in best_perm:
            v = (v << 1) | colbits[c][i]
        permuted.append(v)
    row_perm = tuple(sorted(range(n), key=permuted.__getitem__))
    canon = BinaryMatrix.from_values(w, sorted(permuted))
    return CanonicalForm(canon, row_perm, best_perm)


def removal_basis_oracle(m: BinaryMatrix, descending: bool = False) -> Basis:
    """The basis by the paper's construction: remove every row that is
    the OR of two or more other remaining rows, in ascending (or
    descending) row order, then check that the surviving nonzero rows
    are pairwise orthogonal and that every row decomposes over them.

    A row is so expressible iff the OR of the other remaining rows it
    dominates equals it. On failure it raises PreconditionViolated when
    the rows are not closed under AND and ABJ (checked pair by pair),
    else BasisVerificationFailed, as compute_basis does.
    """
    remaining = set(m.row_values)
    for r in sorted(remaining, reverse=descending):
        if r == 0:
            continue
        dominated_or = 0
        for other in remaining:
            if other != r and other & r == other:
                dominated_or |= other
        if dominated_or == r:
            remaining.discard(r)
    survivors = sorted(v for v in remaining if v != 0)

    overlap = any(a & b for i, a in enumerate(survivors) for b in survivors[i + 1 :])
    # Disjoint survivors: the sum of those a row dominates is their OR.
    if overlap or any(v != sum(b for b in survivors if b & v == b) for v in m.row_values):
        present = set(m.row_values)
        if not all(a & b in present and a & ~b in present for a in present for b in present):
            raise PreconditionViolated("no basis: rows are not closed under both AND and ABJ")
        raise BasisVerificationFailed("the survivors are not an orthogonal basis")
    return Basis(m.width, tuple(survivors))


def all_families(width):
    """Every nonempty set of distinct width-bit rows, as value tuples."""
    size = 1 << width
    for code in range(1, 1 << size):
        yield tuple(r for r in range(size) if (code >> r) & 1)


def family_matrix(width, values) -> BinaryMatrix:
    return BinaryMatrix.from_values(width, values)


def random_distinct_matrix(rng: random.Random, width: int, n_rows: int) -> BinaryMatrix:
    values = rng.sample(range(1 << width), n_rows)
    return BinaryMatrix.from_values(width, values)


def random_closure(width: int, op, generator_count: int, rng: random.Random) -> BinaryMatrix:
    """closure under op of generator_count rows drawn uniformly with
    replacement, duplicates dropped: a random closed row set."""
    values = dict.fromkeys(rng.randrange(1 << width) for _ in range(generator_count))
    return closure(BinaryMatrix.from_values(width, tuple(values)), op)


def close_sets_oracle(members) -> set:
    """Fixed point of a family of frozensets under union and nonempty
    intersection (the empty set is added only if some pair forces it
    and it is already a member)."""
    fam = set(members)
    while True:
        fresh = set()
        for a in fam:
            for b in fam:
                u = a | b
                if u not in fam:
                    fresh.add(u)
                i = a & b
                if i and i not in fam:
                    fresh.add(i)
        if not fresh:
            return fam
        fam |= fresh
