"""Row/column permutation equivalence via exact canonical forms.

The canonical representative of a matrix is the lexicographically
smallest matrix (rows read as binary numbers, concatenated top to
bottom) reachable by permuting columns and then sorting rows. Two
matrices are equivalent iff their canonical forms coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitcore import BinaryMatrix
from .errors import WidthCapExceeded

#: Canonicalization enumerates column permutations (with pruning); widths
#: beyond this are refused rather than silently slow.
CANON_WIDTH_CAP = 12


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """Canonical representative plus the permutations that produce it.

    row_perm[i] / col_perm[j] give the 0-based input row/column placed at
    canonical position i / j; applying both to the input reproduces the
    canonical matrix exactly.
    """

    matrix: BinaryMatrix
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]


def apply_permutations(
    m: BinaryMatrix, row_perm: tuple[int, ...], col_perm: tuple[int, ...]
) -> BinaryMatrix:
    """Reorder rows and columns: position i takes input index perm[i]."""
    w, values = m.width, m.row_values
    rows = []
    for i in row_perm:
        src = values[i]
        value = 0
        for c in col_perm:
            value = (value << 1) | ((src >> (w - 1 - c)) & 1)
        rows.append(value)
    return BinaryMatrix(w, tuple(rows))


def canonicalize(m: BinaryMatrix) -> CanonicalForm:
    """Exact canonical form by branch and bound over column permutations.

    Columns are placed left to right; a branch is cut when even the
    all-zero completion of its sorted row prefixes already exceeds the
    incumbent. Duplicate column patterns are tried only once per node
    (they generate identical subtrees). Deterministic: candidates are
    visited in ascending input-column order and the incumbent is only
    replaced on strict improvement.
    """
    w = m.width
    if w > CANON_WIDTH_CAP:
        raise WidthCapExceeded(f"canonicalization capped at width {CANON_WIDTH_CAP}, got {w}")
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


def are_equivalent(a: BinaryMatrix, b: BinaryMatrix) -> bool:
    """True iff b is a row/column permutation of a.

    Shape mismatch simply returns False; equivalence is a total
    predicate on pairs.
    """
    if a.width != b.width or a.n_rows != b.n_rows:
        return False
    return canonicalize(a).matrix == canonicalize(b).matrix
