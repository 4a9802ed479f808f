"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every check is exact integer arithmetic; the stated runtime budgets are
asserted alongside the results (best of three timings for the
sub-millisecond ones, to keep scheduler noise out). The exhaustive
summaries of criterion 4 are also checked against the closed-form
closure counts.
"""

import functools
import hashlib
import random
import time

from closurelab import (
    ABJ,
    ALL_OPS,
    AND,
    CABJ,
    IMP,
    THEOREMS,
    CampaignConfig,
    column_sum,
    compute_basis,
    counterexample_block,
    counterexample_identity,
    decompose,
    is_closed,
    parse_matrix,
    psi,
    run_campaign,
    tilde_matrix,
    tilde_op,
)

from closurelab.operators import apply_values

from conftest import random_closure, removal_basis_oracle, row_texts, truth_fn

EXAMPLE1 = "0000\n1000\n1100\n0111\n1111\n"


def timed_best_of(repeats, fn):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def verdict(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_example_reproduction():
    m = parse_matrix(EXAMPLE1)
    elapsed, stats = timed_best_of(3, lambda: psi(m))
    ok = (
        stats.psi_set == frozenset({2, 3})
        and stats.max_psi == 3
        and stats.frankl_holds
        and elapsed < 0.001
    )
    verdict(1, ok, f"psi(example) = {{2,3}}, frankl holds, {elapsed*1000:.3f} ms")


def test_criterion_2_counterexamples():
    def check_all():
        for n in range(2, 11):
            m = counterexample_identity(n)
            assert is_closed(m, ABJ) and is_closed(m, AND)
            stats = psi(m)
            assert stats.max_psi == 1 and 2 * stats.max_psi < n + 1
        for n in range(1, 9):
            for k in range(1, n + 1):
                m = counterexample_block(n, k)
                assert is_closed(m, AND)
                assert psi(m).max_psi == k + 1
        shown = counterexample_block(5, 2)
        assert row_texts(shown) == [
            "110000", "101000", "000100", "000010", "000001", "100000", "000000",
        ]
        assert psi(shown).max_psi == 3 and 2 * 3 < 7
        return True

    elapsed, _ = timed_best_of(3, check_all)
    ok = elapsed < 0.010
    verdict(2, ok, f"identity and block counterexamples exact, {elapsed*1000:.2f} ms")


def test_criterion_3_exhaustive_theorem_sweep():
    required = (
        "negation_lemma",
        "nand_reduction",
        "nor_reduction",
        "xnor_group",
        "xor_group",
        "topology",
        "material_conditional",
        "tilde_preconditions",
        "imp_implies_or",
        "complement_count_flip",
    )
    s3 = run_campaign(CampaignConfig(width=3, mode="exhaustive", parallelism=1))
    t0 = time.perf_counter()
    s4 = run_campaign(CampaignConfig(width=4, mode="exhaustive", parallelism=1))
    elapsed = time.perf_counter() - t0
    ok = s3.families == 255 and s4.families == 65535 and elapsed < 60.0
    failures = 0
    for summary in (s3, s4):
        for name in required:
            counts = summary.theorems[name]
            failures += counts["failed"]
            ok = ok and counts["failed"] == 0 and counts["applicable"] > 0
            ok = ok and counts["applicable"] == counts["passed"]
    verdict(
        3,
        ok,
        f"m=3 and m=4 sweeps: {failures} theorem failures across "
        f"{s3.families + s4.families} families, m=4 in {elapsed:.1f} s single-threaded",
    )


#: sha256 of each width's exhaustive summary JSON.
EXHAUSTIVE_SHA256 = {
    1: "44e56893946bb0cde266a557ea2449424e98e3cbe2d89f6194dc70649e4ccede",
    2: "c7a07c84d17076cd63c01faa4cb0fa88ba5c46bdc1a3f8ebc8c89fbb39b3db5d",
    3: "85ce1fc38b22768d233769c12b29a8e5df876e2d66258510434b76f2b46e5628",
    4: "b08110258466940fb3fc85dfe907952588d604273226a49c54de044538b6009b",
}


@functools.cache
def exhaustive_summary(width):
    """The one-worker exhaustive summary at a width, run once per session."""
    return run_campaign(CampaignConfig(width=width, mode="exhaustive", parallelism=1))


def test_criterion_4_union_closed_desk_verification():
    checked = 0
    failures = 0
    changed = []
    for width in (1, 2, 3, 4):
        summary = exhaustive_summary(width)
        checked += summary.frankl["or_closed_nonzero"]
        failures += summary.frankl["failures"]
        digest = hashlib.sha256(summary.to_json().encode()).hexdigest()
        if digest != EXHAUSTIVE_SHA256[width]:
            changed.append(width)
    ok = failures == 0 and checked > 5000 and not changed
    verdict(
        4,
        ok,
        f"all {checked} OR-closed non-zero families at m <= 4 have a column "
        f"covering half the rows ({failures} failures); summary digests "
        f"changed at widths {changed or 'none'}",
    )


#: Per width: Moore families on that many points (OEIS A102896), subspaces
#: of F_2^width, and Bell numbers (partitions of the columns).
MOORE = {1: 2, 2: 7, 3: 61, 4: 2480}
SUBSPACES = {1: 2, 2: 5, 3: 16, 4: 67}
BELL = {1: 1, 2: 2, 3: 5, 4: 15}


def test_exhaustive_closure_counts_match_closed_forms():
    # Over the 2^N - 1 nonempty families of the N = 2^width rows:
    # - a constant table is closed exactly when its constant row is in;
    # - every family is closed under a projection;
    # - a negated projection (or negation) closes the families made of
    #   whole complementary pairs;
    # - the AND-closed families are the Moore families (those holding
    #   the all-ones row) and, but for {all-ones}, the same without it;
    # - XOR-closed families are the subspaces, and complementing every
    #   row maps them onto the XNOR-closed ones;
    # - NAND and NOR generate every table, so their closed families are
    #   the Boolean subalgebras, one per partition of the columns;
    # - imp, cimp, abj and cabj share their closed families by clone
    #   equality and complement duality.
    for width in (1, 2, 3, 4):
        n = 1 << width
        counts = exhaustive_summary(width).closed_under
        expected = {
            "tt:0": 2 ** (n - 1),
            "tt:15": 2 ** (n - 1),
            "tt:10": 2**n - 1,
            "tt:12": 2**n - 1,
            "not": 2 ** (n // 2) - 1,
            "tt:3": 2 ** (n // 2) - 1,
            "tt:5": 2 ** (n // 2) - 1,
            "and": 2 * MOORE[width] - 1,
            "or": 2 * MOORE[width] - 1,
            "xor": SUBSPACES[width],
            "xnor": SUBSPACES[width],
            "nand": BELL[width],
            "nor": BELL[width],
        }
        assert {name: counts[name] for name in expected} == expected, width
        assert counts["imp"] == counts["cimp"] == counts["abj"] == counts["cabj"], width


def test_criterion_5_basis_property_suite():
    rng = random.Random(20260810)
    t0 = time.perf_counter()
    spaces = 0
    for _ in range(1000):
        width = rng.randint(2, 8)
        m = random_closure(width, IMP, rng.randint(1, 4), rng)
        t = tilde_matrix(m)
        assert is_closed(t, AND) and is_closed(t, ABJ)
        b = compute_basis(t)
        assert b == removal_basis_oracle(t) == removal_basis_oracle(t, descending=True)
        index_sets = set()
        for row in t.row_values:
            d = decompose(row, b)
            ored = 0
            for i in d:
                ored |= b.vectors[i - 1]
            assert ored == row
            index_sets.add(d)
        assert len(index_sets) == t.n_rows  # decompositions are unique per row
        w = THEOREMS["material_conditional"].witness(m)
        recount = column_sum(m, w.column)
        assert recount == w.ones and 2 * recount >= m.n_rows
        spaces += 1
    elapsed = time.perf_counter() - t0
    ok = spaces == 1000 and elapsed < 30.0
    verdict(
        5,
        ok,
        f"{spaces} random conditional-closed spaces: preconditions, basis equal to "
        f"the removal construction in both orders, unique decomposition, witness "
        f"recount, {elapsed:.1f} s",
    )


def test_criterion_6_tilde_algebra():
    ok = True
    for op in ALL_OPS:
        dual = tilde_op(op)
        ok = ok and tilde_op(dual) == op
        for a in (0, 1):
            for b in (0, 1):
                ok = ok and truth_fn(dual)(1 - a, 1 - b) == 1 - truth_fn(op)(a, b)
    ok = ok and tilde_op(IMP) == CABJ
    rng = random.Random(6)
    for _ in range(100):
        width = rng.randint(1, 8)
        mask = (1 << width) - 1
        a = rng.randrange(1 << width)
        b = rng.randrange(1 << width)
        ta, tb = a ^ mask, b ^ mask
        lhs = apply_values(tilde_op(IMP).table, ta, tb, mask)
        ok = ok and lhs == apply_values(IMP.table, a, b, mask) ^ mask
        ok = ok and lhs == apply_values(AND.table, ta ^ mask, tb, mask)  # (not A~) and B~
    verdict(6, ok, "dual identity and involution exact over 16 ops x 4 pairs")


def test_criterion_7_campaign_determinism():
    one = run_campaign(CampaignConfig(width=3, mode="exhaustive", parallelism=1))
    eight = run_campaign(CampaignConfig(width=3, mode="exhaustive", parallelism=8))
    ok = one.to_json() == eight.to_json()
    verdict(7, ok, "m=3 campaign JSON byte-identical with 1 and 8 workers")
