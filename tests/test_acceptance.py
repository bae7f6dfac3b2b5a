"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).  Every comparison is exact; the only
tolerances are the stated wall-clock budgets.
"""

from __future__ import annotations

import time
from itertools import product
from math import comb

from chainring import (
    ChainRing,
    IdentityContext,
    classify,
    code_from_generators,
    count_submatrix_types,
    double_count_check,
    dual,
    macwilliams_transform,
    new_relation_report,
    power_moment,
    solve_distribution,
    solve_distribution_pless,
    weight_distribution,
)
from oracles import mds_distribution, span_set
from seedcorpus import build_corpus

Z4 = ChainRing(2, 2)
Z9 = ChainRing(3, 2)
Z125 = ChainRing(5, 3)

C1_ROWS = [(1, 0, 57, 0), (0, 1, 0, 68)]
C2_ROWS = [(1, 0, 5, 43), (0, 1, 82, 5)]
REFERENCE_Z4 = [(1, 0, 1), (0, 2, 0), (0, 0, 2)]


def report(num: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {name}: {status}{suffix}")
    assert not failures, f"{name}: first failures: {failures[:5]}"


def test_criterion_01_reference_distributions_over_z125():
    failures = []
    expected = {
        "C1": (C1_ROWS, (1, 0, 248, 0, 15376)),
        "C2": (C2_ROWS, (1, 0, 8, 480, 15136)),
    }
    timings = []
    for label, (rows, want) in expected.items():
        code = code_from_generators(Z125, 4, rows)
        start = time.perf_counter()
        got = weight_distribution(code).counts
        elapsed = time.perf_counter() - start
        timings.append(elapsed)
        if got != want:
            failures.append((label, got))
        if elapsed >= 1.0:
            failures.append((label, f"{elapsed:.2f}s"))
    report(1, "reference distributions over Z/125", failures,
           f"15625 words each, {max(timings) * 1000:.0f}ms worst")


def test_criterion_02_reference_code_over_z4():
    failures = []
    code = code_from_generators(Z4, 3, REFERENCE_Z4)
    if code.profile.counts != (1, 2):
        failures.append(("type", code.profile.counts))
    if code.cardinality != 16:
        failures.append(("cardinality", code.cardinality))
    d = weight_distribution(code).distance
    if d != 1:
        failures.append(("d", d))
    if classify(code, d, 1).label != "MDR":
        failures.append(("label", classify(code, d, 1).label))
    dual_code = dual(code)
    expected_dual = span_set(Z4, [(2, 0, 2), (0, 2, 0)], 3)
    got_dual = span_set(Z4, dual_code.generator_matrix().rows, 3)
    if got_dual != expected_dual:
        failures.append(("dual span", sorted(got_dual)))
    d_dual = weight_distribution(dual_code).distance
    if d_dual != 1:
        failures.append(("d_dual", d_dual))
    report(2, "reference code over Z/4", failures)


def test_criterion_03_subset_relation_above_threshold():
    start = time.perf_counter()
    entries = build_corpus()  # built inside the timing budget on purpose
    failures = []
    for entry in entries:
        for check in new_relation_report(entry.dist, entry.d_dual):
            if check.required and not check.holds:
                failures.append((entry.label, check.nu, check.lhs, check.rhs))
    elapsed = time.perf_counter() - start
    if len(entries) < 100:
        failures.append(("corpus size", len(entries)))
    if elapsed >= 60.0:
        failures.append(("elapsed", f"{elapsed:.1f}s"))
    report(3, "subset relation above the dual threshold", failures,
           f"{len(entries)} codes, {elapsed:.1f}s")


def test_criterion_04_double_count_unconditional(corpus):
    failures = []
    checked = 0
    for entry in corpus:
        n = entry.code.n
        for nu in range(n + 1):
            if comb(n, nu) > 10**4:
                continue
            result = double_count_check(entry.code, nu, distribution=entry.dist)
            checked += 1
            if not result.holds:
                failures.append((entry.label, nu, result))
    report(4, "unconditional double count", failures, f"{checked} (code, nu) pairs")


def test_criterion_05_macwilliams_consistency(corpus):
    failures = []
    for entry in corpus:
        transformed = macwilliams_transform(entry.dist)
        if transformed.counts != entry.dual_dist.counts:
            failures.append((entry.label, "forward"))
            continue
        if macwilliams_transform(transformed).counts != entry.dist.counts:
            failures.append((entry.label, "involution"))
    report(5, "MacWilliams consistency", failures, f"{len(corpus)} codes")


def test_criterion_06_submatrix_type_collapse(corpus):
    from chainring import TypeProfile

    failures = []
    checked = 0
    for entry in corpus:
        code = entry.code
        n = code.n
        counts = code.profile.counts
        dual_type = TypeProfile((n - code.rank,) + tuple(reversed(counts[1:])))
        parity = code.parity_check()
        for nu in range(max(n - entry.d_dual + 1, 1), n + 1):
            tally = count_submatrix_types(parity, nu)
            checked += 1
            if tally != {dual_type: comb(n, nu)}:
                failures.append((entry.label, nu, tally))
    report(6, "submatrix types collapse above the threshold", failures,
           f"{checked} (code, nu) pairs")


def test_criterion_07_solver_with_minimal_knowns(corpus):
    failures = []
    boundary_checked = 0
    for entry in corpus:
        ctx = entry.context()
        knowns = entry.minimal_knowns()
        try:
            solved = solve_distribution(ctx, knowns)
        except ValueError as exc:
            failures.append((entry.label, "solve raised", str(exc)))
            continue
        if solved.counts != entry.dist.counts:
            failures.append((entry.label, solved.counts))
            continue
        # one fewer known must tip the system into underdetermined
        extra = entry.extra_known_count
        if extra >= 1:
            reduced_knowns = dict(knowns)
            del reduced_knowns[max(knowns)]
            reduced_ctx = ctx
        elif extra == 0 and entry.d >= 2:
            reduced_knowns = {}
            reduced_ctx = IdentityContext.from_code(
                entry.code, d=entry.d - 1, d_dual=entry.d_dual
            )
        elif extra == 0:
            reduced_knowns = {}
            reduced_ctx = IdentityContext.from_code(entry.code, d_dual=entry.d_dual)
        else:
            continue  # free MDS: d alone already over-determines the system
        boundary_checked += 1
        try:
            solve_distribution(reduced_ctx, reduced_knowns)
            failures.append((entry.label, "expected underdetermined"))
        except ValueError as exc:
            if "underdetermined" not in str(exc):
                failures.append((entry.label, str(exc)))
    report(7, "solver needs exactly the stated knowns", failures,
           f"{len(corpus)} codes, {boundary_checked} boundary checks")


def test_criterion_08_mds_closed_form():
    failures = []
    found = 0
    for n in range(1, 6):
        for k in range(1, min(3, n) + 1):
            d_target = n - k + 1
            free_cols = n - k
            for flat in product(range(4), repeat=k * free_cols):
                rows = [
                    tuple(1 if i == j else 0 for j in range(k))
                    + tuple(flat[i * free_cols : (i + 1) * free_cols])
                    for i in range(k)
                ]
                code = code_from_generators(Z4, n, rows)
                dist = weight_distribution(code)
                if dist.distance != d_target:
                    continue
                found += 1
                closed = mds_distribution(n, k, 2, 2)
                if closed.counts != dist.counts:
                    failures.append((n, k, flat, dist.counts, closed.counts))
    z9 = mds_distribution(3, 2, 3, 2)
    z9_code = code_from_generators(Z9, 3, [(1, 0, 1), (0, 1, 1)])
    if z9.counts != (1, 0, 24, 56) or weight_distribution(z9_code).counts != z9.counts:
        failures.append(("Z/9 instance", z9.counts))
    if found == 0:
        failures.append(("no MDS codes found",))
    report(8, "MDS closed form against exhaustive search", failures,
           f"{found} free MDS codes over Z/4")


def test_criterion_09_power_moments(corpus):
    failures = []
    for entry in corpus:
        for nu in range(entry.d_dual):
            check = power_moment(entry.dist, entry.dual_dist, nu=nu, form="pless")
            if not check.holds:
                failures.append((entry.label, "pless", nu))
        for nu in range(entry.code.n + 1):
            check = power_moment(entry.dist, entry.dual_dist, nu=nu, form="full")
            if not check.holds:
                failures.append((entry.label, "full", nu))
    c1 = code_from_generators(Z125, 4, C1_ROWS)
    check = power_moment(weight_distribution(c1), nu=1, form="pless")
    if not (check.lhs == check.rhs == 62000):
        failures.append(("C1 nu=1", check.lhs, check.rhs))
    report(9, "power moments (short and full forms)", failures, f"{len(corpus)} codes")


def test_criterion_10_system_equivalence(corpus):
    failures = []
    compared = 0
    for entry in corpus:
        ctx = entry.context()
        knowns = entry.minimal_knowns()
        try:
            via_pascal = solve_distribution(ctx, knowns)
            via_pless = solve_distribution_pless(ctx, knowns)
        except ValueError:
            continue  # not determined on one route; nothing to compare
        compared += 1
        if via_pascal.counts != via_pless.counts:
            failures.append((entry.label, via_pascal.counts, via_pless.counts))
    if compared < len(corpus) // 2:
        failures.append(("too few comparable codes", compared))
    report(10, "Pascal and power-moment systems agree", failures,
           f"{compared} codes compared")
