"""MacWilliams transform, subset-count relations, moments, and the solvers."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from chainring import (
    ChainRing,
    IdentityContext,
    WeightDistribution,
    check_new_relation,
    code_from_generators,
    count_submatrix_types,
    double_count_check,
    dual,
    kernel_code,
    macwilliams_transform,
    mds_distribution,
    new_relation_report,
    power_moment,
    solve_distribution,
    solve_distribution_pless,
    weight_distribution,
)
from chainring.identities import binomial
from oracles import (
    brute_weight_counts,
    closed_form_crosscheck,
    identity_matrix,
    oracle_macwilliams,
    small_defect_distribution,
    submatrix,
)

Z4 = ChainRing(2, 2)
Z9 = ChainRing(3, 2)
Z125 = ChainRing(5, 3)

REFERENCE_Z4 = [(1, 0, 1), (0, 2, 0), (0, 0, 2)]
C1_ROWS = [(1, 0, 57, 0), (0, 1, 0, 68)]
C2_ROWS = [(1, 0, 5, 43), (0, 1, 82, 5)]


def reference_dist() -> WeightDistribution:
    return weight_distribution(code_from_generators(Z4, 3, REFERENCE_Z4))


def c1_dist() -> WeightDistribution:
    return weight_distribution(code_from_generators(Z125, 4, C1_ROWS))


def c1_context(**kwargs) -> IdentityContext:
    return IdentityContext(
        n=4, p=5, s=3, card=15625, rank=2, free_rank=2, **kwargs
    )


class TestBinomial:
    def test_out_of_range_vanishes(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0
        assert binomial(-2, 0) == 0
        assert binomial(4, 2) == 6


class TestMacWilliams:
    def test_reference_z4_example(self):
        out = macwilliams_transform(reference_dist())
        assert out.counts == (1, 1, 1, 1)
        assert out.card == 4

    def test_full_space_transforms_to_zero_code(self):
        code = code_from_generators(Z9, 3, identity_matrix(Z9, 3).rows)
        out = macwilliams_transform(weight_distribution(code))
        assert out.counts == (1, 0, 0, 0)

    def test_c1_roundtrip(self):
        dist = c1_dist()
        out = macwilliams_transform(dist)
        dual_dist = weight_distribution(dual(code_from_generators(Z125, 4, C1_ROWS)))
        assert out.counts == dual_dist.counts
        assert macwilliams_transform(out).counts == dist.counts

    def test_invalid_distribution_rejected(self):
        bad = WeightDistribution(
            n=3, counts=(1, 4, 6, 5), p=2, s=2, card=16, rank=3, free_rank=1
        )
        with pytest.raises(ValueError, match="not a valid weight distribution"):
            macwilliams_transform(bad)

    def test_negative_coefficient_rejected(self):
        # divisible by |C| = 4, but the transform is (1, -1, 1)
        bad = WeightDistribution(
            n=2, counts=(1, 0, 3), p=2, s=1, card=4, rank=2, free_rank=2
        )
        with pytest.raises(ValueError, match="negative count"):
            macwilliams_transform(bad)

    def test_matches_triple_sum_oracle_on_extended_corpus(self, extended_corpus):
        for entry in extended_corpus:
            for dist in (entry.dist, entry.dual_dist):
                assert macwilliams_transform(dist).counts == oracle_macwilliams(dist), entry.label

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1)]),
        st.sampled_from(["int", "poly"]),
        st.integers(1, 6),
        st.data(),
    )
    def test_matches_triple_sum_oracle_on_random_codes(self, ps, backend, n, data):
        ring = ChainRing(*ps, backend)
        element = st.integers(0, ring.size - 1)
        rows = data.draw(st.lists(st.lists(element, min_size=n, max_size=n), max_size=3))
        dist = weight_distribution(code_from_generators(ring, n, rows))
        assert macwilliams_transform(dist).counts == oracle_macwilliams(dist)

    def test_full_space_at_length_sixty_matches_oracle(self):
        # every binary word of length 60: the dual is the zero code
        dist = WeightDistribution(
            n=60, counts=tuple(comb(60, i) for i in range(61)),
            p=2, s=1, card=2**60, rank=60, free_rank=60,
        )
        out = macwilliams_transform(dist)
        assert out.counts == oracle_macwilliams(dist) == (1,) + (0,) * 60

    def test_dual_context_fields(self):
        out = macwilliams_transform(reference_dist())
        assert out.rank == 2  # n - k0
        assert out.free_rank == 0  # n - K

    def test_matches_enumerated_dual_on_extended_corpus(self, extended_corpus):
        for entry in extended_corpus:
            transformed = macwilliams_transform(entry.dist)
            assert transformed.counts == entry.dual_dist.counts, entry.label
            assert macwilliams_transform(transformed).counts == entry.dist.counts


class TestMacWilliamsPolynomialOracle:
    """Independent route: substitute into the enumerator with sympy and expand."""

    @staticmethod
    def via_sympy(dist):
        import sympy

        x, y = sympy.symbols("x y")
        q = dist.p**dist.s
        w = sum(
            a * x ** (dist.n - i) * y**i for i, a in enumerate(dist.counts)
        )
        transformed = sympy.expand(
            w.subs({x: x + (q - 1) * y, y: x - y}, simultaneous=True) / dist.card
        )
        poly = sympy.Poly(transformed, x, y)
        return tuple(int(poly.coeff_monomial(x ** (dist.n - k) * y**k)) for k in range(dist.n + 1))

    def test_reference_codes(self):
        for dist in (reference_dist(), c1_dist()):
            assert macwilliams_transform(dist).counts == self.via_sympy(dist)

    def test_random_small_codes(self, extended_corpus):
        for entry in extended_corpus[:15]:
            if entry.code.n > 5:
                continue
            assert macwilliams_transform(entry.dist).counts == self.via_sympy(entry.dist)


class TestNewRelation:
    def test_c1_at_nu_3(self):
        result = check_new_relation(c1_dist(), 3)
        assert (result.lhs, result.rhs, result.holds) == (500, Fraction(500), True)

    def test_total_count_at_full_width(self):
        dist = reference_dist()
        result = check_new_relation(dist, dist.n)
        assert result.lhs == 16
        assert result.holds

    def test_reference_z4_fails_below_threshold(self):
        result = check_new_relation(reference_dist(), 2, d_dual=1)
        assert (result.lhs, result.rhs) == (16, Fraction(12))
        assert not result.holds
        assert result.required is False  # threshold is nu > n - d_dual = 2

    def test_report_needs_dual_distance(self):
        with pytest.raises(ValueError, match="dual minimum distance"):
            new_relation_report(reference_dist(), None)

    def test_holds_above_threshold_on_extended_corpus(self, extended_corpus):
        for entry in extended_corpus:
            for check in new_relation_report(entry.dist, entry.d_dual):
                if check.required:
                    assert check.holds, (entry.label, check)


class TestDoubleCount:
    def test_reference_z4_kernel_sizes(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        parity = code.parity_check()
        sizes = sorted(
            kernel_code(submatrix(parity, cols)).cardinality
            for cols in ([1, 2], [1, 3], [2, 3])
        )
        assert sizes == [4, 4, 8]
        result = double_count_check(code, 2)
        assert result.kernel_side == result.codeword_side == 16

    def test_full_width_counts_the_code(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        result = double_count_check(code, 3)
        assert result.kernel_side == result.codeword_side == 16

    def test_c1_at_nu_3(self):
        code = code_from_generators(Z125, 4, C1_ROWS)
        result = double_count_check(code, 3)
        assert result.kernel_side == result.codeword_side == 500

    def test_kernel_side_matches_kernel_code_oracle(self, extended_corpus):
        # comb(8, 4) = 70 covers every nu of the corpus (n <= 8); the bound keeps
        # the kernel_code oracle fast if the corpus grows
        max_subsets = 70
        backends = set()
        for entry in extended_corpus:
            code = entry.code
            ring, n = code.ring, code.n
            parity = code.parity_check()
            for nu in range(n + 1):
                if comb(n, nu) > max_subsets:
                    continue
                expected = sum(
                    kernel_code(submatrix(parity, [c + 1 for c in cols])).cardinality
                    for cols in combinations(range(n), nu)
                )
                result = double_count_check(code, nu, distribution=entry.dist)
                assert result.kernel_side == expected, (entry.label, nu)
                if nu:
                    tally = count_submatrix_types(parity, nu)
                    weighted = sum(
                        count * ring.size**nu // profile.module_size(ring.p)
                        for profile, count in tally.items()
                    )
                    assert weighted == expected, (entry.label, nu)
                backends.add(ring.backend)
        assert backends == {"int", "poly"}

    def test_full_space_has_no_parity_rows(self):
        code = code_from_generators(Z9, 3, identity_matrix(Z9, 3).rows)
        for nu in range(4):
            result = double_count_check(code, nu)
            assert result.kernel_side == comb(3, nu) * 9**nu
            assert result.holds

    def test_every_nu_on_corpus_sample(self, corpus):
        for entry in corpus[:12]:
            for nu in range(entry.code.n + 1):
                result = double_count_check(entry.code, nu, distribution=entry.dist)
                assert result.holds, (entry.label, nu)


class TestPowerMoments:
    def test_reference_z4_full_form(self):
        dist = reference_dist()
        dual_dist = macwilliams_transform(dist)
        result = power_moment(dist, dual_dist, nu=1)
        assert result.lhs == 32
        assert result.rhs == Fraction(32)
        assert result.holds

    def test_nu_zero_counts_everything(self):
        dist = reference_dist()
        result = power_moment(dist, macwilliams_transform(dist), nu=0)
        assert result.lhs == dist.card
        assert result.holds

    def test_c1_pless_form(self):
        result = power_moment(c1_dist(), nu=1, form="pless")
        assert result.lhs == 62000
        assert result.rhs == Fraction(62000)
        assert result.holds

    def test_pless_rejected_at_dual_distance(self):
        with pytest.raises(ValueError, match="short form"):
            power_moment(c1_dist(), nu=2, form="pless")

    def test_full_form_needs_dual(self):
        with pytest.raises(ValueError, match="dual distribution"):
            power_moment(c1_dist(), nu=1, form="full")

    def test_moments_on_extended_corpus(self, extended_corpus):
        for entry in extended_corpus:
            for nu in range(entry.code.n + 1):
                full = power_moment(entry.dist, entry.dual_dist, nu=nu)
                assert full.holds, (entry.label, nu)
            for nu in range(entry.d_dual):
                short = power_moment(entry.dist, entry.dual_dist, nu=nu, form="pless")
                assert short.holds, (entry.label, nu)


class TestParametersOfAnotherCodeRefused:
    """A distribution, dual distribution or distance that belongs to another
    code: of another length, ring or size."""

    Z4_N4 = [(1, 0, 1, 1), (0, 1, 1, 2)]

    def test_double_count_refuses_a_distribution_of_another_length(self):
        # zip stopped at the shorter counts: holds=False.
        code = code_from_generators(Z4, 4, self.Z4_N4)
        other = weight_distribution(code_from_generators(Z4, 5, [(1, 0, 1, 1, 1), (0, 1, 1, 2, 3)]))
        with pytest.raises(
            ValueError,
            match=r"^the distribution is of length 5 over 2\*\*2 elements, not length 4 over 2\*\*2$",
        ):
            double_count_check(code, 4, distribution=other)

    def test_double_count_refuses_a_distribution_over_another_ring(self):
        # At nu = 0 both sides are 1 whatever the ring: holds=True.
        code = code_from_generators(Z4, 4, self.Z4_N4)
        other = weight_distribution(code_from_generators(Z9, 4, self.Z4_N4))
        with pytest.raises(ValueError, match=r"over 3\*\*2 elements, not length 4 over 2\*\*2$"):
            double_count_check(code, 0, distribution=other)

    def test_double_count_refuses_a_distribution_of_another_size(self):
        # holds=False, as if the identity failed.
        code = code_from_generators(Z4, 4, self.Z4_N4)
        other = weight_distribution(code_from_generators(Z4, 4, self.Z4_N4[:1]))
        with pytest.raises(ValueError, match="^the distribution counts 4 words, the code has 16$"):
            double_count_check(code, 4, distribution=other)

    def test_power_moment_refuses_a_dual_of_another_length(self):
        # dual_dist.counts[nu] past its end: IndexError.
        dist = c1_dist()
        other = macwilliams_transform(reference_dist())
        with pytest.raises(ValueError, match="^the dual distribution is of length 3 over 2"):
            power_moment(dist, other, nu=dist.n)

    def test_power_moment_refuses_a_dual_of_another_size(self):
        # holds=True at nu = 1, from a dual of 16 words where 4 belong.
        dist = reference_dist()
        other = weight_distribution(code_from_generators(Z4, 3, [(1, 1, 1), (0, 1, 2)]))
        with pytest.raises(ValueError, match=r"^\|C\| \|C_dual\| = 16 \* 16, not q\*\*n = 64$"):
            power_moment(dist, other, nu=1)

    def test_relation_refuses_a_dual_distance_past_the_length(self):
        # Read as nu > n - 40: required=True, holds=False.
        with pytest.raises(ValueError, match=r"^dual distance 40 out of range 1..5$"):
            check_new_relation(c1_dist(), 2, d_dual=40)


class TestIdentityContext:
    def test_from_profile_derives_consistent_cardinality(self):
        ctx = IdentityContext.from_profile(3, 2, 2, (1, 2), d=1, d_dual=1)
        assert ctx.card == 16
        assert ctx.rank == 3
        assert ctx.free_rank == 1
        assert solve_distribution(ctx, {1: 3, 2: 7}).counts == (1, 3, 7, 5)

    def test_from_profile_validates(self):
        with pytest.raises(ValueError, match="counts"):
            IdentityContext.from_profile(3, 2, 2, (1,))
        with pytest.raises(ValueError, match="^need 0 <= free_rank <= rank <= n, got 2, 3 and 2$"):
            IdentityContext.from_profile(2, 2, 2, (2, 1))

    def test_from_profile_applies_the_ring_rule(self):
        # s = 0 passed the length check with an empty profile, whose free
        # rank was read as counts[0]: IndexError.
        with pytest.raises(ValueError, match="^s must be an integer >= 1, got 0$"):
            IdentityContext.from_profile(3, 2, 0, ())

    def test_from_code_matches_from_profile(self, corpus):
        for entry in corpus[:10]:
            ctx = entry.context()
            derived = IdentityContext.from_profile(
                ctx.n, ctx.p, ctx.s, entry.code.profile.counts,
                d=entry.d, d_dual=entry.d_dual,
            )
            assert derived == ctx


class TestPascalSystem:
    """The truncated Pascal system, through ``solve_distribution``: one
    equation per nu above n - d_dual."""

    def test_needs_dual_distance(self):
        with pytest.raises(ValueError, match="dual minimum distance"):
            solve_distribution(c1_context(), {})

    def test_rhs_integral_on_corpus(self, corpus):
        # Every count known: the solver only checks the knowns against each row.
        for entry in corpus[:30]:
            known = dict(enumerate(entry.dist.counts))
            assert solve_distribution(entry.context(), known) == entry.dist, entry.label

    def test_column_subsets_stay_independent(self, corpus):
        # any <= d_dual unknown counts must be determined by the equations
        import itertools

        for entry in corpus[:10]:
            ctx = entry.context()
            n, dd = ctx.n, ctx.d_dual
            for size in range(1, min(dd, 3) + 1):
                for cols in itertools.islice(
                    itertools.combinations(range(n + 1), size), 12
                ):
                    known = {l: a for l, a in enumerate(entry.dist.counts) if l not in cols}
                    solved = solve_distribution(dataclasses.replace(ctx, d=None), known)
                    assert solved == entry.dist, (entry.label, cols)


class TestSolveDistribution:
    def test_c1_from_single_known(self):
        ctx = c1_context(d=2, d_dual=2)
        assert solve_distribution(ctx, {2: 248}).counts == (1, 0, 248, 0, 15376)

    def test_c2_from_single_known(self):
        ctx = c1_context(d=2, d_dual=2)
        assert solve_distribution(ctx, {2: 8}).counts == (1, 0, 8, 480, 15136)

    def test_mds_code_needs_no_extras(self):
        # the Z/4 code spanned by (1, 1)
        code = code_from_generators(Z4, 2, [(1, 1)])
        assert weight_distribution(code).counts == (1, 0, 3)
        ctx = IdentityContext.from_code(code, d=2, d_dual=2)
        assert solve_distribution(ctx, {}).counts == (1, 0, 3)

    def test_reference_z4_mdr(self):
        ctx = IdentityContext(
            n=3, p=2, s=2, card=16, rank=3, free_rank=1, d=1, d_dual=1
        )
        assert solve_distribution(ctx, {1: 3, 2: 7}).counts == (1, 3, 7, 5)

    def test_underdetermined(self):
        ctx = IdentityContext(
            n=3, p=2, s=2, card=16, rank=3, free_rank=1, d=1, d_dual=1
        )
        with pytest.raises(ValueError, match="underdetermined"):
            solve_distribution(ctx, {1: 3})

    def test_negative_solution_flags_inconsistency(self):
        ctx = c1_context(d=2, d_dual=2)
        with pytest.raises(ValueError, match="inconsistent"):
            solve_distribution(ctx, {2: 300})

    def test_surplus_equation_mismatch_flags_inconsistency(self):
        code = code_from_generators(Z4, 2, [(1, 1)])
        ctx = IdentityContext.from_code(code, d=2, d_dual=2)
        with pytest.raises(ValueError, match="inconsistent"):
            solve_distribution(ctx, {2: 2})

    def test_known_contradicting_distance(self):
        ctx = c1_context(d=2, d_dual=2)
        with pytest.raises(ValueError, match="contradicts"):
            solve_distribution(ctx, {1: 5})

    # A_2 = 0 given, then A_2 = 0 solved from A_4: both deny d = 2.
    @pytest.mark.parametrize("known", [{2: 0}, {4: 15128}])
    def test_zero_count_at_distance_contradicts(self, known):
        with pytest.raises(ValueError, match="A_2 = 0 contradicts minimum distance 2"):
            solve_distribution(c1_context(d=2, d_dual=2), known)

    def test_missing_dual_distance(self):
        with pytest.raises(ValueError, match="dual minimum distance"):
            solve_distribution(c1_context(d=2), {2: 248})

    def test_reproduces_on_corpus_with_minimal_knowns(self, corpus):
        for entry in corpus:
            solved = solve_distribution(entry.context(), entry.minimal_knowns())
            assert solved.counts == entry.dist.counts, entry.label


class TestPlessSolver:
    def test_c1_matches_pascal_route(self):
        ctx = c1_context(d=2, d_dual=2)
        assert solve_distribution_pless(ctx, {2: 248}).counts == (1, 0, 248, 0, 15376)

    @pytest.mark.parametrize("known", [{2: 0}, {4: 15128}])
    def test_zero_count_at_distance_contradicts(self, known):
        with pytest.raises(ValueError, match="A_2 = 0 contradicts minimum distance 2"):
            solve_distribution_pless(c1_context(d=2, d_dual=2), known)

    def test_equivalence_on_extended_corpus(self, extended_corpus):
        for entry in extended_corpus[:60]:
            ctx = entry.context()
            knowns = entry.minimal_knowns()
            via_pascal = solve_distribution(ctx, knowns)
            via_pless = solve_distribution_pless(ctx, knowns)
            assert via_pascal.counts == via_pless.counts, entry.label


class TestMdsDistribution:
    def test_z4_length_two(self):
        assert mds_distribution(2, 1, 2, 2).counts == (1, 0, 3)

    def test_z9_derived_instance(self):
        dist = mds_distribution(3, 2, 3, 2)
        assert dist.counts == (1, 0, 24, 56)
        assert dist.counts == brute_weight_counts(Z9, [(1, 0, 1), (0, 1, 1)], 3)

    def test_full_rank_is_the_whole_space(self):
        dist = mds_distribution(3, 3, 2, 2)
        assert dist.counts == tuple(comb(3, i) * 3**i for i in range(4))

    def test_totals_and_relations(self):
        for n, k, p, s in [(4, 2, 2, 2), (5, 3, 2, 2), (3, 2, 5, 2), (4, 1, 3, 2)]:
            dist = mds_distribution(n, k, p, s)
            assert sum(dist.counts) == (p**s) ** k
            # the dual of an MDS code is MDS, so d_dual = k + 1
            for check in new_relation_report(dist, k + 1):
                if check.required:
                    assert check.holds, (n, k, p, s, check.nu)

    def test_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            mds_distribution(3, 0, 2, 2)


class TestSmallDefect:
    def test_reference_z4_mdr(self):
        ctx = IdentityContext(
            n=3, p=2, s=2, card=16, rank=3, free_rank=1, d=1, d_dual=1
        )
        assert small_defect_distribution(ctx, {1: 3, 2: 7}).counts == (1, 3, 7, 5)

    def test_c1_single_known(self):
        ctx = c1_context(d=2, d_dual=2)
        assert small_defect_distribution(ctx, {2: 248}).counts == (1, 0, 248, 0, 15376)

    def test_free_defect_zero_matches_closed_form(self):
        code = code_from_generators(Z4, 2, [(1, 1)])
        ctx = IdentityContext.from_code(code, d=2, d_dual=2)
        assert (
            small_defect_distribution(ctx, {}).counts
            == mds_distribution(2, 1, 2, 2).counts
        )

    def test_rejects_larger_defects(self):
        ctx = IdentityContext(
            n=4, p=2, s=2, card=4, rank=1, free_rank=1, d=1, d_dual=1
        )
        with pytest.raises(ValueError, match="defect"):
            small_defect_distribution(ctx, {})

    def test_needs_distance(self):
        with pytest.raises(ValueError, match="minimum distance"):
            small_defect_distribution(c1_context(d_dual=2), {})


class TestClosedFormCrossCheck:
    def test_c1_determinant_route(self):
        report = closed_form_crosscheck(c1_context(d=2, d_dual=2), {2: 248})
        assert report.agrees is True
        assert report.closed_form == (1, 0, 248, 0, 15376)
        assert "determinant" in report.note

    def test_zero_count_at_distance_contradicts(self):
        with pytest.raises(ValueError, match="contradicts minimum distance 2"):
            closed_form_crosscheck(c1_context(d=2, d_dual=2), {2: 0})

    def test_small_defect_codes_on_corpus(self, corpus):
        checked = 0
        for entry in corpus:
            if entry.defect not in (0, 1):
                continue
            report = closed_form_crosscheck(entry.context(), entry.minimal_knowns())
            assert report.solver.counts == entry.dist.counts, entry.label
            if report.closed_form is not None:
                assert report.agrees, (entry.label, report.note)
                checked += 1
        assert checked >= 10

    def test_mdr_closed_form_agrees(self, corpus):
        seen = 0
        for entry in corpus:
            if entry.defect != 0 or entry.code.is_free:
                continue
            report = closed_form_crosscheck(entry.context(), entry.minimal_knowns())
            if report.closed_form is not None:
                assert report.agrees, entry.label
                assert "inverse-Pascal" in report.note
                seen += 1
        assert seen >= 1


class TestEveryCountKnown:
    """No unknown left: the solvers only check the knowns against every row."""

    C1_COUNTS = (1, 0, 248, 0, 15376)

    @pytest.mark.parametrize("solve", [solve_distribution, solve_distribution_pless])
    def test_consistent_knowns_come_back(self, solve):
        known = {2: 248, 3: 0, 4: 15376}
        assert solve(c1_context(d=2, d_dual=2), known).counts == self.C1_COUNTS

    @pytest.mark.parametrize("solve", [solve_distribution, solve_distribution_pless])
    def test_inconsistent_knowns_are_refused(self, solve):
        # Same total as c1, so only the rows can tell.
        with pytest.raises(
            ValueError,
            match="^inconsistent inputs: the supplied values satisfy no common solution$",
        ):
            solve(c1_context(d=2, d_dual=2), {2: 248, 3: 1, 4: 15375})


class TestImpossibleInputsRefused:
    """A dual distance no code has, a ring that does not exist, and contexts
    that describe no code."""

    @pytest.mark.parametrize(
        "params, message",
        [
            pytest.param(
                dict(n=2, p=4, s=1, card=4, rank=1, free_rank=1),
                "p must be a prime integer, got 4",
                id="p-not-prime",
            ),
            pytest.param(
                dict(n=2, p=2, s=0, card=1, rank=0, free_rank=0),
                "s must be an integer >= 1, got 0",
                id="s-zero",
            ),
            pytest.param(
                dict(n=2, p=2, s=1, card=8, rank=3, free_rank=3),
                "need 0 <= free_rank <= rank <= n, got 3, 3 and 2",
                id="rank-above-length",
            ),
            pytest.param(
                dict(n=3, p=2, s=2, card=16, rank=1, free_rank=2),
                "need 0 <= free_rank <= rank <= n, got 2, 1 and 3",
                id="free-rank-above-rank",
            ),
            pytest.param(
                dict(n=3, p=2, s=2, card=1, rank=0, free_rank=-1),
                "need 0 <= free_rank <= rank <= n, got -1, 0 and 3",
                id="negative-free-rank",
            ),
            pytest.param(
                # The solver used to fail on it with "right-hand side at nu=3
                # is 3996/390625".
                dict(n=6, p=5, s=3, card=999, rank=3, free_rank=3),
                r"card 999 is not 5\*\*m with 9 <= m <= 9, the sizes of codes of rank 3 "
                r"and free rank 3 over a ring of 5\*\*3 elements",
                id="card-not-a-power-of-p",
            ),
            pytest.param(
                dict(n=3, p=2, s=2, card=32, rank=3, free_rank=1),
                r"card 32 is not 2\*\*m with 4 <= m <= 4, the sizes of codes of rank 3 "
                r"and free rank 1 over a ring of 2\*\*2 elements",
                id="card-of-another-type",
            ),
            pytest.param(
                dict(n=3, p=2, s=2, card=16, rank=2, free_rank=2, d=0),
                "distance 0 out of range 1..3",
                id="distance-zero",
            ),
            pytest.param(
                dict(n=3, p=2, s=2, card=16, rank=2, free_rank=2, d=4, d_dual=9),
                "distance 4 out of range 1..3",
                id="distance-above-length",
            ),
            pytest.param(
                # Singleton on both sides: d <= n - k + 1 and d_dual <= k + 1.
                dict(n=3, p=2, s=2, card=16, rank=2, free_rank=2, d=3, d_dual=4),
                r"distances 3 and 4 break the Singleton bound d \+ d_dual <= 5",
                id="distances-past-singleton",
            ),
        ],
    )
    def test_context_no_code_has(self, params, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            IdentityContext(**params)

    @pytest.mark.parametrize("solve", [solve_distribution, solve_distribution_pless])
    @pytest.mark.parametrize("d_dual", [0, -1, 6])
    def test_dual_distance_out_of_range(self, solve, d_dual):
        # d_dual = 0 stacked no row and returned (1, 0, 1000, 5000, 9624).
        with pytest.raises(ValueError, match=f"^dual distance {d_dual} out of range 1..5$"):
            solve(c1_context(d=2, d_dual=d_dual), {2: 1000, 3: 5000, 4: 9624})

    @pytest.mark.parametrize(
        "solve, nu, value",
        [
            # d_dual = 4 puts nu = 1 above the threshold: 4 * 5**6 / 5**9.
            (solve_distribution, 1, "4/125"),
            # and nu = 3 below it: (5**6 / 125**3) * 4 * 124**3.
            (solve_distribution_pless, 3, "7626496/125"),
        ],
    )
    def test_right_side_no_code_has(self, solve, nu, value):
        with pytest.raises(
            ValueError,
            match=f"^right-hand side at nu={nu} is {value}, not a nonnegative integer; "
            "the context is inconsistent$",
        ):
            solve(c1_context(d=2, d_dual=4), {})

    @pytest.mark.parametrize("solve", [solve_distribution, solve_distribution_pless])
    def test_dual_distance_n_plus_one_still_solves(self, solve):
        # The full space's dual is the zero code, of distance n + 1.
        ctx = IdentityContext(n=2, p=2, s=2, card=16, rank=2, free_rank=2, d_dual=3)
        assert solve(ctx, {}).counts == (1, 6, 9)

    @pytest.mark.parametrize(
        "p, s, message",
        [
            (4, 3, "p must be a prime integer, got 4"),
            (2, 0, "s must be an integer >= 1, got 0"),
            (2, 40, r"ring size 2\*\*40 exceeds the supported bound 2\*\*31"),
        ],
    )
    def test_mds_distribution_needs_a_ring(self, p, s, message):
        # p = 4 returned (1, 0, 0, 252, 3843); no ring of the library is
        # larger than 2**31.
        with pytest.raises(ValueError, match=f"^{message}$"):
            mds_distribution(4, 2, p, s)
