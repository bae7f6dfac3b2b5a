"""Standard-form reduction, type profiles, submatrix machinery."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import chainring.matrix
from chainring import (
    CapExceededError,
    ChainRing,
    RingMatrix,
    TypeProfile,
    code_from_generators,
    count_submatrix_types,
    double_count_check,
    standard_form,
)
from oracles import identity_matrix, matmul, span_set, submatrix, transpose

Z4 = ChainRing(2, 2)
Z9 = ChainRing(3, 2)
Z125 = ChainRing(5, 3)
F2U2 = ChainRing(2, 2, "poly")

TINY_RINGS = [ChainRing(2, 1), Z4, ChainRing(2, 3), Z9, F2U2, ChainRing(3, 1)]


@st.composite
def small_matrix(draw, rings=TINY_RINGS, max_rows=3, max_cols=4):
    ring = draw(st.sampled_from(rings))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = tuple(
        tuple(draw(st.integers(0, ring.size - 1)) for _ in range(ncols))
        for _ in range(nrows)
    )
    return RingMatrix(ring, rows, ncols)


# Rings with room for several levels, on both backends.  From s = 3 on a
# column can lower a pivot's level while it has a lower entry elsewhere, the
# case a swap cannot take.
SCAN_RINGS = [
    Z4,
    ChainRing(2, 3),
    ChainRing(2, 4),
    Z9,
    F2U2,
    ChainRing(2, 3, "poly"),
    ChainRing(2, 4, "poly"),
    ChainRing(3, 2, "poly"),
]


@st.composite
def nonunit_matrix(draw, max_rows=4, max_cols=6):
    """Entries two thirds non-units (zero included), so columns often lower a
    pivot's level, and one third any element, so prefixes also reach full rank."""
    ring = draw(st.sampled_from(SCAN_RINGS))
    nonunits = st.sampled_from([c for c in range(ring.size) if ring.valuation(c) > 0])
    entry = st.one_of(nonunits, nonunits, st.integers(0, ring.size - 1))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = tuple(tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows))
    return RingMatrix(ring, rows, ncols)


def reduced_submatrix_tally(matrix: RingMatrix, nu: int) -> dict[TypeProfile, int]:
    """Oracle: reduce every nu-column submatrix on its own."""
    tally: dict[TypeProfile, int] = {}
    for cols in combinations(range(1, matrix.ncols + 1), nu):
        profile = standard_form(submatrix(matrix, cols)).profile
        tally[profile] = tally.get(profile, 0) + 1
    return tally


def spy_on_module_changes(monkeypatch) -> dict[str, list]:
    """Record the (old, new) level of every swap and the row index of every reshape."""
    seen: dict[str, list] = {"swap": [], "reshape": []}
    swap, reshape = chainring.matrix._swap, chainring.matrix._reshape

    def swap_spy(ring, row, v, e1, keep):
        seen["swap"].append((row[1], e1))
        return swap(ring, row, v, e1, keep)

    def reshape_spy(*args):
        seen["reshape"].append(args[3])
        return reshape(*args)

    monkeypatch.setattr(chainring.matrix, "_swap", swap_spy)
    monkeypatch.setattr(chainring.matrix, "_reshape", reshape_spy)
    return seen


def apply_permutation(matrix: RingMatrix, perm) -> RingMatrix:
    rows = tuple(tuple(row[src] for src in perm) for row in matrix.rows)
    return RingMatrix(matrix.ring, rows, matrix.ncols)


class TestStandardForm:
    def test_reference_z4_code_is_already_standard(self):
        g = RingMatrix.build(Z4, [(1, 0, 1), (0, 2, 0), (0, 0, 2)])
        result = standard_form(g)
        assert result.profile.counts == (1, 2)
        assert result.column_permutation == (0, 1, 2)
        assert result.reduced.rows == g.rows

    def test_identity_fixed_point(self):
        for ring in (Z4, Z125, F2U2):
            m = identity_matrix(ring, 4)
            result = standard_form(m)
            assert result.reduced.rows == m.rows
            assert result.profile.counts == (4,) + (0,) * (ring.s - 1)
            assert result.column_permutation == (0, 1, 2, 3)

    def test_unit_pivot_hidden_behind_gamma(self):
        g = RingMatrix.build(Z4, [(2, 1), (1, 1)])
        result = standard_form(g)
        assert result.profile.counts == (2, 0)
        assert result.reduced.rows == ((1, 0), (0, 1))
        # row spaces agree once the permutation is applied to the input
        permuted = apply_permutation(g, result.column_permutation)
        assert span_set(Z4, permuted.rows, 2) == span_set(Z4, result.reduced.rows, 2)

    def test_zero_and_empty_matrices(self):
        zero = RingMatrix.build(Z4, [(0, 0, 0), (0, 0, 0)])
        result = standard_form(zero)
        assert result.profile.counts == (0, 0)
        assert result.reduced.nrows == 0
        empty = RingMatrix(Z4, (), 3)
        assert standard_form(empty).profile.counts == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_row_space_preserved(self, matrix):
        result = standard_form(matrix)
        permuted = apply_permutation(matrix, result.column_permutation)
        assert span_set(matrix.ring, permuted.rows, matrix.ncols) == span_set(
            matrix.ring, result.reduced.rows, matrix.ncols
        )

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_idempotent(self, matrix):
        first = standard_form(matrix)
        second = standard_form(first.reduced)
        assert second.reduced.rows == first.reduced.rows
        assert second.profile == first.profile
        assert second.column_permutation == tuple(range(matrix.ncols))

    @settings(max_examples=60, deadline=None)
    @given(small_matrix(), st.randoms(use_true_random=False))
    def test_profile_invariant_under_row_shuffle_and_unit_scaling(self, matrix, rng):
        ring = matrix.ring
        units = [c for c in range(ring.size) if ring.valuation(c) == 0]
        rows = [
            tuple(ring.mul(u, x) for x in row)
            for row, u in ((r, rng.choice(units)) for r in matrix.rows)
        ]
        rng.shuffle(rows)
        transformed = RingMatrix(ring, tuple(rows), matrix.ncols)
        assert standard_form(transformed).profile == standard_form(matrix).profile

    @settings(max_examples=100, deadline=None)
    @given(nonunit_matrix(), st.randoms(use_true_random=False))
    def test_profile_invariant_under_row_operations_and_column_permutations(self, matrix, rng):
        # The type is that of the row space up to a permutation of
        # coordinates, which the depth-first column scan relies on.
        ring = matrix.ring
        units = [c for c in range(ring.size) if ring.valuation(c) == 0]
        rows = [list(row) for row in matrix.rows]
        for _ in range(rng.randrange(8)):
            if len(rows) >= 2 and rng.random() < 0.6:
                a, b = rng.sample(range(len(rows)), 2)
                f = rng.randrange(ring.size)
                rows[b] = [ring.add(x, ring.mul(f, y)) for x, y in zip(rows[b], rows[a])]
            elif rows:
                r, u = rng.randrange(len(rows)), rng.choice(units)
                rows[r] = [ring.mul(u, x) for x in rows[r]]
        perm = list(range(matrix.ncols))
        rng.shuffle(perm)
        operated = RingMatrix(ring, tuple(map(tuple, rows)), matrix.ncols)
        transformed = apply_permutation(operated, perm)
        assert standard_form(transformed).profile == standard_form(matrix).profile

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_block_shape(self, matrix):
        ring = matrix.ring
        result = standard_form(matrix)
        reduced = result.reduced.rows
        levels = [
            level
            for level, k in enumerate(result.profile.counts)
            for _ in range(k)
        ]
        assert sorted(levels) == levels
        for t, level in enumerate(levels):
            row = reduced[t]
            assert row[t] == ring.gamma_powers[level]
            assert min(ring.valuation(x) for x in row) == level
            for r, other in enumerate(reduced):
                if r == t:
                    continue
                # same or lower block: exact zero; earlier blocks: reduced mod gamma^level
                assert ring.split(other[t], level)[1] == 0


class TestMatrixType:
    """The type of a matrix's row space, on matrices already in standard form
    and one that is not."""

    def test_gamma_row_and_zero_row(self):
        m = RingMatrix.build(Z4, [(2, 2), (0, 0)])
        assert standard_form(m).profile.counts == (0, 1)

    def test_mixed_valuations(self):
        m = RingMatrix.build(Z4, [(1, 0), (0, 2)])
        assert standard_form(m).profile.counts == (1, 1)

    def test_parity_check_of_free_reference_code(self):
        m = RingMatrix.build(Z125, [(68, 0, 1, 0), (0, 57, 0, 1)])
        assert standard_form(m).profile.counts == (2, 0, 0)

    def test_raw_profile_differs_from_canonical(self):
        # dependent unit rows: both rows have valuation 0, the canonical type counts one
        m = RingMatrix.build(Z4, [(1, 1), (1, 1)])
        assert [min(Z4.valuation(x) for x in row) for row in m.rows] == [0, 0]
        assert standard_form(m).profile.counts == (1, 0)


class TestSubmatrix:
    """The column selection of ``oracles``, which the scan tests rely on."""

    def test_identity_column_selection(self):
        m = identity_matrix(Z4, 3)
        picked = submatrix(m, [1, 3])
        assert picked.rows == ((1, 0), (0, 0), (0, 1))

    def test_reference_parity_columns(self):
        h = RingMatrix.build(Z4, [(0, 2, 0), (2, 0, 2)])
        assert submatrix(h, [1, 3]).rows == ((0, 0), (2, 2))

    def test_all_columns_is_identity_operation(self):
        m = RingMatrix.build(Z9, [(1, 2, 3), (4, 5, 6)])
        assert submatrix(m, [1, 2, 3]).rows == m.rows


class TestCountSubmatrixTypes:
    def test_free_reference_code_collapses(self):
        h = RingMatrix.build(Z125, [(68, 0, 1, 0), (0, 57, 0, 1)])
        tally = count_submatrix_types(h, 3)
        assert tally == {TypeProfile((2, 0, 0)): 4}

    def test_mixed_types_below_threshold(self):
        h = RingMatrix.build(Z4, [(0, 2, 0), (2, 0, 2)])
        tally = count_submatrix_types(h, 2)
        assert tally == {TypeProfile((0, 2)): 2, TypeProfile((0, 1)): 1}

    def test_full_width_single_subset(self):
        m = RingMatrix.build(Z4, [(1, 2, 3), (0, 2, 2)])
        tally = count_submatrix_types(m, 3)
        assert tally == {standard_form(m).profile: 1}

    @settings(max_examples=40, deadline=None)
    @given(small_matrix(), st.data())
    def test_totals(self, matrix, data):
        nu = data.draw(st.integers(1, matrix.ncols))
        tally = count_submatrix_types(matrix, nu)
        assert sum(tally.values()) == comb(matrix.ncols, nu)

    def test_matches_reduction_of_every_submatrix(self, monkeypatch):
        seen = spy_on_module_changes(monkeypatch)

        # Random draws reach the reshape in most runs, not all; these columns
        # (4,0), (2,1), (1,0) reach it and the swap in every run.
        @settings(max_examples=150, deadline=None)
        @given(nonunit_matrix())
        @example(RingMatrix.build(ChainRing(2, 4), [(4, 2, 1), (0, 1, 0)]))
        @example(RingMatrix.build(ChainRing(2, 4, "poly"), [(4, 2, 1), (0, 1, 0)]))
        def check(matrix):
            for nu in range(1, matrix.ncols + 1):
                assert count_submatrix_types(matrix, nu) == reduced_submatrix_tally(matrix, nu), nu

        check()
        assert seen["swap"] and seen["reshape"]

    @settings(max_examples=60, deadline=None)
    @given(nonunit_matrix(max_rows=3, max_cols=5))
    def test_double_count_kernel_side_matches_reduction_of_every_submatrix(self, matrix):
        ring, n = matrix.ring, matrix.ncols
        code = code_from_generators(ring, n, matrix.rows)
        parity = code.parity_check()
        for nu in range(n + 1):
            expected = sum(
                count * ring.size**nu // profile.module_size(ring.p)
                for profile, count in reduced_submatrix_tally(parity, nu).items()
            )
            assert double_count_check(code, nu).lhs == expected, nu

    def test_later_column_lowers_a_pivot_level(self, monkeypatch):
        # Columns (2,0) and (0,2) give two pivots of level 1; (1,1) has a unit
        # at the first of them, so it takes that row's place at level 0.
        seen = spy_on_module_changes(monkeypatch)
        h = RingMatrix.build(Z4, [(2, 0, 1), (0, 2, 1)])
        assert count_submatrix_types(h, 3) == {TypeProfile((1, 1)): 1}
        assert count_submatrix_types(h, 2) == {TypeProfile((0, 2)): 1, TypeProfile((1, 1)): 2}
        assert seen["swap"] and set(seen["swap"]) == {(1, 0)}
        assert not seen["reshape"]
        for nu in (1, 2, 3):
            assert count_submatrix_types(h, nu) == reduced_submatrix_tally(h, nu)

    def test_lower_entry_off_the_pivot_reshapes(self, monkeypatch):
        # Over Z/8, (2,1) meets the level-2 pivot of (4,0) with a 2, of
        # valuation 1, but its unit entry lies off that pivot: no swap keeps
        # the module's shape, so the row is rebuilt.
        seen = spy_on_module_changes(monkeypatch)
        h = RingMatrix.build(ChainRing(2, 3), [(4, 2), (0, 1)])
        assert count_submatrix_types(h, 2) == {TypeProfile((1, 0, 1)): 1}
        assert seen == {"swap": [], "reshape": [0]}
        assert count_submatrix_types(h, 2) == reduced_submatrix_tally(h, 2)

    def test_full_rank_prefix_counts_its_subtree(self, monkeypatch):
        # Once a prefix spans Z/4^2 no column is added to it, yet every
        # subset is counted.  The walk adds each column to its prefix's
        # module through _reduce from row 0 (_insert resumes further on).
        added_to = []
        reduce = chainring.matrix._reduce

        def spy(add, mul, neg, module, v, t):
            if t == 0:
                added_to.append(sorted(row[1] for row in module))
            return reduce(add, mul, neg, module, v, t)

        monkeypatch.setattr(chainring.matrix, "_reduce", spy)
        h = RingMatrix.build(Z4, [(1, 0, 2, 2, 0, 3), (0, 1, 2, 0, 2, 1)])
        for nu in range(1, 7):
            tally = count_submatrix_types(h, nu)
            assert tally == reduced_submatrix_tally(h, nu)
            assert sum(tally.values()) == comb(6, nu)
        # Levels [0, 0]: two free rows, the full rank of Z/4^2.
        assert added_to and [0, 0] not in added_to

    def test_matrix_without_rows(self):
        h = RingMatrix(F2U2, (), 4)
        assert count_submatrix_types(h, 2) == {TypeProfile((0, 0)): 6}

    def test_cap(self):
        m = RingMatrix(Z4, (tuple([1] * 30),), 30)
        with pytest.raises(CapExceededError, match="cap"):
            count_submatrix_types(m, 15, cap=10**4)

    def test_nu_bounds(self):
        m = identity_matrix(Z4, 3)
        with pytest.raises(ValueError):
            count_submatrix_types(m, 0)
        with pytest.raises(ValueError):
            count_submatrix_types(m, 4)


def free_rows(rng: random.Random, ring: ChainRing, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k rows of length n, drawn until they span a free code of rank k."""
    while True:
        rows = tuple(tuple(rng.randrange(ring.size) for _ in range(n)) for _ in range(k))
        if standard_form(RingMatrix(ring, rows, n)).profile.counts == (k,) + (0,) * (ring.s - 1):
            return rows


class TestScanAtTheBenchmarkShape:
    """Free [10, 5] codes over Z/4 and their F_2[u]/(u^2) twins (the same
    codes read as packed coefficients), the shape of the benchmark's subset
    scans: parity checks of 5 x 10, where the hypothesis draws stop at 4 x 6."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reduction_of_every_submatrix(self, seed, monkeypatch):
        seen = spy_on_module_changes(monkeypatch)
        rows = free_rows(random.Random(seed), Z4, 10, 5)
        for ring in (Z4, F2U2):
            code = code_from_generators(ring, 10, rows)
            assert code.is_free and code.rank == 5
            parity = code.parity_check()
            for nu in range(11):
                expected = reduced_submatrix_tally(parity, nu)
                if nu:
                    assert count_submatrix_types(parity, nu) == expected, (ring, nu)
                kernel_side = sum(
                    count * ring.size**nu // profile.module_size(ring.p)
                    for profile, count in expected.items()
                )
                assert double_count_check(code, nu).lhs == kernel_side, (ring, nu)
        # Some columns lower a pivot's level, so the walk's common step hands
        # them to the swap; a reshape needs s >= 3.
        assert seen["swap"] and not seen["reshape"]


# Rings above TABLE_RING_SIZE, whose ring.ops compute modulo p**s or digit by
# digit; every ring of SCAN_RINGS reads tables.
METHOD_SCAN_RINGS = [Z125, ChainRing(5, 3, "poly")]


@st.composite
def method_ring_nonunit_matrix(draw, max_rows=3, max_cols=5):
    """As nonunit_matrix, over METHOD_SCAN_RINGS."""
    ring = draw(st.sampled_from(METHOD_SCAN_RINGS))
    nonunits = st.integers(0, ring.size // ring.p - 1).map(lambda k: k * ring.p)
    entry = st.one_of(nonunits, nonunits, st.integers(0, ring.size - 1))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = tuple(tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows))
    return RingMatrix(ring, rows, ncols)


class TestScanAboveTheTableBound:
    def test_matches_reduction_of_every_submatrix(self, monkeypatch):
        seen = spy_on_module_changes(monkeypatch)

        # Columns (25,0), (5,1), (1,0): u^2 and u are the codes 25 and 5 on
        # the poly backend too, so both examples swap and reshape.
        @settings(max_examples=60, deadline=None)
        @given(method_ring_nonunit_matrix())
        @example(RingMatrix.build(Z125, [(25, 5, 1), (0, 1, 0)]))
        @example(RingMatrix(ChainRing(5, 3, "poly"), ((25, 5, 1), (0, 1, 0)), 3))
        def check(matrix):
            for nu in range(1, matrix.ncols + 1):
                assert count_submatrix_types(matrix, nu) == reduced_submatrix_tally(matrix, nu), nu

        check()
        assert seen["swap"] and seen["reshape"]


class TestTypeFormulas:
    def test_module_size(self):
        assert TypeProfile((1, 2)).module_size(2) == 16
        assert TypeProfile((2, 0, 0)).module_size(5) == 15625
        assert TypeProfile((0, 0)).module_size(3) == 1

    def test_dual_type(self):
        assert TypeProfile((1, 2)).dual(3) == TypeProfile((0, 2))
        assert TypeProfile((2, 0, 0)).dual(4) == TypeProfile((2, 0, 0))
        assert TypeProfile((1, 2, 3)).dual(7) == TypeProfile((1, 3, 2))


def rowspace_size(matrix: RingMatrix) -> int:
    """The cardinality formula p**sum((s-i) * k_i) on the type of the row space."""
    return standard_form(matrix).profile.module_size(matrix.ring.p)


class TestRowspaceSize:
    def test_reference_code(self):
        g = RingMatrix.build(Z4, [(1, 0, 1), (0, 2, 0), (0, 0, 2)])
        assert rowspace_size(g) == 16
        assert len(span_set(Z4, g.rows, 3)) == 16

    def test_identity_full_space(self):
        assert rowspace_size(identity_matrix(Z9, 3)) == 9**3

    def test_free_code_over_z125(self):
        g = RingMatrix.build(Z125, [(1, 0, 57, 0), (0, 1, 0, 68)])
        assert rowspace_size(g) == 15625

    @settings(max_examples=40, deadline=None)
    @given(small_matrix())
    def test_matches_span_oracle(self, matrix):
        assert rowspace_size(matrix) == len(
            span_set(matrix.ring, matrix.rows, matrix.ncols)
        )


class TestMatmul:
    """The reference product of ``oracles``, which the code tests rely on."""

    def test_identity_neutral(self):
        m = RingMatrix.build(Z9, [(1, 2, 3), (4, 5, 6)])
        assert matmul(m, identity_matrix(Z9, 3)).rows == m.rows
        assert matmul(identity_matrix(Z9, 2), m).rows == m.rows

    def test_transpose_involution(self):
        m = RingMatrix.build(Z4, [(1, 2, 3)])
        assert transpose(transpose(m)).rows == m.rows


class TestRingMatrixValidation:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="width"):
            RingMatrix(Z4, ((1, 2), (1,)), 2)

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            RingMatrix(Z4, ((7,),), 1)

    def test_build_requires_ncols_when_empty(self):
        with pytest.raises(ValueError, match="ncols"):
            RingMatrix.build(Z4, [])
