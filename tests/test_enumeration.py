"""Exhaustive enumeration: distributions, word tables, minimum distance."""

from __future__ import annotations

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainring import (
    CapExceededError,
    ChainRing,
    WeightDistribution,
    code_from_generators,
    enumeration_cap,
    render_enumerator,
    weight_distribution,
)
from chainring import dual, macwilliams_transform, mds_distribution
from chainring.enumeration import (
    _BLOCK_CELLS,
    DEFAULT_ENUMERATION_CAP,
    ENUMERATION_CAP_ENV,
    _MessageSpace,
    _check_card,
    _histogram,
)
from chainring.code import _inverse_positions
from oracles import brute_weight_counts, identity_matrix, span_set

Z4 = ChainRing(2, 2)
Z8 = ChainRing(2, 3)
Z9 = ChainRing(3, 2)
Z125 = ChainRing(5, 3)
F2U3 = ChainRing(2, 3, "poly")

REFERENCE_Z4 = [(1, 0, 1), (0, 2, 0), (0, 0, 2)]
TINY_RINGS = [ChainRing(2, 1), Z4, Z8, Z9, F2U3]


@st.composite
def small_code(draw):
    ring = draw(st.sampled_from(TINY_RINGS))
    n = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 3))
    rows = [
        [draw(st.integers(0, ring.size - 1)) for _ in range(n)] for _ in range(nrows)
    ]
    return code_from_generators(ring, n, rows)


def word_tables(space: _MessageSpace):
    """Every word of the message space in message order, from the table builder."""
    return space.tables([(h, space.p) for h in space.digits.astype(space.acc)])


def codewords(code):
    """Every word of ``word_tables``, as element-code tuples in original coordinates."""
    take = _inverse_positions(code.std.column_permutation)
    for table in word_tables(_MessageSpace(code)):
        for row in table[:, take].tolist():
            yield tuple(row)


class TestWeightDistribution:
    def test_reference_z4_code(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        dist = weight_distribution(code)
        assert dist.counts == (1, 3, 7, 5)
        assert dist.counts == brute_weight_counts(Z4, REFERENCE_Z4, 3)

    def test_reference_pair_over_z125(self):
        c1 = code_from_generators(Z125, 4, [(1, 0, 57, 0), (0, 1, 0, 68)])
        c2 = code_from_generators(Z125, 4, [(1, 0, 5, 43), (0, 1, 82, 5)])
        assert weight_distribution(c1).counts == (1, 0, 248, 0, 15376)
        assert weight_distribution(c2).counts == (1, 0, 8, 480, 15136)

    def test_zero_code(self):
        dist = weight_distribution(code_from_generators(Z8, 4, []))
        assert dist.counts == (1, 0, 0, 0, 0)

    def test_full_space(self):
        from math import comb

        code = code_from_generators(Z9, 3, identity_matrix(Z9, 3).rows)
        dist = weight_distribution(code)
        assert dist.counts == tuple(comb(3, i) * 8**i for i in range(4))

    @settings(max_examples=50, deadline=None)
    @given(small_code())
    def test_matches_brute_force(self, code):
        rows = [list(r) for r in code.generator_matrix().rows]
        expected = brute_weight_counts(code.ring, rows, code.n)
        assert weight_distribution(code).counts == expected

    @settings(max_examples=30, deadline=None)
    @given(small_code(), st.randoms(use_true_random=False))
    def test_invariant_under_column_permutation_and_unit_scaling(self, code, rng):
        ring = code.ring
        baseline = weight_distribution(code).counts
        rows = [list(r) for r in code.generator_matrix().rows]
        units = [c for c in range(ring.size) if ring.valuation(c) == 0]
        scaled = [
            [ring.mul(u, x) for x in row]
            for row, u in ((r, rng.choice(units)) for r in rows)
        ]
        perm = list(range(code.n))
        rng.shuffle(perm)
        shuffled = [[row[j] for j in perm] for row in scaled]
        other = code_from_generators(ring, code.n, shuffled)
        assert weight_distribution(other).counts == baseline

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "8")
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        with pytest.raises(CapExceededError, match="cap"):
            weight_distribution(code)

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv(ENUMERATION_CAP_ENV, "8")
        assert enumeration_cap() == 8
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        with pytest.raises(CapExceededError):
            weight_distribution(code)
        monkeypatch.delenv(ENUMERATION_CAP_ENV)
        assert enumeration_cap() == DEFAULT_ENUMERATION_CAP

    def test_low_weights_vanish_below_distance(self, corpus):
        for entry in corpus[:20]:
            d = entry.d
            assert all(entry.dist.counts[i] == 0 for i in range(1, d))
            assert entry.dist.counts[d] > 0


class TestEnumerateCodewords:
    def test_reference_z4_code_distinct(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        words = list(codewords(code))
        assert len(words) == 16
        assert len(set(words)) == 16
        assert set(words) == brute_kernel_free_span()

    def test_zero_code_yields_zero_vector(self):
        code = code_from_generators(Z4, 3, [])
        assert list(codewords(code)) == [(0, 0, 0)]

    def test_count_matches_cardinality_over_z125(self):
        code = code_from_generators(Z125, 4, [(1, 0, 57, 0), (0, 1, 0, 68)])
        seen = set()
        for word in codewords(code):
            seen.add(word)
        assert len(seen) == 15625

    @settings(max_examples=30, deadline=None)
    @given(small_code())
    def test_yield_count_and_membership(self, code):
        words = list(codewords(code))
        assert len(words) == code.cardinality
        assert len(set(words)) == code.cardinality
        sample = words[:: max(1, len(words) // 8)]
        assert set(sample) <= span_set(code.ring, code.generator_matrix().rows, code.n)

    def test_original_coordinates_after_permutation(self):
        # reduction moves column 2 first; mapped back, the words are in user order
        rows = [(0, 2, 1), (0, 2, 0)]
        code = code_from_generators(Z4, 3, rows)
        words = set(codewords(code))
        assert words == span_set(Z4, rows, 3)


def brute_kernel_free_span():
    return span_set(Z4, REFERENCE_Z4, 3)


class TestMinDistance:
    """``WeightDistribution.distance``: the least positive weight, n + 1 for the zero code."""

    def test_reference_codes(self):
        assert weight_distribution(code_from_generators(Z4, 3, REFERENCE_Z4)).distance == 1
        c1 = code_from_generators(Z125, 4, [(1, 0, 57, 0), (0, 1, 0, 68)])
        assert weight_distribution(c1).distance == 2

    def test_full_space(self):
        code = code_from_generators(Z4, 2, identity_matrix(Z4, 2).rows)
        assert weight_distribution(code).distance == 1
        assert weight_distribution(dual(code)).distance == 3

    def test_zero_code_is_n_plus_one(self):
        for n in (0, 2):
            assert weight_distribution(code_from_generators(Z4, n, [])).distance == n + 1


class TestDistributionValidation:
    def test_rejects_wrong_length(self):
        from chainring import WeightDistribution

        with pytest.raises(ValueError, match="counts"):
            WeightDistribution(n=2, counts=(1, 0), p=2, s=2, card=1, rank=0, free_rank=0)

    def test_rejects_missing_zero_word(self):
        from chainring import WeightDistribution

        with pytest.raises(ValueError, match="zero word"):
            WeightDistribution(
                n=1, counts=(0, 1), p=2, s=2, card=1, rank=0, free_rank=0
            )

    def test_rejects_sum_mismatch(self):
        from chainring import WeightDistribution

        with pytest.raises(ValueError, match="total"):
            WeightDistribution(
                n=1, counts=(1, 1), p=2, s=2, card=4, rank=1, free_rank=1
            )


class TestLargeScale:
    """Sizes past one table of words, so the kernel runs many iterations."""

    def test_full_space_over_z9_length_six(self):
        from math import comb

        code = code_from_generators(Z9, 6, identity_matrix(Z9, 6).rows)
        assert code.cardinality == 531441  # many kernel iterations
        dist = weight_distribution(code)
        assert dist.counts == tuple(comb(6, i) * 8**i for i in range(7))

    def test_large_dual_of_sparse_code(self):
        # one deep-valuation row leaves a 390625-word dual over Z/125
        from chainring import dual

        code = code_from_generators(Z125, 3, [(25, 50, 100)])
        big = dual(code)
        assert big.cardinality == 390625
        dist = weight_distribution(big)
        assert sum(dist.counts) == 390625
        from chainring import macwilliams_transform

        assert macwilliams_transform(weight_distribution(code)).counts == dist.counts

    def test_stream_count_past_block_width(self):
        code = code_from_generators(Z4, 9, identity_matrix(Z4, 9).rows)
        assert code.cardinality == 1 << 18
        count = sum(1 for _ in codewords(code))
        assert count == 1 << 18


class TestEnumeratorRendering:
    def test_reference_polynomial(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        text = render_enumerator(weight_distribution(code))
        assert text == "X^3 + 3*X^2*Y + 7*X*Y^2 + 5*Y^3"

    def test_zero_code_polynomial(self):
        dist = weight_distribution(code_from_generators(Z4, 2, []))
        assert render_enumerator(dist) == "X^2"


def _systematic_rows(ring, n, k, seed):
    """The rows [I_k | random] of a free code of rank k, so |C| = q**k."""
    rng = random.Random(seed)
    return [
        [int(i == j) for j in range(k)] + [rng.randrange(ring.size) for _ in range(n - k)]
        for i in range(k)
    ]


def _systematic(ring, n, k, seed):
    return code_from_generators(ring, n, _systematic_rows(ring, n, k, seed))


class TestKernel:
    """The compare kernel: memory budget, no radix cliff, message order."""

    @pytest.mark.parametrize(
        "code",
        [
            pytest.param(_systematic(Z4, 14, 10, 0), id="free-z4-n14-k10"),
            pytest.param(_systematic(ChainRing(2, 2, "poly"), 14, 10, 0), id="free-f2u2-n14-k10"),
            pytest.param(dual(_systematic(ChainRing(3, 4, "poly"), 5, 2, 0)), id="dual-f3u4-n5-k2"),
            # uint32 table sums, as wide as the words they reduce to
            pytest.param(_systematic(ChainRing(257, 2), 2, 1, 0), id="free-z66049-n2-k1"),
        ],
    )
    def test_traced_peak_stays_under_one_mib(self, code):
        assert code.cardinality in (4**10, 81**3, 257**2)
        tracemalloc.start()
        try:
            weight_distribution(code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "code",
        [
            pytest.param(_systematic(Z4, 14, 10, 0), id="z4-n14"),
            pytest.param(_systematic(ChainRing(2, 8, "poly"), 4, 2, 0), id="f2u8-n4"),
        ],
    )
    def test_word_tables_count_plane_cells(self, code):
        space = _MessageSpace(code)
        assert space.width == code.n * (code.ring.s if code.ring.backend == "poly" else 1)
        sizes = [len(table) for table in word_tables(space)]
        assert sum(sizes) == code.cardinality
        assert max(sizes) * space.width <= _BLOCK_CELLS

    @pytest.mark.parametrize(
        "p, s, backend",
        [(257, 2, "int"), (65537, 1, "int"), (257, 2, "poly")],
        ids=["257-2", "65537-1", "257-2-poly"],
    )
    def test_large_radix_has_no_cliff(self, p, s, backend):
        ring = ChainRing(p, s, backend)
        code = code_from_generators(ring, 2, [(1, 3)])
        expected = mds_distribution(2, 1, p, s)
        assert weight_distribution(code).counts == expected.counts
        space = _MessageSpace(code)
        least = min(code.cardinality, _BLOCK_CELLS // space.width)
        sizes = [len(weights) for weights in space.weights()]
        assert sum(sizes) == code.cardinality
        assert min(sizes) >= least

    @pytest.mark.parametrize("backend", ["int", "poly"])
    def test_wide_counter_past_255(self, backend):
        # n >= 256 needs a uint16 counter; a uint8 one would wrap 300 to 44.
        ring = ChainRing(2, 2, backend)
        n = 300
        ones = code_from_generators(ring, n, [[1] * n])
        assert next(_MessageSpace(ones).weights()).dtype == np.uint16
        assert weight_distribution(ones).counts == (1,) + (0,) * (n - 1) + (3,)
        # Weights 100, 200 and 300: c*1 + e*(0^100 2^200), c in R, e in {0, 1}.
        rows = [[1] * n, [0] * 100 + [2] * 200]
        counts = weight_distribution(code_from_generators(ring, n, rows)).counts
        assert counts == brute_weight_counts(ring, rows, n)
        assert {w: c for w, c in enumerate(counts) if c} == {0: 1, 100: 1, 200: 1, 300: 5}

    @pytest.mark.parametrize(
        "p, s, n",
        [(65537, 1, 1), (3, 2, 6)],
        ids=["last-grid-masked", "grid-shrinks-midway"],
    )
    @pytest.mark.parametrize("backend", ["int", "poly"])
    def test_reused_buffers_leave_no_stale_cells(self, p, s, n, backend):
        # Full spaces: A_w = C(n, w) (q-1)^w.  Over Z/65537 the split digit's
        # last chunk leaves one word in the last iteration; over Z/9 and
        # F_3[u]/(u^2) a grid of fewer rows follows a longer one, so stale
        # rows of the earlier grid sit in the buffers past its end.
        from math import comb

        ring = ChainRing(p, s, backend)
        code = code_from_generators(ring, n, identity_matrix(ring, n).rows)
        sizes = [len(weights) for weights in _MessageSpace(code).weights()]
        assert len(sizes) >= 3
        assert any(b < a for a, b in zip(sizes, sizes[1:]))
        q = ring.size
        assert weight_distribution(code).counts == tuple(
            comb(n, w) * (q - 1) ** w for w in range(n + 1)
        )

    @pytest.mark.parametrize(
        "ring, rows",
        [
            (Z8, [(0, 2, 4, 1, 6), (0, 4, 0, 2, 2), (0, 0, 0, 4, 4)]),
            (ChainRing(5, 2), [(0, 5, 1, 7), (0, 10, 0, 15), (0, 0, 0, 5)]),
            (ChainRing(3, 2, "poly"), [(0, 3, 4, 2), (0, 0, 3, 6), (0, 1, 1, 1)]),
            (F2U3, [(0, 2, 1, 5, 4), (0, 4, 0, 6, 2), (0, 0, 4, 4, 0)]),
        ],
        ids=["z8", "z25", "f3u2", "f2u3"],
    )
    def test_stream_keeps_message_order(self, ring, rows):
        code = code_from_generators(ring, len(rows[0]), rows)
        levels = [lv for lv, k in enumerate(code.profile.counts) for _ in range(k)]
        reduced = code.std.reduced.rows
        perm = code.std.column_permutation
        expected = []
        # first reduced row most significant, coefficients below p**(s - level)
        for coeffs in product(*(range(ring.p ** (ring.s - lv)) for lv in levels)):
            word = [0] * code.n
            for c, row in zip(coeffs, reduced):
                word = [ring.add(w, ring.mul(c, x)) for w, x in zip(word, row)]
            original = [0] * code.n
            for j, src in enumerate(perm):
                original[src] = word[j]
            expected.append(tuple(original))
        assert len(set(expected)) == code.cardinality > 1
        assert list(perm) != sorted(perm)
        assert list(codewords(code)) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(1, 4),
        st.data(),
    )
    def test_int_and_poly_agree_when_s_is_one(self, p, n, data):
        rows = data.draw(
            st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=3)
        )
        counts = {
            backend: weight_distribution(
                code_from_generators(ChainRing(p, 1, backend), n, rows)
            ).counts
            for backend in ("int", "poly")
        }
        assert counts["int"] == counts["poly"] == brute_weight_counts(ChainRing(p, 1), rows, n)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]),
        st.integers(1, 5),
        st.data(),
    )
    def test_coefficient_planes_match_brute_force(self, ps, n, data):
        # Entries two thirds non-units, so rows of every level occur and the
        # shifted digit rows gamma**m * g carry into higher planes.
        ring = ChainRing(*ps, "poly")
        nonunits = st.integers(0, ring.size // ring.p - 1).map(lambda c: c * ring.p)
        entry = st.one_of(nonunits, nonunits, st.integers(0, ring.size - 1))
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
        code = code_from_generators(ring, n, rows)
        assert weight_distribution(code).counts == brute_weight_counts(ring, rows, n)

    @pytest.mark.parametrize(
        "ring, rows, counts",
        [
            (
                ChainRing(2, 8, "poly"),
                [(1, 3, 200, 77), (0, 2, 6, 130), (0, 0, 16, 48)],
                (1, 3, 97, 10033, 514154),
            ),
            (ChainRing(2, 8, "poly"), [(1, 0, 91, 166), (0, 1, 37, 250)], (1, 0, 257, 762, 64516)),
            (
                ChainRing(17, 2, "poly"),
                [(1, 0, 40, 17, 255), (0, 17, 34, 0, 68), (0, 0, 3, 5, 7)],
                (1, 0, 288, 656, 100992, 1317920),
            ),
            (
                ChainRing(3, 5, "poly"),
                [(1, 100, 242, 161), (0, 3, 57, 240)],
                (1, 0, 8, 304, 19370),
            ),
        ],
        ids=["f2u8-three-levels", "f2u8-free", "f17u2-two-levels", "f3u5-two-levels"],
    )
    def test_many_planes_and_wide_planes_keep_histograms(self, ring, rows, counts):
        # Histograms of the digit-by-digit builder that the planes replaced.
        # On F_3[u]/(u^5) an unreduced plane would overflow the uint8 sums.
        code = code_from_generators(ring, len(rows[0]), rows)
        assert weight_distribution(code).counts == counts


def _leveled_rows(ring, n, levels, rng):
    """Rows gamma**l_i * (e_i | tail) in shuffled columns, tails mostly non-units.

    Before the shuffle, column i < len(levels) carries gamma**l_i in row i
    alone, so the code has p**sum(s - l_i) words.
    """
    k = len(levels)
    nonunits = range(0, ring.size, ring.p)
    rows = []
    for i, level in enumerate(levels):
        tail = [
            rng.choice(nonunits) if rng.random() < 0.7 else rng.randrange(ring.size)
            for _ in range(n - k)
        ]
        row = [int(i == j) for j in range(k)] + tail
        rows.append([ring.mul(ring.gamma_powers[level], x) for x in row])
    order = list(range(n))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in rows]


class TestTableAccumulator:
    """Word tables sum their digits' multiples in a dtype sized from the digit
    count, and reduce once: (p-1)*(m-1) per digit must fit."""

    @pytest.mark.parametrize(
        "p, s, backend, levels, acc",
        [
            (2, 4, "int", [0, 0, 0, 0, 3], np.uint8),  # 17 digit rows: sums up to 255
            (2, 4, "int", [0, 0, 0, 0, 2], np.uint16),  # 18 digit rows: up to 270
            (2, 4, "int", [0] * 5, np.uint16),  # a free Z/16 code, 20 digit rows
            (2, 4, "poly", [0] * 5, np.uint8),  # its twin sums planes mod 2
            (257, 1, "int", [0, 0], np.uint32),  # sums reach 256*256 = 65,536
            (257, 1, "poly", [0, 0], np.uint32),
            (257, 2, "int", [0], np.uint32),
        ],
        ids=["z16-17", "z16-18", "z16-free", "f2u4-free", "z257", "f257", "z66049"],
    )
    def test_edges_match_the_dual_side(self, p, s, backend, levels, acc):
        ring = ChainRing(p, s, backend)
        n = len(levels) + 1
        code = code_from_generators(ring, n, _leveled_rows(ring, n, levels, random.Random(0)))
        space = _MessageSpace(code)
        assert space.acc == acc
        assert space.total == p ** sum(s - level for level in levels)
        expected = macwilliams_transform(weight_distribution(dual(code)))
        assert weight_distribution(code).counts == expected.counts

    @pytest.mark.parametrize("backend", ["int", "poly"])
    @pytest.mark.parametrize(
        "p, s, rows",
        [(257, 1, []), (2, 8, [[128, 0, 128]]), (2, 8, [[64, 128, 0]])],
        ids=["z257-zero", "z256-one-digit", "z256-two-digits"],
    )
    def test_accumulator_holds_the_modulus(self, backend, p, s, rows):
        # The one reduction takes m as an operand of the accumulator's dtype:
        # with no digit, or one of radix 2, the sums alone fit a byte and m does not.
        ring = ChainRing(p, s, backend)
        code = code_from_generators(ring, 3, rows)
        assert np.iinfo(_MessageSpace(code).acc).max >= ring.p ** (1 if backend == "poly" else s)
        assert weight_distribution(code).counts == brute_weight_counts(ring, rows, 3)

    @pytest.mark.parametrize("backend", ["int", "poly"])
    def test_sums_past_65535_match_the_oracle(self, backend):
        # Over Z/257 a unit entry negates to 256, and digit 256 times 256 is
        # 65,536: a uint16 sum would wrap it to 0, which is not 65,536 mod 257.
        ring = ChainRing(257, 1, backend)
        rows = [[1, 0, 256], [0, 1, 1]]
        code = code_from_generators(ring, 3, rows)
        assert _MessageSpace(code).acc == np.uint32
        assert weight_distribution(code).counts == brute_weight_counts(ring, rows, 3)

    def test_refuses_sums_past_uint64(self, monkeypatch):
        # Five digits of radix 2**31 - 1 could sum past 2**64; four cannot.
        ring = ChainRing(2**31 - 1, 1)
        four = code_from_generators(ring, 4, identity_matrix(ring, 4).rows)
        assert _MessageSpace(four).acc == np.uint64
        code = code_from_generators(ring, 5, identity_matrix(ring, 5).rows)
        monkeypatch.setenv(ENUMERATION_CAP_ENV, str(10**50))
        with pytest.raises(CapExceededError, match="uint64"):
            weight_distribution(code)


class TestMacWilliamsSide:
    """The enumerated distribution of C against the transform of C_dual's."""

    RINGS = [ChainRing(3, 4), ChainRing(5, 3), ChainRing(3, 4, "poly"), ChainRing(5, 3, "poly")]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(RINGS), st.integers(3, 6), st.data())
    def test_distribution_is_the_transform_of_the_duals(self, ring, n, data):
        # One side has between _BLOCK_CELLS and 2**21 words, so it spans at
        # least two grids: the equality passes leave grids early both on the
        # grid that holds the zero word and on grids that do not.
        p, s = ring.p, ring.s
        big = [e for e in range(1, s * n + 1) if _BLOCK_CELLS < p ** max(e, s * n - e) <= 1 << 21]
        e = data.draw(st.sampled_from(big), label="log_p |C|")
        k = data.draw(st.integers(-(-e // s), min(n, e)), label="rows")
        rng = data.draw(st.randoms(use_true_random=False))
        digits = [1] * k  # s - level of each row, summing to e
        while sum(digits) < e:
            i = rng.choice([i for i in range(k) if digits[i] < s])
            digits[i] += 1
        rows = _leveled_rows(ring, n, [s - d for d in digits], rng)
        code = code_from_generators(ring, n, rows)
        other = dual(code)
        assert code.cardinality == p**e
        assert max(code.cardinality, other.cardinality) > _BLOCK_CELLS
        expected = macwilliams_transform(weight_distribution(other))
        assert weight_distribution(code).counts == expected.counts


class TestPairHistogram:
    """uint8 weights counted by equality passes below n = 7 (from weight n
    down, leaving an array once every word in it is counted), two to a bin up
    to n = 63 (the odd last word on its own), and by the plain count above."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0, 1, 6, 7, 14, 63, 64, 255]), st.sampled_from([0, 1, None]), st.data())
    def test_matches_plain_bincount(self, n, skew, data):
        # n = 6 is the longest code counted by equality passes and 7 the
        # shortest counted in pairs; n = 63 is the widest pair table, 64 and
        # 255 take the plain count.
        # Arrays of zero, odd and even length, in a stream of up to four.
        # Skewed to weight n, the passes leave an array after the first few;
        # skewed to 0, they run to the last.
        weight = st.integers(0, n)
        if skew is not None:
            weight = st.one_of(*[st.just(skew * n)] * 3, weight)
        arrays = data.draw(st.lists(st.lists(weight, max_size=81), max_size=4))
        stream = [np.array(weights, dtype=np.uint8) for weights in arrays]
        expected = np.zeros(n + 1, dtype=np.int64)
        for weights in stream:
            expected += np.bincount(weights, minlength=n + 1)
        assert _histogram(iter(stream), n).tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [1, 6])
    def test_weight_above_n_comes_up_short(self, n):
        # A kernel that yielded weight 7 or 255 at n = 6 must not pass
        # WeightDistribution's check that the counts total |C|: the words
        # above n are never counted, so no array is ever left early.
        stream = [
            np.array([n] * 40 + [n + 1, 0], dtype=np.uint8),
            np.array([255] + [n] * 9, dtype=np.uint8),
        ]
        hist = _histogram(iter(stream), n)
        assert hist[0] == 1 and hist[n] == 49
        assert hist.sum() == sum(map(len, stream)) - 2

    @pytest.mark.parametrize("backend", ["int", "poly"])
    def test_last_uint8_length_reaches_weight_255(self, backend):
        # Weights 100, 155 and 255 at n = 255, the widest uint8 counters.
        ring = ChainRing(2, 2, backend)
        n = 255
        rows = [[1] * n, [0] * 100 + [2] * 155]
        code = code_from_generators(ring, n, rows)
        assert next(_MessageSpace(code).weights()).dtype == np.uint8
        counts = weight_distribution(code).counts
        assert counts == brute_weight_counts(ring, rows, n)
        assert {w: c for w, c in enumerate(counts) if c} == {0: 1, 100: 1, 155: 1, 255: 5}

    @pytest.mark.parametrize("backend", ["int", "poly"])
    def test_widest_pair_table_reaches_its_top_bin(self, backend):
        # Weights 20, 43 and 63 at n = 63: pairs of weight-63 words fill the
        # top bin, 63 + 256*63.
        ring = ChainRing(2, 2, backend)
        n = 63
        rows = [[1] * n, [0] * 20 + [2] * 43]
        code = code_from_generators(ring, n, rows)
        counts = weight_distribution(code).counts
        assert counts == brute_weight_counts(ring, rows, n)
        assert {w: c for w, c in enumerate(counts) if c} == {0: 1, 20: 1, 43: 1, 63: 5}

    @pytest.mark.parametrize(
        "code",
        [
            pytest.param(_systematic(ChainRing(2, 4), 5, 4, 0), id="equality-passes"),
            pytest.param(_systematic(Z4, 63, 8, 0), id="widest-pairs"),
            pytest.param(_systematic(Z4, 255, 8, 0), id="widest-uint8"),
        ],
    )
    def test_traced_peak_stays_under_one_mib(self, code):
        # 16**4 and 4**8 words: full grids of _BLOCK_CELLS words, two of them.
        assert code.cardinality >= 2 * _BLOCK_CELLS
        tracemalloc.start()
        try:
            weight_distribution(code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("backend", ["int", "poly"])
    @pytest.mark.parametrize(
        "n, rows, counts",
        [(0, [], (1,)), (1, [], (1, 0)), (1, [[1]], (1, 3)), (1, [[2]], (1, 1))],
        ids=["n0", "n1-zero", "n1-unit", "n1-ideal"],
    )
    def test_lengths_zero_and_one(self, backend, n, rows, counts):
        ring = ChainRing(2, 2, backend)
        assert weight_distribution(code_from_generators(ring, n, rows)).counts == counts
        assert counts == brute_weight_counts(ring, rows, n)

    @pytest.mark.parametrize("backend", ["int", "poly"])
    def test_skewed_weights_match_the_oracle(self, backend):
        # A free [5, 2] code over Z/81 or F_3[u]/(u^4): almost every word has
        # full weight, the case that stalls np.bincount.
        ring = ChainRing(3, 4, backend)
        rows = _systematic_rows(ring, 5, 2, 0)
        code = code_from_generators(ring, 5, rows)
        counts = weight_distribution(code).counts
        assert counts == brute_weight_counts(ring, rows, 5)
        assert counts[5] > 0.9 * code.cardinality

    @pytest.mark.parametrize("backend", ["int", "poly"])
    def test_wide_ring_code_with_odd_arrays(self, backend):
        # A free [5, 3] code over Z/81 or F_3[u]/(u^4): an inner table of
        # 3**7 = 2,187 words, so grids of an odd number of rows yield odd arrays.
        code = _systematic(ChainRing(3, 4, backend), 5, 3, 0)
        assert code.cardinality == 81**3
        assert any(len(weights) % 2 for weights in _MessageSpace(code).weights())
        expected = macwilliams_transform(weight_distribution(dual(code)))
        assert weight_distribution(code).counts == expected.counts


class TestDistributionParameters:
    """A distribution's ring and ranks follow the rules a code's do."""

    @pytest.mark.parametrize(
        "p, s, message",
        [(4, 1, "p must be a prime integer, got 4"), (2, 0, "s must be an integer >= 1, got 0")],
    )
    def test_rejects_a_ring_that_does_not_exist(self, p, s, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightDistribution(n=2, counts=(1, 0, 0), p=p, s=s, card=1, rank=0, free_rank=0)

    @pytest.mark.parametrize("p", [0, 1])
    def test_card_rule_applies_the_ring_rule_first(self, p):
        # Its loop divides by p: p = 1 never ended and p = 0 raised
        # ZeroDivisionError.
        with pytest.raises(ValueError, match=f"^p must be a prime integer, got {p}$"):
            _check_card(4, p, 1, 1, 1)

    @pytest.mark.parametrize("rank, free_rank", [(3, 0), (1, 2), (0, -1), (-1, -1)])
    def test_rejects_impossible_ranks(self, rank, free_rank):
        # rank 3 over n = 2 was accepted, and its transform had free_rank -1.
        with pytest.raises(ValueError, match="^need 0 <= free_rank <= rank <= n, got "):
            WeightDistribution(
                n=2, counts=(1, 0, 0), p=2, s=1, card=1, rank=rank, free_rank=free_rank
            )
