"""LinearCode construction, parity checks, duality, classification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from chainring import (
    ChainRing,
    RingMatrix,
    classify,
    code_from_generators,
    dual,
    kernel_code,
    standard_form,
    weight_distribution,
)
from oracles import brute_kernel, identity_matrix, matmul, same_codewords, span_set, transpose

Z4 = ChainRing(2, 2)
Z8 = ChainRing(2, 3)
Z9 = ChainRing(3, 2)
Z125 = ChainRing(5, 3)
F2U2 = ChainRing(2, 2, "poly")

REFERENCE_Z4 = [(1, 0, 1), (0, 2, 0), (0, 0, 2)]
TINY_RINGS = [ChainRing(2, 1), Z4, Z8, Z9, F2U2]

# Parity checks pinned entry for entry: (ring, generators, H rows).  Most
# codes have three or more nonzero type levels and a column permutation.
PINNED_PARITY_CHECKS = {
    "z8": (
        Z8,
        [[3, 5, 6, 1, 3, 0], [2, 4, 6, 6, 4, 0], [4, 4, 4, 0, 4, 4]],
        ((6, 7, 7, 1, 0, 0), (4, 5, 0, 0, 1, 0), (1, 7, 7, 0, 0, 1), (2, 6, 2, 0, 0, 0),
         (4, 4, 0, 0, 0, 0)),
    ),
    "z27": (
        ChainRing(3, 3),
        [[7, 1, 0, 22, 8, 16], [3, 18, 9, 15, 9, 9], [24, 9, 24, 3, 9, 3], [18, 0, 9, 0, 9, 9]],
        ((13, 26, 21, 25, 1, 0), (20, 1, 19, 26, 0, 1), (3, 21, 0, 3, 0, 0), (18, 9, 0, 0, 0, 0),
         (0, 0, 9, 0, 0, 0)),
    ),
    "z32": (
        ChainRing(2, 5),
        [[13, 9, 1, 2, 31, 12, 9], [26, 24, 4, 12, 22, 16, 2], [16, 8, 16, 24, 0, 24, 8],
         [0, 0, 0, 0, 0, 16, 0]],
        ((21, 2, 30, 0, 1, 0, 0), (8, 31, 31, 1, 0, 0, 0), (17, 3, 31, 0, 0, 0, 1),
         (12, 30, 30, 0, 0, 2, 0), (8, 20, 4, 0, 0, 0, 0), (16, 16, 0, 0, 0, 0, 0)),
    ),
    "f2u3": (
        ChainRing(2, 3, "poly"),
        [[0, 1, 4, 6, 4, 6], [4, 4, 2, 4, 2, 6], [0, 0, 4, 4, 0, 4]],
        ((1, 0, 2, 0, 0, 0), (0, 6, 3, 1, 1, 0), (0, 2, 3, 0, 0, 1), (0, 4, 0, 2, 0, 0),
         (0, 0, 4, 0, 0, 0)),
    ),
    "f3u3": (
        ChainRing(3, 3, "poly"),
        [[7, 4, 13, 1, 14, 13], [13, 1, 18, 2, 9, 22], [3, 3, 6, 9, 9, 18], [9, 9, 18, 9, 9, 9]],
        ((5, 1, 21, 0, 3, 0), (20, 0, 5, 0, 5, 1), (21, 0, 12, 3, 0, 0), (0, 0, 9, 0, 9, 0)),
    ),
    "f2u5": (
        ChainRing(2, 5, "poly"),
        [[1, 8, 21, 24, 7, 19, 22], [16, 28, 0, 28, 4, 12, 8], [24, 24, 8, 8, 0, 24, 8],
         [0, 16, 16, 0, 16, 0, 16]],
        ((31, 7, 0, 0, 1, 0, 0), (5, 5, 1, 1, 0, 0, 0), (29, 7, 0, 0, 0, 1, 1),
         (0, 2, 0, 2, 0, 0, 0), (12, 4, 0, 0, 0, 4, 0), (0, 8, 0, 0, 0, 0, 0)),
    ),
    "zero": (ChainRing(3, 3, "poly"), [], ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    "full": (ChainRing(2, 3, "poly"), [[0, 1, 4], [1, 5, 2], [3, 0, 7]], ()),
}


@st.composite
def small_code(draw, rings=TINY_RINGS, max_rows=3, max_cols=4):
    ring = draw(st.sampled_from(rings))
    n = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    rows = [
        [draw(st.integers(0, ring.size - 1)) for _ in range(n)] for _ in range(nrows)
    ]
    return code_from_generators(ring, n, rows)


class TestConstruction:
    def test_reference_z4_code(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        assert code.profile.counts == (1, 2)
        assert code.rank == 3
        assert code.free_rank == 1
        assert code.cardinality == 16

    def test_free_reference_code_over_z125(self):
        code = code_from_generators(Z125, 4, [(1, 0, 57, 0), (0, 1, 0, 68)])
        assert code.profile.counts == (2, 0, 0)
        assert code.is_free
        assert code.cardinality == 15625

    def test_zero_code(self):
        code = code_from_generators(Z4, 3, [])
        assert code.profile.counts == (0, 0)
        assert code.cardinality == 1

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            code_from_generators(Z4, 3, [(1, 0)])

    def test_generator_rows_are_codewords(self):
        rows = [(2, 1, 3, 0), (1, 1, 2, 2)]
        code = code_from_generators(Z4, 4, rows)
        assert set(code.generator_matrix().rows) <= span_set(Z4, rows, 4)


class TestParityCheck:
    def test_reference_z4_dual_rows(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        assert code.parity_check().rows == ((0, 2, 0), (2, 0, 2))

    def test_free_code_systematic_form(self):
        code = code_from_generators(Z125, 4, [(1, 0, 57, 0), (0, 1, 0, 68)])
        h = code.parity_check()
        assert h.rows == ((68, 0, 1, 0), (0, 57, 0, 1))
        product = matmul(code.generator_matrix(), transpose(h))
        assert not any(map(any, product.rows))

    def test_full_space_has_empty_parity_check(self):
        code = code_from_generators(Z4, 3, identity_matrix(Z4, 3).rows)
        h = code.parity_check()
        assert h.nrows == 0
        assert h.ncols == 3

    def test_zero_code_parity_is_identity(self):
        code = code_from_generators(Z8, 3, [])
        assert code.parity_check().rows == identity_matrix(Z8, 3).rows

    @pytest.mark.parametrize("name", sorted(PINNED_PARITY_CHECKS))
    def test_pinned_rows(self, name):
        ring, generators, expected = PINNED_PARITY_CHECKS[name]
        n = len(expected[0]) if expected else len(generators[0])
        code = code_from_generators(ring, n, generators)
        assert code.parity_check().rows == expected

    def test_kernel_matches_codeword_set(self):
        # kernel scan over all of R^n must reproduce the span
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        h = code.parity_check()
        assert brute_kernel(Z4, h.rows, 3) == span_set(Z4, REFERENCE_Z4, 3)

    @settings(max_examples=50, deadline=None)
    @given(small_code())
    def test_orthogonality_random(self, code):
        product = matmul(code.generator_matrix(), transpose(code.parity_check()))
        assert not any(map(any, product.rows))

    @settings(max_examples=25, deadline=None)
    @given(small_code())
    def test_kernel_scan_random(self, code):
        if code.ring.size**code.n > 1 << 14:
            return
        kernel = brute_kernel(code.ring, code.parity_check().rows, code.n)
        rows = [list(r) for r in code.generator_matrix().rows]
        assert kernel == span_set(code.ring, rows, code.n)


class TestDual:
    def test_reference_z4_dual(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        d = dual(code)
        assert d.profile.counts == (0, 2)
        assert d.cardinality == 4

    def test_free_dual_over_z125(self):
        code = code_from_generators(Z125, 4, [(1, 0, 57, 0), (0, 1, 0, 68)])
        d = dual(code)
        assert d.is_free
        assert d.rank == 2

    def test_zero_code_dual_is_full_space(self):
        code = code_from_generators(Z8, 2, [])
        d = dual(code)
        assert d.profile.counts == (2, 0, 0)
        assert d.cardinality == 8**2

    @settings(max_examples=50, deadline=None)
    @given(small_code())
    def test_dual_type_formula(self, code):
        counts = code.profile.counts
        expected = (code.n - code.rank,) + tuple(reversed(counts[1:]))
        assert dual(code).profile.counts == expected

    @settings(max_examples=50, deadline=None)
    @given(small_code())
    def test_cardinality_product(self, code):
        ambient = code.ring.size**code.n
        assert code.cardinality * dual(code).cardinality == ambient

    @settings(max_examples=30, deadline=None)
    @given(small_code())
    def test_double_dual_same_codewords(self, code):
        assert same_codewords(dual(dual(code)), code)


class TestKernelCode:
    def test_reference_parity_matrix(self):
        h = RingMatrix.build(Z4, [(2, 0, 2), (0, 2, 0)])
        code = kernel_code(h)
        assert code.cardinality == 16
        assert same_codewords(code, code_from_generators(Z4, 3, REFERENCE_Z4))

    def test_identity_gives_zero_code(self):
        assert kernel_code(identity_matrix(Z9, 3)).cardinality == 1

    def test_zero_matrix_gives_full_space(self):
        h = RingMatrix.build(Z4, [(0, 0), (0, 0)])
        assert kernel_code(h).cardinality == 16

    @settings(max_examples=50, deadline=None)
    @given(small_code())
    def test_kernel_of_parity_check_is_the_code(self, code):
        assert same_codewords(kernel_code(code.parity_check()), code)

    @settings(max_examples=40, deadline=None)
    @given(small_code())
    def test_kernel_times_rowspace_covers_ambient(self, code):
        h = code.parity_check()
        rowspace_size = standard_form(h).profile.module_size(code.ring.p)
        assert kernel_code(h).cardinality * rowspace_size == code.ring.size**code.n


class TestClassify:
    def test_reference_z4_code_is_mdr(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        profile = classify(code, d=1, d_dual=1)
        assert profile.label == "MDR"
        assert profile.defect == 0
        # dual has rank 2 and distance 1, so its defect is 3 + 1 - 2 - 1 = 1
        assert profile.dual_defect == 1
        assert profile.sigma == 1

    def test_near_mds_over_z125(self):
        code = code_from_generators(Z125, 4, [(1, 0, 57, 0), (0, 1, 0, 68)])
        profile = classify(code, d=2, d_dual=2)
        assert profile.label == "NearMDS"
        assert profile.defect == 1
        assert profile.dual_defect == 1

    def test_full_space_is_mds(self):
        # the zero dual has distance n + 1, so the dual defect is 0
        code = code_from_generators(Z4, 3, identity_matrix(Z4, 3).rows)
        profile = classify(code, d=1, d_dual=4)
        assert (profile.label, profile.dual_defect, profile.sigma) == ("MDS", 0, 0)

    def test_negative_defect_rejected(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        with pytest.raises(ValueError, match="Singleton"):
            classify(code, d=2, d_dual=1)

    def test_negative_dual_defect_rejected(self):
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        with pytest.raises(ValueError, match="dual"):
            classify(code, d=1, d_dual=3)

    def test_distance_out_of_range_rejected(self):
        # d = 0 gave a defect above 1: the label "other".
        code = code_from_generators(Z4, 3, REFERENCE_Z4)
        with pytest.raises(ValueError, match=r"^distance 0 out of range 1..3$"):
            classify(code, 0, 1)

    def test_near_mdr_when_not_free(self):
        # type (1,1) over Z/4, defect and dual defect both 1
        code = code_from_generators(Z4, 3, [(1, 1, 1), (0, 2, 2)])
        d = weight_distribution(code).distance
        d_dual = weight_distribution(dual(code)).distance
        profile = classify(code, d, d_dual)
        if profile.defect == 1 and profile.dual_defect == 1:
            assert profile.label == "NearMDR"


class TestPermutationHandling:
    def test_user_coordinates_preserved(self):
        # generators that force a column swap during reduction
        rows = [(0, 2, 1), (0, 2, 0)]
        code = code_from_generators(Z4, 3, rows)
        assert set(rows) <= span_set(Z4, code.generator_matrix().rows, 3)
        h = code.parity_check()
        for row in rows:
            acc = [0] * h.nrows
            for r, hrow in enumerate(h.rows):
                s = 0
                for a, b in zip(row, hrow):
                    s = Z4.add(s, Z4.mul(a, b))
                acc[r] = s
            assert all(x == 0 for x in acc)
