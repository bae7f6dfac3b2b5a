"""Chain-ring arithmetic: canonical forms, valuations, units, both backends."""

from __future__ import annotations

import pickle
import random
import weakref
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from chainring import ChainRing, gamma_decompose, unit_inverse
from chainring.ring import BACKENDS, TABLE_RING_SIZE
from oracles import (
    brute_inverse,
    oracle_add,
    oracle_mul,
    oracle_neg,
    oracle_unit_part,
    oracle_valuation,
)

Z4 = ChainRing(2, 2)
Z8 = ChainRing(2, 3)
Z9 = ChainRing(3, 2)
Z125 = ChainRing(5, 3)
F2U3 = ChainRing(2, 3, "poly")
F3U2 = ChainRing(3, 2, "poly")

SMALL_RINGS = [
    ChainRing(2, 1),
    Z4,
    Z8,
    Z9,
    ChainRing(5, 2),
    Z125,
    ChainRing(2, 2, "poly"),
    F2U3,
    F3U2,
    ChainRing(2, 7, "poly"),
    ChainRing(3, 1),
]

rings = st.sampled_from(SMALL_RINGS)


@st.composite
def ring_with_codes(draw, count: int):
    ring = draw(rings)
    codes = tuple(draw(st.integers(0, ring.size - 1)) for _ in range(count))
    return ring, codes


class TestConstruction:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError, match="prime"):
            ChainRing(4, 2)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            ChainRing(2, 0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ChainRing(2, 2, "matrixikov")

    def test_rejects_oversized_ring(self):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            ChainRing(2, 40)

    def test_gamma_nilpotency(self):
        for ring in SMALL_RINGS:
            g = ring.gamma_code
            power = 1
            for _ in range(ring.s):
                power = ring.mul(power, g)
            assert power == 0
            if ring.s > 1:
                power = 1
                for _ in range(ring.s - 1):
                    power = ring.mul(power, g)
                assert power != 0

    def test_str(self):
        assert str(Z8) == "Z/8"
        assert str(F2U3) == "F_2[u]/(u^3)"


class TestArithmetic:
    def test_z4_add(self):
        assert (Z4.element(3) + Z4.element(3)).value == 2

    def test_z8_nilpotent_product(self):
        assert (Z8.element(2) * Z8.element(4)).value == 0

    def test_poly_truncation(self):
        a = F2U3.element([0, 1, 1])  # u^2 + u
        b = F2U3.element([0, 1])  # u
        assert (a * b).value == (0, 0, 1)  # u^2, the u^3 term truncates

    def test_mixed_ring_operands_rejected(self):
        with pytest.raises(ValueError, match="combine"):
            Z4.element(1) + Z8.element(1)
        with pytest.raises(ValueError, match="combine"):
            Z8.element(1) * F2U3.element(1)

    @given(ring_with_codes(2))
    def test_commutativity(self, data):
        ring, (a, b) = data
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)

    @given(ring_with_codes(3))
    def test_associativity(self, data):
        ring, (a, b, c) = data
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))

    @given(ring_with_codes(3))
    def test_distributivity(self, data):
        ring, (a, b, c) = data
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))

    @given(ring_with_codes(2))
    def test_subtraction_inverts_addition(self, data):
        ring, (a, b) = data
        assert ring.sub(ring.add(a, b), b) == a
        assert ring.add(a, ring.neg(a)) == 0

    @given(ring_with_codes(2))
    def test_valuation_of_product(self, data):
        ring, (a, b) = data
        expected = min(ring.valuation(a) + ring.valuation(b), ring.s)
        assert ring.valuation(ring.mul(a, b)) == expected


class TestGammaDecomposition:
    def test_z8_six(self):
        v, u = gamma_decompose(Z8.element(6))
        assert (v, u.value) == (1, 3)

    def test_zero_convention(self):
        assert gamma_decompose(Z8.element(0)) == (3, None)

    def test_poly_example(self):
        v, u = gamma_decompose(F3U2.element([0, 2]))  # 2u
        assert v == 1
        assert u.value == (2, 0)

    @pytest.mark.parametrize("ring", [r for r in SMALL_RINGS if r.size <= 256])
    def test_reconstruction_exhaustive(self, ring):
        for code in ring.elements():
            v = ring.valuation(code)
            if code == 0:
                assert v == ring.s
                continue
            rebuilt = ring.mul(ring.gamma_pow(v), ring.unit_part(code))
            assert rebuilt == code
            assert ring.valuation(ring.unit_part(code)) == 0

    @pytest.mark.parametrize("ring", [r for r in SMALL_RINGS if r.size <= 256])
    def test_ideal_sizes(self, ring):
        for j in range(ring.s + 1):
            members = sum(1 for code in ring.elements() if ring.valuation(code) >= j)
            assert members == ring.p ** (ring.s - j)

    @pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_backends_share_valuation_histogram(self, p, s):
        from collections import Counter

        a = ChainRing(p, s, "int")
        b = ChainRing(p, s, "poly")
        hist_a = Counter(a.valuation(c) for c in a.elements())
        hist_b = Counter(b.valuation(c) for c in b.elements())
        assert hist_a == hist_b


class TestInverse:
    def test_z4(self):
        assert unit_inverse(Z4.element(3)).value == 3

    def test_z125_against_scan(self):
        code = Z125.encode(57)
        expected = brute_inverse(Z125, code)
        assert expected == 68
        assert Z125.inverse(code) == expected

    def test_poly_example(self):
        inv = unit_inverse(F2U3.element([1, 1]))  # 1 + u
        assert inv.value == (1, 1, 1)  # 1 + u + u^2

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="not a unit"):
            unit_inverse(Z4.element(2))
        with pytest.raises(ValueError, match="not a unit"):
            F2U3.element([0, 1]).inverse()

    @pytest.mark.parametrize("ring", [r for r in SMALL_RINGS if r.size <= 256])
    def test_inverse_exhaustive(self, ring):
        for code in ring.elements():
            if ring.valuation(code) != 0:
                assert brute_inverse(ring, code) is None or ring.size == 1
                continue
            inv = ring.inverse(code)
            assert ring.mul(code, inv) == 1
            assert inv == brute_inverse(ring, code)
            assert ring.inverse(inv) == code


class TestEncoding:
    def test_int_backend_reduces(self):
        assert Z8.encode(-3) == 5
        assert Z8.encode(11) == 3

    def test_poly_coefficients_reduce_mod_p(self):
        assert F3U2.encode([4, -1]) == F3U2.encode([1, 2])

    def test_poly_code_passthrough_range_checked(self):
        assert F2U3.encode(5) == 5
        with pytest.raises(ValueError, match="out of range"):
            F2U3.encode(8)

    def test_poly_too_many_coefficients(self):
        with pytest.raises(ValueError, match="coefficients"):
            F3U2.encode([1, 1, 1])

    def test_int_backend_rejects_sequences(self):
        with pytest.raises(TypeError):
            Z4.encode([1, 0])

    @given(ring_with_codes(1))
    def test_decode_encode_roundtrip(self, data):
        ring, (code,) = data
        assert ring.encode(ring.decode(code)) == code

    def test_element_repr(self):
        assert repr(Z8.element(6)) == "Z/8:6"

    def test_residue_representatives(self):
        assert list(Z8.residue_representatives(1)) == [0, 1]
        assert list(F2U3.residue_representatives(2)) == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            Z8.residue_representatives(4)


class TestElementOps:
    def test_int_literals_mix_in_integer_backend(self):
        assert (Z4.element(3) + 3).value == 2
        assert (2 * Z4.element(3)).value == 2

    def test_gamma_properties(self):
        assert Z8.gamma.value == 2
        assert F2U3.gamma.value == (0, 1, 0)
        assert ChainRing(3, 1).gamma.value == 0


def _rings(low: int, high: int) -> list[ChainRing]:
    """Every ring with low < p**s <= high, on both backends."""
    primes = [p for p in range(2, high + 1) if all(p % f for f in range(2, p))]
    return [
        ChainRing(p, s, backend)
        for p in primes
        for s in range(1, high.bit_length())
        if low < p**s <= high
        for backend in BACKENDS
    ]


# Rings of at most TABLE_RING_SIZE elements read add, neg and mul from tables.
# Sampled: every ring with 64 < q <= 2**8, some with tables and most without,
# and 2**9 on both backends.
SAMPLED = _rings(64, 1 << 8) + [ChainRing(2, 9, backend) for backend in BACKENDS]


class TestTables:
    @pytest.mark.parametrize("ring", _rings(1, 64), ids=str)
    def test_every_pair_against_oracle(self, ring):
        codes = ring.elements()
        assert [ring.neg(a) for a in codes] == [oracle_neg(ring, a) for a in codes]
        for a in codes:
            assert [ring.add(a, b) for b in codes] == [oracle_add(ring, a, b) for b in codes]
            assert [ring.mul(a, b) for b in codes] == [oracle_mul(ring, a, b) for b in codes]

    @pytest.mark.parametrize("ring", _rings(1, 64), ids=str)
    def test_valuation_unit_part_and_inverse_against_oracle(self, ring):
        codes = ring.elements()
        assert [ring.valuation(a) for a in codes] == [oracle_valuation(ring, a) for a in codes]
        nonzero = codes[1:]
        assert [ring.unit_part(a) for a in nonzero] == [oracle_unit_part(ring, a) for a in nonzero]
        with pytest.raises(ValueError, match="zero has no unit part"):
            ring.unit_part(0)
        for a in codes:
            expected = brute_inverse(ring, a)
            if expected is None:
                with pytest.raises(ValueError, match="is not a unit in"):
                    ring.inverse(a)
            else:
                assert ring.inverse(a) == expected

    @pytest.mark.parametrize("ring", SAMPLED, ids=str)
    def test_sampled_pairs_against_oracle(self, ring):
        rng = random.Random(str(ring))
        for _ in range(200):
            a, b = rng.randrange(ring.size), rng.randrange(ring.size)
            assert ring.neg(a) == oracle_neg(ring, a)
            assert ring.add(a, b) == oracle_add(ring, a, b)
            assert ring.mul(a, b) == oracle_mul(ring, a, b)

    def test_tables_stop_at_the_bound(self):
        for ring in _rings(1, 1 << 8):
            tables = (
                ring._add_table,
                ring._neg_table,
                ring._mul_table,
                ring._valuation_table,
                ring._unit_part_table,
                ring._inverse_table,
            )
            assert all((t is not None) == (ring.size <= TABLE_RING_SIZE) for t in tables)

    def test_tables_are_built_on_first_use(self):
        ring = ChainRing(3, 4, "poly")
        assert "_mul_table" not in vars(ring)
        assert ring.mul(3, 27) == 0
        assert "_mul_table" in vars(ring)

    def test_equal_rings_share_their_tables(self):
        assert ChainRing(3, 4, "poly")._mul_table is ChainRing(3, 4, "poly")._mul_table

    @pytest.mark.parametrize(
        "ring", [Z4, F3U2, ChainRing(3, 4, "poly"), ChainRing(2, 8, "poly"), ChainRing(2, 9)], ids=str
    )
    def test_equality_hash_and_pickle_see_only_the_fields(self, ring):
        key = (ring.p, ring.s, ring.backend)
        assert [f.name for f in fields(ChainRing)] == ["p", "s", "backend"]
        assert ring == ChainRing(*key) and hash(ring) == hash(key)
        assert repr(ring) == f"ChainRing(p={ring.p}, s={ring.s}, backend={ring.backend!r})"
        top = ring.size - 1
        product = ring.mul(top, top)  # builds the tables, if the ring has any
        data = pickle.dumps(ring)
        assert len(data) < 100  # cached attributes stay out of the pickle
        back = pickle.loads(data)
        assert back == ring and hash(back) == hash(ring)
        assert back.mul(top, top) == product == oracle_mul(ring, top, top)


class TestOps:
    """``ring.ops`` is the six scalar operations, bound once for inner loops."""

    @staticmethod
    def assert_ops_agree(ring, pairs):
        add, mul, neg, valuation, unit_part, inverse = ring.ops
        for a, b in pairs:
            assert add(a, b) == ring.add(a, b), (a, b)
            assert mul(a, b) == ring.mul(a, b), (a, b)
        for a in {a for pair in pairs for a in pair}:
            assert neg(a) == ring.neg(a), a
            assert valuation(a) == ring.valuation(a), a
            if a:
                assert unit_part(a) == ring.unit_part(a), a
            if a % ring.p:
                assert inverse(a) == ring.inverse(a), a

    # Every table ring, Z/81 and F_3[u]/(u^4) at the bound among them.
    @pytest.mark.parametrize("ring", _rings(1, TABLE_RING_SIZE), ids=str)
    def test_table_kit_agrees_on_every_pair(self, ring):
        codes = ring.elements()
        self.assert_ops_agree(ring, [(a, b) for a in codes for b in codes])
        assert not any(isinstance(getattr(f, "__self__", None), ChainRing) for f in ring.ops)

    @pytest.mark.parametrize(
        "ring", [Z125, ChainRing(5, 3, "poly"), ChainRing(257, 2)], ids=str
    )
    def test_method_kit_agrees_on_sampled_pairs(self, ring):
        rng = random.Random(str(ring))
        pairs = [(rng.randrange(ring.size), rng.randrange(ring.size)) for _ in range(300)]
        pairs += [(0, 0), (1, ring.size - 1), (ring.p, ring.p ** (ring.s - 1))]
        self.assert_ops_agree(ring, pairs)
        methods = [ChainRing.add, ChainRing.mul, ChainRing.neg, ChainRing.valuation,
                   ChainRing.unit_part, ChainRing.inverse]
        assert [f.__func__ for f in ring.ops] == methods
        assert all(f.__self__ == ring for f in ring.ops)

    @pytest.mark.parametrize("key", [(3, 4, "poly"), (257, 2, "int")], ids=str)
    def test_equal_rings_share_one_kit_that_stays_out_of_pickles(self, key):
        ring = ChainRing(*key)
        assert ring.ops is ring.ops is ChainRing(*key).ops
        assert "ops" not in vars(pickle.loads(pickle.dumps(ring)))

    def test_kit_does_not_keep_its_ring_alive(self):
        # Bound to the ring itself, a method kit would make a reference cycle.
        ring = ChainRing(257, 2)
        ring.ops
        alive = weakref.ref(ring)
        del ring
        assert alive() is None
