"""Chain-ring arithmetic: canonical forms, valuations, units, both backends."""

from __future__ import annotations

import pickle
import random
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

import chainring.ring
from chainring import ChainRing
from chainring.ring import BACKENDS, TABLE_RING_SIZE, _arithmetic, _digits, _pack
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
            g = ring.gamma_powers[1] if ring.s > 1 else 0  # gamma is 0 when s = 1
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
        assert Z4.add(3, 3) == 2

    def test_z8_nilpotent_product(self):
        assert Z8.mul(2, 4) == 0

    def test_poly_truncation(self):
        a = F2U3.encode([0, 1, 1])  # u^2 + u
        b = F2U3.encode([0, 1])  # u
        assert F2U3.decode(F2U3.mul(a, b)) == (0, 0, 1)  # u^2, the u^3 term truncates

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
        assert ring.add(ring.add(a, b), ring.neg(b)) == a
        assert ring.add(a, ring.neg(a)) == 0

    @given(ring_with_codes(2))
    def test_valuation_of_product(self, data):
        ring, (a, b) = data
        expected = min(ring.valuation(a) + ring.valuation(b), ring.s)
        assert ring.valuation(ring.mul(a, b)) == expected


class TestGammaDecomposition:
    def test_z8_six(self):
        assert (Z8.valuation(6), Z8.unit_part(6)) == (1, 3)

    def test_zero_convention(self):
        assert Z8.valuation(0) == 3
        with pytest.raises(ValueError, match="zero has no unit part"):
            Z8.unit_part(0)

    def test_poly_example(self):
        code = F3U2.encode([0, 2])  # 2u
        assert F3U2.valuation(code) == 1
        assert F3U2.decode(F3U2.unit_part(code)) == (2, 0)

    @pytest.mark.parametrize("ring", [r for r in SMALL_RINGS if r.size <= 256])
    def test_reconstruction_exhaustive(self, ring):
        for code in range(ring.size):
            v = ring.valuation(code)
            if code == 0:
                assert v == ring.s
                continue
            rebuilt = ring.mul(ring.gamma_powers[v], ring.unit_part(code))
            assert rebuilt == code
            assert ring.valuation(ring.unit_part(code)) == 0

    @pytest.mark.parametrize("ring", [r for r in SMALL_RINGS if r.size <= 256])
    def test_ideal_sizes(self, ring):
        for j in range(ring.s + 1):
            members = sum(1 for code in range(ring.size) if ring.valuation(code) >= j)
            assert members == ring.p ** (ring.s - j)

    @pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_backends_share_valuation_histogram(self, p, s):
        from collections import Counter

        a = ChainRing(p, s, "int")
        b = ChainRing(p, s, "poly")
        hist_a = Counter(a.valuation(c) for c in range(a.size))
        hist_b = Counter(b.valuation(c) for c in range(b.size))
        assert hist_a == hist_b


class TestInverse:
    def test_z4(self):
        assert Z4.inverse(3) == 3

    def test_z125_against_scan(self):
        code = Z125.encode(57)
        expected = brute_inverse(Z125, code)
        assert expected == 68
        assert Z125.inverse(code) == expected

    def test_poly_example(self):
        inv = F2U3.inverse(F2U3.encode([1, 1]))  # 1 + u
        assert F2U3.decode(inv) == (1, 1, 1)  # 1 + u + u^2

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="not a unit"):
            Z4.inverse(2)
        with pytest.raises(ValueError, match="not a unit"):
            F2U3.inverse(F2U3.encode([0, 1]))

    @pytest.mark.parametrize("ring", [r for r in SMALL_RINGS if r.size <= 256])
    def test_inverse_exhaustive(self, ring):
        for code in range(ring.size):
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

    def test_residue_representatives(self):
        # The low part of split(a, m) is a's representative mod gamma**m:
        # the codes below p**m, on both backends.
        assert sorted({Z8.split(a, 1)[0] for a in range(Z8.size)}) == [0, 1]
        assert sorted({F2U3.split(a, 2)[0] for a in range(F2U3.size)}) == [0, 1, 2, 3]


class TestElementOps:
    def test_gamma_properties(self):
        assert Z8.gamma_powers[1] == 2
        assert F2U3.decode(F2U3.gamma_powers[1]) == (0, 1, 0)
        assert ChainRing(3, 1).gamma_powers == (1,)
        assert Z125.gamma_powers == (1, 5, 25)
        assert F3U2.gamma_powers == (1, 3)


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


# Rings of at most TABLE_RING_SIZE elements read their scalar operations from
# tables.  Sampled: every ring with 64 < q <= 2**8, some with tables and most
# without, and 2**9 on both backends.
SAMPLED = _rings(64, 1 << 8) + [ChainRing(2, 9, backend) for backend in BACKENDS]


def _one_per_valuation(ring, rng):
    """A random multiple of gamma**j for each j = 0..s, so units, non-units
    and zero all appear."""
    return [ring.p**j * rng.randrange(ring.size) % ring.size for j in range(ring.s + 1)]


@pytest.fixture
def table_builds(monkeypatch):
    """The (p, s, backend) of every table build, from an empty kit cache on."""
    builds = []
    build = chainring.ring._tables

    def spy(p, s, backend):
        builds.append((p, s, backend))
        return build(p, s, backend)

    monkeypatch.setattr(chainring.ring, "_tables", spy)
    chainring.ring._ops.cache_clear()
    return builds


class TestTables:
    @pytest.mark.parametrize("ring", _rings(1, 64), ids=str)
    def test_every_pair_against_oracle(self, ring):
        codes = range(ring.size)
        assert [ring.neg(a) for a in codes] == [oracle_neg(ring, a) for a in codes]
        for a in codes:
            assert [ring.add(a, b) for b in codes] == [oracle_add(ring, a, b) for b in codes]
            assert [ring.mul(a, b) for b in codes] == [oracle_mul(ring, a, b) for b in codes]

    @pytest.mark.parametrize("ring", _rings(1, 64), ids=str)
    def test_valuation_unit_part_and_inverse_against_oracle(self, ring):
        codes = range(ring.size)
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
        for a in _one_per_valuation(ring, rng):
            assert ring.valuation(a) == oracle_valuation(ring, a), a
            if a:
                assert ring.unit_part(a) == oracle_unit_part(ring, a), a
            if a % ring.p:
                assert oracle_mul(ring, a, ring.inverse(a)) == 1, a
            else:
                with pytest.raises(ValueError, match="is not a unit in"):
                    ring.inverse(a)
        with pytest.raises(ValueError, match="zero has no unit part"):
            ring.unit_part(0)

    def test_tables_stop_at_the_bound(self, table_builds):
        rings = _rings(1, 1 << 8)
        for ring in rings:
            ring.ops
        assert table_builds == [
            (ring.p, ring.s, ring.backend) for ring in rings if ring.size <= TABLE_RING_SIZE
        ]

    def test_tables_are_built_on_first_use(self, table_builds):
        ring = ChainRing(3, 4, "poly")
        assert table_builds == [] and "ops" not in vars(ring)
        assert ring.mul(3, 27) == 0
        assert table_builds == [(3, 4, "poly")] and "ops" in vars(ring)

    def test_equal_rings_share_their_tables(self, table_builds):
        kits = [ChainRing(3, 4, "poly").ops for _ in range(3)]
        assert kits[0] is kits[1] is kits[2]
        assert table_builds == [(3, 4, "poly")]

    @pytest.mark.parametrize(
        "ring", [Z4, F3U2, ChainRing(3, 4, "poly"), ChainRing(2, 8, "poly"), ChainRing(2, 9)], ids=str
    )
    def test_equality_hash_and_pickle_see_only_the_fields(self, ring):
        key = (ring.p, ring.s, ring.backend)
        assert [f.name for f in fields(ChainRing)] == ["p", "s", "backend"]
        assert ring == ChainRing(*key) and hash(ring) == hash(key)
        assert repr(ring) == f"ChainRing(p={ring.p}, s={ring.s}, backend={ring.backend!r})"
        top = ring.size - 1
        product = ring.mul(top, top)  # builds the kit, and the tables if the ring has any
        data = pickle.dumps(ring)
        assert len(data) < 100  # cached attributes stay out of the pickle
        back = pickle.loads(data)
        assert back == ring and hash(back) == hash(ring)
        assert back.mul(top, top) == product == oracle_mul(ring, top, top)


class TestOps:
    """``ring.ops`` is the six scalar operations, bound once for inner loops
    and checked here against the oracles: table lookups up to
    TABLE_RING_SIZE, arithmetic above it."""

    @staticmethod
    def assert_kit_matches_oracles(ring, pairs, elements):
        add, mul, neg, valuation, unit_part, inverse = ring.ops
        for a, b in pairs:
            assert add(a, b) == oracle_add(ring, a, b), (a, b)
            assert mul(a, b) == oracle_mul(ring, a, b), (a, b)
        for a in elements:
            assert neg(a) == oracle_neg(ring, a), a
            assert valuation(a) == oracle_valuation(ring, a), a
            if a:
                assert unit_part(a) == oracle_unit_part(ring, a), a
            if a % ring.p:
                assert oracle_mul(ring, a, inverse(a)) == 1, a

    # Every table ring, Z/81 and F_3[u]/(u^4) at the bound among them.
    @pytest.mark.parametrize("ring", _rings(1, TABLE_RING_SIZE), ids=str)
    def test_table_kit_agrees_on_every_pair(self, ring):
        codes = range(ring.size)
        self.assert_kit_matches_oracles(ring, [(a, b) for a in codes for b in codes], codes)
        assert not any(isinstance(getattr(f, "__self__", None), ChainRing) for f in ring.ops)

    @pytest.mark.parametrize(
        "ring", [Z125, ChainRing(5, 3, "poly"), ChainRing(257, 2)], ids=str
    )
    def test_arithmetic_kit_agrees_on_sampled_pairs(self, ring):
        rng = random.Random(str(ring))
        pairs = [(rng.randrange(ring.size), rng.randrange(ring.size)) for _ in range(300)]
        pairs += [(0, 0), (1, ring.size - 1), (ring.p, ring.p ** (ring.s - 1))]
        elements = {1, ring.size - 1, ring.p ** (ring.s - 1), *_one_per_valuation(ring, rng)}
        self.assert_kit_matches_oracles(ring, pairs, elements)

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


class TestArithmeticOnArrays:
    """``_tables`` fills its tables by calling ``_arithmetic``'s add, mul and
    neg once on arrays of codes; the kit above the bound calls them on ints.
    Both must give the same codes, and the arrays must come back unchanged."""

    # Table rings up to Z/81 and F_3[u]/(u^4) at the bound, then rings
    # computed above it.
    @pytest.mark.parametrize(
        "ring",
        [
            ChainRing(p, s, backend)
            for p, s in [(2, 2), (3, 4), (5, 3), (2, 8), (257, 2)]
            for backend in BACKENDS
        ],
        ids=str,
    )
    def test_arrays_match_scalar_calls(self, ring):
        p, s, q = ring.p, ring.s, ring.size
        add, mul, neg = _arithmetic(p, s, ring.backend)[:3]
        rng = np.random.default_rng(q)
        a, b = rng.integers(q, size=(2, 300), dtype=np.int64)
        a[:3], b[:3] = [0, 1, q - 1], [q - 1, p, q - 1]
        before = a.copy(), b.copy()
        pairs = list(zip(a.tolist(), b.tolist()))
        assert add(a, b).tolist() == [add(x, y) for x, y in pairs]
        assert mul(a, b).tolist() == [mul(x, y) for x, y in pairs]
        assert neg(a).tolist() == [neg(x) for x, _ in pairs]
        assert _pack(_digits(a, p, s), p).tolist() == a.tolist()
        assert a.tolist() == before[0].tolist() and b.tolist() == before[1].tolist()
