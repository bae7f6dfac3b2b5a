"""Exact arithmetic in finite commutative chain rings with prime residue field.

Two backends realize every ring used by this library:

* ``"int"``:  the integers modulo p**s,
* ``"poly"``: truncated polynomials F_p[u]/(u**s).

Both have exactly p**s elements and a maximal ideal generated by a single
element ``gamma`` (p in the integer backend, u in the polynomial one), with
gamma**s == 0 and gamma**(s-1) != 0.

Elements are stored as canonical integer codes in ``range(p**s)``.  The
polynomial backend packs its coefficient vector in base p, lowest degree
first.  Under that packing the two backends share the same valuation,
splitting and representative-range logic (dividing a code by p strips the
lowest base-p digit in both rings); only add/neg/mul and unit inversion
differ.

Scalar add, neg, mul, valuation, unit part and inverse on rings of at most
``TABLE_RING_SIZE`` elements read a table, on either backend: one q x q table
each for add and mul and one of q entries for each of the others, built on
first use, cached per (p, s, backend) and shared by equal rings.  Larger rings
compute modulo p**s (integer backend) or digit by digit (polynomial backend).
``ChainRing.ops`` hands inner loops all six operations at once: the table
lookups themselves up to ``TABLE_RING_SIZE``, the ring's methods above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence, Union

import numpy as np

__all__ = [
    "BACKENDS",
    "MAX_RING_SIZE",
    "TABLE_RING_SIZE",
    "ChainRing",
    "RingElement",
    "gamma_decompose",
    "unit_inverse",
]

BACKENDS = ("int", "poly")

# Scalar arithmetic stays in machine-word range; code-level counts elsewhere
# use arbitrary precision.
MAX_RING_SIZE = 1 << 31

# Rings up to this size take their scalar operations from tables: 81 = 3**4
# is the largest ring the benchmark's workloads run.  Above it a table still
# wins per operation, but its build (13 ms and 1 MB for F_2[u]/(u^8)) is not
# earned back by short calls.  At q = 81 the add and mul tables hold 6561
# entries each, about 60 kB apiece.
TABLE_RING_SIZE = 81

ElementLike = Union["RingElement", int, Sequence[int]]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=8)
def _tables(p: int, s: int, backend: str) -> tuple[tuple, ...]:
    """The tables of a ring: ``add[a][b]``, ``neg[a]``, ``mul[a][b]``,
    ``valuation[a]``, ``unit_part[a]`` and ``inverse[a]``.

    ``unit_part[0]`` and ``inverse`` of a non-unit are 0, which no defined
    value is.
    """
    q = p**s
    codes = np.arange(q, dtype=np.int64)
    if backend == "int":
        add = (codes[:, None] + codes) % q
        neg = -codes % q
        mul = codes[:, None] * codes % q
    else:
        weights = [p**k for k in range(s)]
        digits = [codes // w % p for w in weights]  # coefficient k of every code
        add = sum((d[:, None] + d) % p * w for d, w in zip(digits, weights))
        neg = sum(-d % p * w for d, w in zip(digits, weights))
        # Coefficient k of a product collects a_i * b_(k-i); degrees from s
        # on vanish.
        mul = sum(
            sum(digits[i][:, None] * digits[k - i] for i in range(k + 1)) % p * w
            for k, w in enumerate(weights)
        )
    # Valuation and unit part strip low base-p digits, the same in both backends.
    valuation = np.zeros(q, dtype=np.int64)
    for k in range(1, s):
        valuation += codes % p**k == 0
    valuation[0] = s
    unit_part = codes // p**valuation
    inverse = (mul == 1).argmax(axis=1)  # 0 in a non-unit's row, which holds no 1
    return (
        tuple(map(tuple, add.tolist())),
        tuple(neg.tolist()),
        tuple(map(tuple, mul.tolist())),
        tuple(valuation.tolist()),
        tuple(unit_part.tolist()),
        tuple(inverse.tolist()),
    )


def _table(index: int) -> cached_property:
    """Table ``index`` of ``_tables`` for the ring, built on first use; None
    above TABLE_RING_SIZE.  Not a field: equality, hash and repr see (p, s,
    backend) only."""

    def build(ring: ChainRing) -> tuple | None:
        if ring.size > TABLE_RING_SIZE:
            return None
        return _tables(ring.p, ring.s, ring.backend)[index]

    return cached_property(build)


@dataclass(frozen=True)
class ChainRing:
    """The chain ring Z/p^s Z (backend "int") or F_p[u]/(u^s) (backend "poly").

    Immutable; safe to share between concurrent workers.
    """

    p: int
    s: int
    backend: str = "int"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError(f"p must be a prime integer, got {self.p!r}")
        if not isinstance(self.s, int) or self.s < 1:
            raise ValueError(f"s must be an integer >= 1, got {self.s!r}")
        # Bounded before p**s and the trial division are computed: p >= 2,
        # so any s past the bound's bit length is out of range too.
        if (
            self.p > MAX_RING_SIZE
            or self.s >= MAX_RING_SIZE.bit_length()
            or self.p**self.s > MAX_RING_SIZE
        ):
            raise ValueError(f"ring size {self.p}**{self.s} exceeds the supported bound 2**31")
        if not _is_prime(self.p):
            raise ValueError(f"p must be a prime integer, got {self.p!r}")

    def __reduce__(self):
        # The constructor call: cached attributes, the tables among them,
        # stay out of pickles.
        return ChainRing, (self.p, self.s, self.backend)

    # -- structure ---------------------------------------------------------

    @cached_property
    def size(self) -> int:
        return self.p**self.s

    _add_table = _table(0)
    _neg_table = _table(1)
    _mul_table = _table(2)
    _valuation_table = _table(3)
    _unit_part_table = _table(4)
    _inverse_table = _table(5)

    @cached_property
    def ops(self) -> tuple:
        """(add, mul, neg, valuation, unit_part, inverse) on codes, for loops
        that bind them once; see ``_ops``."""
        return _ops(self.p, self.s, self.backend)

    @property
    def gamma_code(self) -> int:
        # p (resp. u) reduces to 0 when s == 1; base-p packing makes the code
        # of u equal to p as well.
        return self.p % self.size

    @property
    def gamma(self) -> RingElement:
        return RingElement(self, self.gamma_code)

    @property
    def zero(self) -> RingElement:
        return RingElement(self, 0)

    @property
    def one(self) -> RingElement:
        return RingElement(self, 1)

    def gamma_pow(self, j: int) -> int:
        """Code of gamma**j (zero once j reaches the nilpotency index)."""
        if j < 0:
            raise ValueError("exponent must be nonnegative")
        return self.p**j if j < self.s else 0

    def elements(self) -> range:
        """All element codes, in canonical order."""
        return range(self.size)

    def residue_representatives(self, m: int) -> range:
        """Codes of the canonical representatives of R / gamma^m R.

        In both backends these are exactly the codes below p**m.
        """
        if not 0 <= m <= self.s:
            raise ValueError(f"m must lie in [0, {self.s}], got {m}")
        return range(self.p**m)

    # -- scalar arithmetic on codes ----------------------------------------

    def add(self, a: int, b: int) -> int:
        table = self._add_table
        if table is not None:
            return table[a][b]
        if self.backend == "int":
            return (a + b) % self.size
        return self._pack([x + y for x, y in zip(self.decode(a), self.decode(b))])

    def neg(self, a: int) -> int:
        table = self._neg_table
        if table is not None:
            return table[a]
        if self.backend == "int":
            return (-a) % self.size
        return self._pack([-x for x in self.decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        table = self._mul_table
        if table is not None:
            return table[a][b]
        if self.backend == "int":
            return (a * b) % self.size
        s = self.s
        digits_b = self.decode(b)
        out = [0] * s
        for i, x in enumerate(self.decode(a)):
            if x:
                for j in range(s - i):
                    out[i + j] += x * digits_b[j]
        return self._pack(out)

    def valuation(self, a: int) -> int:
        """Largest j with gamma**j dividing a; s for a == 0.

        Works for both backends: stripping the lowest base-p digit divides by
        p in the integer ring and by u in the polynomial ring.
        """
        table = self._valuation_table
        if table is not None:
            return table[a]
        if a == 0:
            return self.s
        v = 0
        p = self.p
        while a % p == 0:
            a //= p
            v += 1
        return v

    def split(self, a: int, j: int) -> tuple[int, int]:
        """Decompose a == low + gamma**j * high.

        ``low`` is the canonical representative of a mod gamma**j and
        ``high`` lies in range(p**(s-j)).
        """
        pj = self.p**j
        return a % pj, a // pj

    def unit_part(self, a: int) -> int:
        """The unit w with a == gamma**valuation(a) * w; undefined for zero."""
        if a == 0:
            raise ValueError("zero has no unit part")
        table = self._unit_part_table
        if table is not None:
            return table[a]
        return a // self.p ** self.valuation(a)

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a unit."""
        if a % self.p == 0:  # gamma divides a: its lowest base-p digit is zero
            raise ValueError(f"{self.decode(a)!r} is not a unit in {self}")
        table = self._inverse_table
        if table is not None:
            return table[a]
        if self.backend == "int":
            return pow(a, -1, self.size)
        # Triangular solve for b with a*b == 1: the constant coefficient is
        # inverted in F_p, higher coefficients follow one at a time.
        p, s = self.p, self.s
        da = self.decode(a)
        inv0 = pow(da[0], p - 2, p)
        out = [inv0]
        for k in range(1, s):
            acc = 0
            for i in range(1, k + 1):
                acc += da[i] * out[k - i]
            out.append(-inv0 * acc % p)
        return self._pack(out)

    # -- encoding ------------------------------------------------------------

    def encode(self, value: ElementLike) -> int:
        """Canonical code of a ring element given in any accepted form.

        Integer backend: any int, reduced modulo p**s.  Polynomial backend:
        either a sequence of coefficients (lowest degree first, reduced mod p)
        or an already-packed code in range(p**s).
        """
        if isinstance(value, RingElement):
            if value.ring != self:
                raise ValueError(f"element of {value.ring} used in {self}")
            return value.code
        if self.backend == "int":
            if isinstance(value, int):
                return value % self.size
            raise TypeError(f"cannot encode {value!r} as an element of {self}")
        if isinstance(value, int):
            if 0 <= value < self.size:
                return value
            raise ValueError(f"packed code {value} out of range for {self}")
        if isinstance(value, (list, tuple)):
            if len(value) > self.s:
                raise ValueError(f"too many coefficients for {self}: {value!r}")
            return self._pack([int(c) for c in value])
        raise TypeError(f"cannot encode {value!r} as an element of {self}")

    def decode(self, code: int):
        """Canonical value: the representative int, or the coefficient tuple."""
        if self.backend == "int":
            return code
        p = self.p
        out = []
        for _ in range(self.s):
            out.append(code % p)
            code //= p
        return tuple(out)

    def _pack(self, digits: Sequence[int]) -> int:
        """Code of a coefficient list, lowest degree first, each reduced mod p."""
        p = self.p
        code = 0
        for d in reversed(digits):
            code = code * p + d % p
        return code

    def element(self, value: ElementLike) -> RingElement:
        return RingElement(self, self.encode(value))

    def __str__(self) -> str:
        if self.backend == "int":
            return f"Z/{self.size}"
        return f"F_{self.p}[u]/(u^{self.s})"


@lru_cache(maxsize=8)
def _ops(p: int, s: int, backend: str) -> tuple:
    """The scalar kit of a ring, shared by equal rings: table lookups up to
    TABLE_RING_SIZE, the methods of one equal ring above it (bound to that
    ring, so a ring's cached kit never refers back to the ring itself).  The
    lookups check nothing: unit_part must get a nonzero code, inverse a unit."""
    if p**s > TABLE_RING_SIZE:
        ring = ChainRing(p, s, backend)
        return ring.add, ring.mul, ring.neg, ring.valuation, ring.unit_part, ring.inverse
    add, neg, mul, valuation, unit_part, inverse = _tables(p, s, backend)
    return (
        lambda a, b: add[a][b],
        lambda a, b: mul[a][b],
        neg.__getitem__,
        valuation.__getitem__,
        unit_part.__getitem__,
        inverse.__getitem__,
    )


@dataclass(frozen=True)
class RingElement:
    """An element of a ChainRing, held by its canonical code."""

    ring: ChainRing
    code: int

    def __post_init__(self) -> None:
        if not 0 <= self.code < self.ring.size:
            raise ValueError(f"code {self.code} out of range for {self.ring}")

    @property
    def value(self):
        return self.ring.decode(self.code)

    @property
    def valuation(self) -> int:
        return self.ring.valuation(self.code)

    def unit_part(self) -> RingElement:
        return RingElement(self.ring, self.ring.unit_part(self.code))

    def inverse(self) -> RingElement:
        return RingElement(self.ring, self.ring.inverse(self.code))

    def gamma_decompose(self) -> tuple[int, RingElement | None]:
        """(valuation v, unit w) with self == gamma**v * w; (s, None) for zero."""
        if self.code == 0:
            return self.ring.s, None
        return self.valuation, self.unit_part()

    def _coerce(self, other) -> int:
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise ValueError(f"cannot combine elements of {self.ring} and {other.ring}")
            return other.code
        if isinstance(other, int):
            return self.ring.encode(other) if self.ring.backend == "int" else NotImplemented
        return NotImplemented

    def __add__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.add(self.code, code))

    __radd__ = __add__

    def __sub__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(self.code, code))

    def __rsub__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(code, self.code))

    def __mul__(self, other):
        code = self._coerce(other)
        if code is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.mul(self.code, code))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.code))

    def __bool__(self) -> bool:
        return self.code != 0

    def __repr__(self) -> str:
        return f"{self.ring}:{self.value}"


def gamma_decompose(a: RingElement) -> tuple[int, RingElement | None]:
    """Factor a as gamma**v times a unit; the zero element maps to (s, None)."""
    return a.gamma_decompose()


def unit_inverse(a: RingElement) -> RingElement:
    """Inverse of a unit; raises ValueError for non-units."""
    return a.inverse()
