"""Exact arithmetic in finite commutative chain rings with prime residue field.

Two backends realize every ring used by this library:

* ``"int"``:  the integers modulo p**s,
* ``"poly"``: truncated polynomials F_p[u]/(u**s).

Both have exactly p**s elements and a maximal ideal generated by a single
element ``gamma`` (p in the integer backend, u in the polynomial one), with
gamma**s == 0 and gamma**(s-1) != 0.

Elements are canonical integer codes in ``range(p**s)``, and every operation
takes and returns codes; ``encode`` and ``decode`` convert from and to an int
or a coefficient tuple.  The polynomial backend packs its coefficient vector
in base p, lowest degree first.  Under that packing the two backends share
the same valuation and splitting logic (dividing a code by p strips the
lowest base-p digit in both rings), and gamma**j has code p**j below s; only
add/neg/mul and unit inversion differ.

Every scalar operation comes from one kit per ring, ``ChainRing.ops``: add,
mul, neg, valuation, unit part and inverse, built on first use, cached per
(p, s, backend) and shared by equal rings.  Each operation is written once,
in ``_arithmetic``: modulo p**s (integer backend) or digit by digit over
``_digits`` and ``_pack`` (polynomial backend), the same two functions
``decode`` and ``encode`` use.  ``_ops`` alone decides how the kit runs it:
on rings of at most ``TABLE_RING_SIZE`` elements, on either backend,
``_tables`` evaluates each operation once on every code and the kit reads
the tables (one q x q table each for add and mul, one of q entries for each
of the others); larger rings call ``_arithmetic`` directly.  The six methods
of ``ChainRing`` check their input and call the kit.
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
]

BACKENDS = ("int", "poly")

# Scalar arithmetic stays in machine-word range; code-level counts elsewhere
# use arbitrary precision.
MAX_RING_SIZE = 1 << 31

# Rings up to this size take their scalar operations from tables, the
# arithmetic evaluated on every code; larger ones compute.  The benchmark's
# workloads run both: Z/81 and F_3[u]/(u^4) on tables, Z/257^2 computed.
# Above the bound a table still wins per operation, but its build is not
# earned back by short calls: 16 ms and 6.3 MB traced peak for F_2[u]/(u^8),
# against 0.7 ms and 0.5 MB for F_3[u]/(u^4) (2-core x86_64, Python 3.11,
# numpy 2.4).  At q = 81 the add and mul tables hold 6561 entries each,
# about 60 kB apiece.
TABLE_RING_SIZE = 81

ElementLike = Union[int, Sequence[int]]


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


def _tables(p: int, s: int, backend: str) -> tuple[tuple, ...]:
    """The tables of a ring: ``add[a][b]``, ``mul[a][b]``, ``neg[a]``,
    ``valuation[a]``, ``unit_part[a]`` and ``inverse[a]``, each the
    arithmetic of ``_arithmetic`` evaluated on every code.

    ``unit_part[0]`` and ``inverse`` of a non-unit are 0, which no defined
    value is.
    """
    add, mul, neg, valuation, unit_part, inverse = _arithmetic(p, s, backend)
    q = p**s
    codes = np.arange(q, dtype=np.int64)
    pairs = (codes[:, None], codes)
    return (
        tuple(map(tuple, add(*pairs).tolist())),
        tuple(map(tuple, mul(*pairs).tolist())),
        tuple(neg(codes).tolist()),
        tuple(map(valuation, range(q))),
        tuple(map(unit_part, range(q))),  # unit_part(0) is 0 // p**s
        tuple(inverse(a) if a % p else 0 for a in range(q)),
    )


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
        # The constructor call: cached attributes, the kit among them, stay
        # out of pickles.
        return ChainRing, (self.p, self.s, self.backend)

    # -- structure ---------------------------------------------------------

    @cached_property
    def size(self) -> int:
        return self.p**self.s

    @cached_property
    def ops(self) -> tuple:
        """(add, mul, neg, valuation, unit_part, inverse) on codes, for loops
        that bind them once; see ``_ops``."""
        return _ops(self.p, self.s, self.backend)

    @cached_property
    def gamma_powers(self) -> tuple[int, ...]:
        """Codes of gamma**0 .. gamma**(s-1), for loops that index them."""
        return tuple(self.p**j for j in range(self.s))

    # -- scalar arithmetic on codes ----------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.ops[0](a, b)

    def mul(self, a: int, b: int) -> int:
        return self.ops[1](a, b)

    def neg(self, a: int) -> int:
        return self.ops[2](a)

    def valuation(self, a: int) -> int:
        """Largest j with gamma**j dividing a; s for a == 0."""
        return self.ops[3](a)

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
        return self.ops[4](a)

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a unit."""
        if a % self.p == 0:  # gamma divides a: its lowest base-p digit is zero
            raise ValueError(f"{self.decode(a)!r} is not a unit in {self}")
        return self.ops[5](a)

    # -- encoding ------------------------------------------------------------

    def encode(self, value: ElementLike) -> int:
        """Canonical code of a ring element given in any accepted form.

        Integer backend: any int, reduced modulo p**s.  Polynomial backend:
        either a sequence of coefficients (lowest degree first, reduced mod p)
        or an already-packed code in range(p**s).
        """
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
            return _pack([int(c) for c in value], self.p)
        raise TypeError(f"cannot encode {value!r} as an element of {self}")

    def decode(self, code: int):
        """Canonical value: the representative int, or the coefficient tuple."""
        if self.backend == "int":
            return code
        return _digits(code, self.p, self.s)

    def __str__(self) -> str:
        if self.backend == "int":
            return f"Z/{self.size}"
        return f"F_{self.p}[u]/(u^{self.s})"


def _digits(code: int, p: int, s: int) -> tuple[int, ...]:
    """The s base-p digits of a code, lowest first: a poly element's
    coefficients.  Elementwise on an array of codes."""
    out = []
    for _ in range(s):
        out.append(code % p)
        code = code // p  # not //=, which would divide a caller's array in place
    return tuple(out)


def _pack(digits: Sequence[int], p: int) -> int:
    """Code of a coefficient list, lowest degree first, each reduced mod p."""
    code = 0
    for d in reversed(digits):
        code = code * p + d % p
    return code


def _arithmetic(p: int, s: int, backend: str) -> tuple:
    """The six scalar operations of a ring, computed: modulo p**s (integer
    backend) or digit by digit over ``_digits`` and ``_pack`` (polynomial
    backend).  add, mul and neg also take int64 arrays, elementwise, which
    is how ``_tables`` fills its tables."""
    q = p**s

    # Stripping the lowest base-p digit divides by p in Z/p^s and by u in
    # F_p[u]/(u^s), so valuation and unit part serve both backends.
    def valuation(a: int) -> int:
        if a == 0:
            return s
        v = 0
        while a % p == 0:
            a //= p
            v += 1
        return v

    def unit_part(a: int) -> int:
        return a // p ** valuation(a)

    if backend == "int":
        return (
            lambda a, b: (a + b) % q,
            lambda a, b: a * b % q,
            lambda a: -a % q,
            valuation,
            unit_part,
            lambda a: pow(a, -1, q),
        )

    def add(a: int, b: int) -> int:
        return _pack([x + y for x, y in zip(_digits(a, p, s), _digits(b, p, s))], p)

    def neg(a: int) -> int:
        return _pack([-x for x in _digits(a, p, s)], p)

    def mul(a: int, b: int) -> int:
        digits_b = _digits(b, p, s)
        out = [0] * s
        for i, x in enumerate(_digits(a, p, s)):
            for j in range(s - i):
                out[i + j] += x * digits_b[j]
        return _pack(out, p)

    def inverse(a: int) -> int:
        # Triangular solve for b with a*b == 1: the constant coefficient is
        # inverted in F_p, higher coefficients follow one at a time.
        da = _digits(a, p, s)
        inv0 = pow(da[0], p - 2, p)
        out = [inv0]
        for k in range(1, s):
            acc = 0
            for i in range(1, k + 1):
                acc += da[i] * out[k - i]
            out.append(-inv0 * acc % p)
        return _pack(out, p)

    return add, mul, neg, valuation, unit_part, inverse


@lru_cache(maxsize=8)
def _ops(p: int, s: int, backend: str) -> tuple:
    """The scalar kit of a ring, shared by equal rings: table lookups up to
    TABLE_RING_SIZE, ``_arithmetic`` above it.  Its functions close over p,
    s and the tables, never over a ring.  They check nothing: unit_part must
    get a nonzero code, inverse a unit."""
    if p**s > TABLE_RING_SIZE:
        return _arithmetic(p, s, backend)
    add, mul, neg, valuation, unit_part, inverse = _tables(p, s, backend)
    return (
        lambda a, b: add[a][b],
        lambda a, b: mul[a][b],
        neg.__getitem__,
        valuation.__getitem__,
        unit_part.__getitem__,
        inverse.__getitem__,
    )
