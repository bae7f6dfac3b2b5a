"""Independent brute-force oracles.

Everything here avoids the library's reduction and message-space machinery:
spans are built from full coefficient products with set deduplication,
kernels, inverses, valuations and unit parts by exhaustive scans.  Scalar
add, neg and mul are recomputed from the definitions, without the ring's
tables or digit loops, and the MacWilliams transform by its closed triple
sum.  Intended for small instances only.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

from chainring import ChainRing


def _coefficients(ring: ChainRing, code: int) -> list[int]:
    """Base-p digits of a code, lowest first: the polynomial's coefficients."""
    return [code // ring.p**k % ring.p for k in range(ring.s)]


def _packed(ring: ChainRing, coefficients) -> int:
    """Code of the polynomial with these coefficients, reduced mod p."""
    return sum(c % ring.p * ring.p**k for k, c in enumerate(coefficients))


def oracle_add(ring: ChainRing, a: int, b: int) -> int:
    if ring.backend == "int":
        return (a + b) % ring.size
    return _packed(ring, [x + y for x, y in zip(_coefficients(ring, a), _coefficients(ring, b))])


def oracle_neg(ring: ChainRing, a: int) -> int:
    if ring.backend == "int":
        return -a % ring.size
    return _packed(ring, [-x for x in _coefficients(ring, a)])


def oracle_mul(ring: ChainRing, a: int, b: int) -> int:
    """Integer product mod p**s, or the convolution truncated below u**s."""
    if ring.backend == "int":
        return a * b % ring.size
    xs, ys = _coefficients(ring, a), _coefficients(ring, b)
    full = [0] * (2 * ring.s - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            full[i + j] += x * y
    return _packed(ring, full[: ring.s])


def oracle_macwilliams(dist) -> tuple[Fraction, ...]:
    """Dual counts of a distribution: sum_i A_i [Y^k] (X + (q-1)Y)^(n-i) (X - Y)^i, over |C|.

    Each coefficient is the triple sum over b of (-1)^b C(i, b) C(n-i, k-b)
    (q-1)^(k-b); no row is derived from another.
    """
    n, q = dist.n, dist.p**dist.s
    coeffs = [0] * (n + 1)
    for i, a_i in enumerate(dist.counts):
        for k in range(n + 1):
            for b in range(min(i, k) + 1):
                t = comb(i, b) * comb(n - i, k - b) * (q - 1) ** (k - b)
                coeffs[k] += a_i * (-t if b & 1 else t)
    return tuple(Fraction(v, dist.card) for v in coeffs)


def brute_inverse(ring: ChainRing, code: int) -> int | None:
    """Scan all elements for a multiplicative inverse."""
    for candidate in range(ring.size):
        if oracle_mul(ring, code, candidate) == 1:
            return candidate
    return None


def oracle_valuation(ring: ChainRing, code: int) -> int:
    """Largest j <= s with code a multiple of gamma**j, by scanning the multiples.

    gamma is p (integer backend) or u (polynomial backend); both have code p,
    and gamma**j has code p**j below s and is zero from s on.
    """
    return max(
        j
        for j in range(ring.s + 1)
        if any(oracle_mul(ring, ring.p**j % ring.size, b) == code for b in range(ring.size))
    )


def oracle_unit_part(ring: ChainRing, code: int) -> int:
    """The w with gamma**v * w == code, v the valuation, among the canonical
    representatives of R / gamma**(s-v): the codes below p**(s-v)."""
    v = oracle_valuation(ring, code)
    (w,) = [w for w in range(ring.p ** (ring.s - v)) if oracle_mul(ring, ring.p**v, w) == code]
    return w


def span_set(ring: ChainRing, rows, n: int) -> set[tuple[int, ...]]:
    """All vectors in the row span: full coefficient product, set-deduplicated."""
    rows = [tuple(row) for row in rows]
    assert ring.size ** len(rows) <= 1 << 20, "oracle span too large"
    span: set[tuple[int, ...]] = set()
    for coeffs in product(ring.elements(), repeat=len(rows)):
        vec = [0] * n
        for c, row in zip(coeffs, rows):
            if c == 0:
                continue
            for i, x in enumerate(row):
                if x:
                    vec[i] = ring.add(vec[i], ring.mul(c, x))
        span.add(tuple(vec))
    return span


def brute_weight_counts(ring: ChainRing, rows, n: int) -> tuple[int, ...]:
    """Weight histogram of the row span, independent of the enumeration core."""
    counter = Counter(sum(1 for x in vec if x) for vec in span_set(ring, rows, n))
    return tuple(counter.get(w, 0) for w in range(n + 1))


def brute_kernel(ring: ChainRing, rows, n: int) -> set[tuple[int, ...]]:
    """All v in R^n with (rows) . v^T == 0, by scanning the whole ambient space."""
    assert ring.size**n <= 1 << 20, "oracle kernel too large"
    kernel: set[tuple[int, ...]] = set()
    for vec in product(ring.elements(), repeat=n):
        ok = True
        for row in rows:
            acc = 0
            for h, v in zip(row, vec):
                if h and v:
                    acc = ring.add(acc, ring.mul(h, v))
            if acc:
                ok = False
                break
        if ok:
            kernel.add(vec)
    return kernel
