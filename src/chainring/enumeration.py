"""Exhaustive codeword enumeration, weight distributions, minimum distance.

Every codeword is produced exactly once: the coefficient of a generator row
of valuation i ranges over the p**(s-i) canonical representatives of
R / gamma**(s-i) R, so no deduplication is needed and the yield equals the
cardinality formula.  Weights are taken in the reduced (permuted)
coordinates, which is valid because column permutations preserve Hamming
weight.

Digit rows.  A representative c < p**(s-i) has base-p digits d_m (in the
polynomial backend, its coefficients), and c*g is the sum of the integer
multiples d_m * (gamma**m g) in both backends.  Each generator row of level
i is therefore split into s-i digit rows gamma**m g of radix p, high digit
first, and the message space becomes the base-p numbers of log_p |C|
digits, totally ordered with the last digit row varying fastest.  One
vectorized builder (``_MessageSpace.table``) makes every table of words: one
value of the high digit rows, every value of the low ones.

Coefficient planes.  The builder only adds and takes integer multiples, so
it works in the additive group of R**n: (Z/q)**n, or (Z/p)**(n*s) for
F_p[u]/(u**s), whose digit rows are unpacked once into s coefficient planes
mod p.  A table takes the multiples of its low digit rows from one
broadcast and adds each digit with one broadcast add; the sums are reduced
mod m once per table, in an accumulator dtype sized from the digit count.
Each digit adds at most (p-1)*(m-1), so with q <= 2**31 only codes of more
than 2**150 words could pass uint64, and those are refused.  A finished
table is packed back into base-p element codes, stored in the narrowest
unsigned dtype that holds them.

Compare, don't add.  In any ring a + b == 0 exactly when a == -b.  The low
digit rows span an inner table of words; the high ones give outer offsets,
built negated (-h is (m-1)*h mod m).  Word (outer, inner) then has weight
``count_nonzero(inner != -outer)``: one comparison per cell of the packed
codes, with no modular addition.  The first column's comparison starts the
counter grid, written through a bool view of its bytes (cast into a uint16
grid from n = 256); each later column's lands in a bool buffer that the
grid adds through a uint8 view of the same bytes, so the add runs no
bool-to-integer cast.

Cell budget.  No array the enumeration allocates holds more than
``_BLOCK_CELLS`` cells, plane cells included: word tables hold at most
``_BLOCK_CELLS // width`` words of n*planes cells (one word when a word is
larger), the multiples of a table's digit rows no more cells than the
table (a radix r adds r rows, and a product of radices is at least their
sum), and one kernel iteration compares a run of negated offsets with the
inner table in a grid of at most ``_BLOCK_CELLS`` words.  The counter grid
and the compare buffer are allocated once per call at that size; each
iteration overwrites views of their leading rows.  A digit whose radix
p exceeds a table is split into contiguous chunks of its range, since
[a, a+b)*h == a*h + [0, b)*h, so no ring falls back to a word per iteration.

Counting weights.  ``_histogram`` picks one of three counts by n alone.
``np.bincount`` adds one to a counter per value, and when most values are
equal each add waits on the store of the one before it.  That is the common
case in this package's regime: over a large ring almost every word of a
short code with a small Singleton defect has full weight (94% of a Z/81
length-5 code and of its dual).  Timed on 2**15-word uint8 arrays (2-core
x86_64, numpy 2.4), the pair count below takes about 40 us for weights drawn
uniformly and 67-70 us when 93% of them equal n, while one equality pass
takes 6-8 us per weight value whatever the spread.

- n < 7: one ``np.equal(weights, w)`` into a bool buffer and one
  ``np.count_nonzero`` for each w from n down, until the passes have counted
  every word of the grid (three or four of the six passes on most grids of
  a Z/81 [5, 2] code's dual).  The buffer is allocated once per call at
  ``_BLOCK_CELLS`` cells, the size of the largest grid.  Each weight gets
  its own pass, rather than the rest of the words, so that a kernel that
  yields a weight above n never leaves a grid early and still fails
  ``WeightDistribution``'s check that the counts total |C|.  On skewed
  arrays the passes win up to n = 6 and tie at n = 7; on uniform ones they
  win up to n = 4 only, but whole calls on codes of n = 5 and 6 whose
  weights spread (full spaces over Z/4, Z/5, Z/7, Z/8 and Z/9, at most
  half of the words at full weight) took 0.98-1.02 times as long as with
  the pairs, and on Z/81 codes 0.87-0.92 times.
- 7 <= n < 64: two weights to a bin.  ``np.bincount`` first widens its
  input to intp, eight bytes a word, which cost about a third of
  ``weight_distribution``.  The histogram reads each uint8 counter array as
  uint16 pairs, each the value w_a + 256*w_b, and counts half as many values
  into 256*(n+1) bins (an odd last word is counted on its own).  The pair in
  bin (high, low) is one word of weight high and one of weight low, so the
  histogram is the sum of the two marginals of the (n+1) x 256 bin table:
  as both are added, the fold does not depend on which word of a pair the
  machine's byte order puts high.
- n >= 64: the plain count.  The pair table is bounded by the pairs of a
  full grid, ``_BLOCK_CELLS // 2`` cells, since each iteration allocates
  and adds a table of that size: wider tables cost more than the widening
  they save (measured on 2**16-word Z/4 codes, from n = 104 every call is
  slower).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator

import numpy as np

from .code import LinearCode
from .errors import CapExceededError, InvariantError
from .ring import ChainRing

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "ENUMERATION_CAP_ENV",
    "WeightDistribution",
    "enumeration_cap",
    "render_enumerator",
    "weight_distribution",
]

DEFAULT_ENUMERATION_CAP = 1 << 24
ENUMERATION_CAP_ENV = "CHAINRING_ENUM_CAP"

_BLOCK_CELLS = 1 << 15
_PAIRS_FROM = 7  # shorter codes count each weight with its own equality pass


def enumeration_cap() -> int:
    """Active enumeration cap (environment override wins)."""
    raw = os.environ.get(ENUMERATION_CAP_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENUMERATION_CAP_ENV} must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValueError(f"{ENUMERATION_CAP_ENV} must be positive, got {value}")
        return value
    return DEFAULT_ENUMERATION_CAP


def _check_enumeration_cap(words: int) -> None:
    """Refuse to enumerate a code of this many words above ``enumeration_cap()``."""
    cap = enumeration_cap()
    if words > cap:
        raise CapExceededError(f"code has {words} words, above the enumeration cap {cap}")


def _check_ring_and_ranks(n: int, p: int, s: int, rank: int, free_rank: int) -> None:
    """Refuse a ring that does not exist, or ranks no length-n code has."""
    ChainRing(p, s)  # the rules of a ring
    if not 0 <= free_rank <= rank <= n:
        raise ValueError(
            f"need 0 <= free_rank <= rank <= n, got {free_rank}, {rank} and {n}"
        )


def _check_card(card: int, p: int, s: int, rank: int, free_rank: int) -> None:
    """Refuse a cardinality that no code of this rank and free rank has.

    Such a code is a sum of ``free_rank`` copies of R (p**s words each) and
    ``rank - free_rank`` proper ideals (p to p**(s-1) words each).
    """
    ChainRing(p, s)  # the rules of a ring: below p = 2 the loop never ends
    low = s * free_rank + (rank - free_rank)
    high = s * free_rank + (s - 1) * (rank - free_rank)
    m, rest = 0, card
    while rest > 1 and rest % p == 0:
        rest //= p
        m += 1
    if rest != 1 or not low <= m <= high:
        raise ValueError(
            f"card {card} is not {p}**m with {low} <= m <= {high}, the sizes of codes "
            f"of rank {rank} and free rank {free_rank} over a ring of {p}**{s} elements"
        )


@dataclass(frozen=True)
class WeightDistribution:
    """Exact codeword counts by Hamming weight, with the code's parameters."""

    n: int
    counts: tuple[int, ...]
    p: int
    s: int
    card: int
    rank: int
    free_rank: int

    def __post_init__(self) -> None:
        _check_ring_and_ranks(self.n, self.p, self.s, self.rank, self.free_rank)
        _check_card(self.card, self.p, self.s, self.rank, self.free_rank)
        if len(self.counts) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} counts, got {len(self.counts)}")
        if self.counts[0] != 1:
            raise ValueError("a linear code contains the zero word exactly once")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative codeword count")
        if sum(self.counts) != self.card:
            raise ValueError(
                f"counts total {sum(self.counts)} but the code has {self.card} words"
            )

    @property
    def distance(self) -> int:
        """Least weight of a nonzero word; n + 1 for the zero code, whose terms
        beyond A_0 vanish in every identity."""
        return next((w for w in range(1, self.n + 1) if self.counts[w]), self.n + 1)


def render_enumerator(dist: WeightDistribution) -> str:
    """Plain-text bivariate weight enumerator, e.g. ``X^3 + 3*X^2*Y + ...``."""
    terms = []
    for i, a in enumerate(dist.counts):
        if a == 0:
            continue
        parts = []
        if a != 1:
            parts.append(str(a))
        xe = dist.n - i
        if xe > 0:
            parts.append("X" if xe == 1 else f"X^{xe}")
        if i > 0:
            parts.append("Y" if i == 1 else f"Y^{i}")
        terms.append("*".join(parts) if parts else "1")
    return " + ".join(terms) if terms else "0"


# -- the kernel -----------------------------------------------------------------


def _narrowest(bound: int) -> np.dtype:
    """The smallest unsigned dtype that holds every integer below ``bound``."""
    return np.min_scalar_type(bound - 1)


_Digits = list[tuple[np.ndarray, int]]  # (row, radix) pairs, high digit first


class _MessageSpace:
    """A code's message space as base-p digit rows, with the table builder and kernel."""

    def __init__(self, code: LinearCode):
        ring = code.ring
        p, q, n = ring.p, ring.size, code.n
        self.planes = ring.s if ring.backend == "poly" else 1
        self.modulus = p if ring.backend == "poly" else q
        self.p = p
        self.n = n
        self.width = n * self.planes
        self.narrow = _narrowest(q)
        self.place = p ** np.arange(self.planes, dtype=self.narrow)
        self.table_rows = max(1, _BLOCK_CELLS // max(self.width, 1))
        rows = code.std.reduced.rows
        reduced = np.array(rows, dtype=np.int64).reshape(len(rows), n)
        levels = [level for level, k in enumerate(code.profile.counts) for _ in range(k)]
        # gamma**m * g is g * p**m mod q in both backends: in the polynomial
        # one it shifts the packed base-p coefficients up by m.
        digits = [
            reduced[j] * p**m % q
            for j, level in enumerate(levels)
            for m in reversed(range(ring.s - level))
        ]
        digits = np.array(digits, dtype=np.int64).reshape(len(digits), n, 1)
        self.digits = (digits // self.place % self.modulus).reshape(len(digits), self.width)
        self.total = p ** len(digits)
        # A table sums at most (p-1)*(m-1) per digit before its one reduction,
        # which takes m itself as an operand of the same dtype.
        m = self.modulus
        self.acc = _narrowest(max((p - 1) * (m - 1) * len(digits), m) + 1)
        if self.acc == object:
            raise CapExceededError(f"code has {self.total} words, too many to sum in uint64")

    def _split(self, digits: _Digits) -> int:
        """How many of the lowest ``digits`` span at most one table."""
        low, span = 0, 1
        while low < len(digits) and span * digits[-1 - low][1] <= self.table_rows:
            span *= digits[-1 - low][1]
            low += 1
        return low

    def table(self, high: _Digits, index: int, low: _Digits) -> np.ndarray:
        """Words with the ``high`` digits at mixed-radix ``index`` and every value of ``low``.

        Table rows run in message order.  The offset of the high digits is one
        row; each low digit then multiplies the table by its radix, adding its
        multiples from one broadcast.  The sums are reduced once and planes packed last.
        """
        words = np.zeros((1, self.width), dtype=self.acc)
        for row, radix in reversed(high):
            index, d = divmod(index, radix)
            words += d * row
        if low:
            rows = np.array([row for row, _ in low], dtype=self.acc)[:, None, :]
            multiples = rows * np.arange(max(radix for _, radix in low), dtype=self.acc)[:, None]
            for values, (_, radix) in zip(multiples, low):
                words = (words[:, None, :] + values[:radix]).reshape(-1, self.width)
        words %= self.modulus
        if self.planes > 1:
            return words.reshape(len(words), self.n, self.planes) @ self.place
        return words.astype(self.narrow)

    def tables(self, digits: _Digits) -> Iterator[np.ndarray]:
        """Every word of ``digits`` in message order, in tables within the budget."""
        cut = len(digits) - self._split(digits)
        high, low = digits[:cut], digits[cut:]
        for index in range(prod(radix for _, radix in high)):
            yield self.table(high, index, low)

    def weights(self) -> Iterator[np.ndarray]:
        """Weights of every codeword, one flat array per kernel iteration.

        A yielded array may be a view of a buffer that the next iteration
        overwrites: it is valid only until the generator resumes.
        """
        n, p, m = self.n, self.p, self.modulus
        negated = (m - 1) * self.digits % m  # -h == (m-1)*h
        inner = [(h, p) for h in self.digits.astype(self.acc)]
        outer = [(h, p) for h in negated.astype(self.acc)]
        cut = len(inner) - self._split(inner)
        chunks = 0
        inner, outer = inner[cut:], outer[:cut]
        if not inner and outer:
            # The last digit's radix exceeds a table: the inner table spans
            # [0, b) of it, and a chunk digit steps the offsets by b*h.
            b = self.table_rows
            chunks = -(-p // b)
            inner = [(self.digits[-1].astype(self.acc), b)]
            outer[-1] = ((b * negated[-1] % m).astype(self.acc), chunks)
        inner_table = self.table([], 0, inner)
        inner_cols = np.ascontiguousarray(inner_table.T)
        size = len(inner_table)
        per = max(1, _BLOCK_CELLS // size)
        grids = np.zeros((per, size), dtype=_narrowest(n + 1))  # a length-0 code's stay zero
        # The first column's comparison starts the grid: through a bool view of
        # uint8 counters, or cast into uint16 ones.
        starts = grids.view(bool) if grids.itemsize == 1 else grids
        compares = np.empty((per, size), dtype=bool)
        flags = compares.view(np.uint8)  # bool's item size: the add runs no cast
        position = 0
        for negs in self.tables(outer):
            parts = -(-len(negs) // per)
            for k in range(parts):
                lo, hi = k * len(negs) // parts, (k + 1) * len(negs) // parts
                grid, differs = grids[: hi - lo], compares[: hi - lo]
                if n:
                    np.not_equal(negs[lo:hi, 0, None], inner_cols[0], out=starts[: hi - lo])
                for col in range(1, n):
                    np.not_equal(negs[lo:hi, col, None], inner_cols[col], out=differs)
                    grid += flags[: hi - lo]
                if chunks:
                    # the last chunk of the split digit runs past p
                    start = np.arange(position + lo, position + hi) % chunks * size
                    yield grid[np.arange(size) < (p - start)[:, None]]
                else:
                    yield grid.ravel()
            position += len(negs)


def _histogram(stream: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Counts of weights 0..n over a stream of counter arrays of ``_narrowest(n + 1)``.

    Each array holds at most ``_BLOCK_CELLS`` counters, as the kernel's grids do.
    """
    hist = np.zeros(n + 1, dtype=np.int64)
    if n < _PAIRS_FROM:
        buffer = np.empty(_BLOCK_CELLS, dtype=bool)
        for weights in stream:
            equal = buffer[: len(weights)]
            left = len(weights)
            for w in range(n, -1, -1):
                np.equal(weights, w, out=equal)
                found = np.count_nonzero(equal)
                hist[w] += found
                left -= found
                if not left:
                    break
        return hist
    if 256 * (n + 1) > _BLOCK_CELLS // 2:
        for weights in stream:
            hist += np.bincount(weights, minlength=n + 1)
        return hist
    bins = np.zeros(256 * (n + 1), dtype=np.int64)
    for weights in stream:
        even = len(weights) & ~1
        if even < len(weights):
            hist[weights[-1]] += 1
        bins += np.bincount(weights[:even].view(np.uint16), minlength=len(bins))
    pairs = bins.reshape(n + 1, 256)[:, : n + 1]
    return hist + pairs.sum(axis=0) + pairs.sum(axis=1)


def weight_distribution(code: LinearCode) -> WeightDistribution:
    """Exact Hamming-weight histogram of all codewords, under ``enumeration_cap()``."""
    _check_enumeration_cap(code.cardinality)
    space = _MessageSpace(code)
    if space.total != code.cardinality:
        raise InvariantError("message space size differs from the cardinality formula")
    n = code.n
    hist = _histogram(space.weights(), n)
    return WeightDistribution(
        n=n,
        counts=tuple(int(x) for x in hist),
        p=code.ring.p,
        s=code.ring.s,
        card=code.cardinality,
        rank=code.rank,
        free_rank=code.free_rank,
    )
