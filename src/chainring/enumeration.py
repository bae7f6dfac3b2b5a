"""Exhaustive codeword enumeration, weight distributions, minimum distance.

Every codeword is produced exactly once: the coefficient of a generator row
of valuation i ranges over the p**(s-i) canonical representatives of
R / gamma**(s-i) R, so no deduplication is needed and the yield equals the
cardinality formula.  Weights are taken in the reduced (permuted)
coordinates, which is valid because column permutations preserve Hamming
weight; the codeword stream itself restores original coordinates.

The message space is totally ordered (mixed radix, last generator row varies
fastest) and is walked in contiguous vectorized blocks; the per-block
histograms merge by addition.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .code import LinearCode
from .errors import CapExceededError, InvariantError
from .ring import ChainRing

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "ENUMERATION_CAP_ENV",
    "WeightDistribution",
    "enumerate_codewords",
    "enumeration_cap",
    "min_distance",
    "render_enumerator",
    "weight_distribution",
]

DEFAULT_ENUMERATION_CAP = 1 << 24
ENUMERATION_CAP_ENV = "CHAINRING_ENUM_CAP"

_BLOCK_ROWS = 1 << 16


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
    def min_positive_weight(self) -> int | None:
        for i in range(1, self.n + 1):
            if self.counts[i]:
                return i
        return None


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


# -- vectorized ring arithmetic ------------------------------------------------


def _vec_add(ring: ChainRing, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if ring.backend == "int":
        return (a + b) % ring.size
    p = ring.p
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    pw = 1
    for _ in range(ring.s):
        out += ((a // pw + b // pw) % p) * pw
        pw *= p
    return out


class _MessageSpace:
    """Mixed-radix layout of the message space, with vectorized inner blocks.

    Generator rows split into an outer prefix, whose coefficient offsets are
    scaled on demand, and an inner suffix whose full span is precomputed as
    one block of at most ``_BLOCK_ROWS`` codeword rows.  Scaled tables are
    materialized only for the suffix, so memory stays bounded by the block
    width regardless of ring size; callers cap the total beforehand.
    """

    def __init__(self, code: LinearCode):
        ring = code.ring
        self.ring = ring
        self.n = code.n
        levels: list[int] = []
        for level, k in enumerate(code.profile.counts):
            levels.extend([level] * k)
        self.rows = code.std.reduced.rows
        # block-i coefficients range over the representatives of R/gamma^(s-i)R,
        # which are exactly the codes below p**(s-i)
        self.radices = [ring.p ** (ring.s - level) for level in levels]
        self.total = 1
        for r in self.radices:
            self.total *= r
        block = 1
        cut = len(self.radices)
        while cut > 0 and block * self.radices[cut - 1] <= _BLOCK_ROWS:
            cut -= 1
            block *= self.radices[cut]
        self.cut = cut
        self.block = block
        base = np.zeros((1, self.n), dtype=np.int64)
        for row, radix in zip(self.rows[cut:], self.radices[cut:]):
            scaled = [[ring.mul(c, x) for x in row] for c in range(radix)]
            table = np.array(scaled, dtype=np.int64).reshape(radix, self.n)
            base = _vec_add(ring, base[:, None, :], table[None, :, :]).reshape(-1, self.n)
        self.base = base

    def offset_vector(self, outer: int) -> np.ndarray:
        """Contribution of the outer coefficients for a given outer index."""
        ring = self.ring
        offset = [0] * self.n
        for j in range(self.cut - 1, -1, -1):
            outer, digit = divmod(outer, self.radices[j])
            if digit:
                row = self.rows[j]
                for i in range(self.n):
                    if row[i]:
                        offset[i] = ring.add(offset[i], ring.mul(digit, row[i]))
        return np.array(offset, dtype=np.int64)

    def blocks(self) -> Iterator[np.ndarray]:
        """Codeword rows for every message index, in order, one block per outer index."""
        for outer in range(self.total // self.block):
            chunk = self.base
            offset = self.offset_vector(outer)
            if offset.any():
                chunk = _vec_add(self.ring, chunk, offset[None, :])
            yield chunk


def _check_cap(total: int, cap: int | None) -> None:
    limit = cap if cap is not None else enumeration_cap()
    if total > limit:
        raise CapExceededError(f"code has {total} words, above the enumeration cap {limit}")


def weight_distribution(code: LinearCode, *, cap: int | None = None) -> WeightDistribution:
    """Exact Hamming-weight histogram of all codewords."""
    _check_cap(code.cardinality, cap)
    space = _MessageSpace(code)
    if space.total != code.cardinality:
        raise InvariantError("message space size differs from the cardinality formula")
    n = code.n
    hist = np.zeros(n + 1, dtype=np.int64)
    for chunk in space.blocks():
        weights = np.count_nonzero(chunk, axis=1)
        hist += np.bincount(weights, minlength=n + 1)
    return WeightDistribution(
        n=n,
        counts=tuple(int(x) for x in hist),
        p=code.ring.p,
        s=code.ring.s,
        card=code.cardinality,
        rank=code.rank,
        free_rank=code.free_rank,
    )


def enumerate_codewords(code: LinearCode, *, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every codeword exactly once, as element-code tuples in original coordinates."""
    _check_cap(code.cardinality, cap)
    space = _MessageSpace(code)
    perm = code.std.column_permutation
    inv = [0] * len(perm)
    for pos, src in enumerate(perm):
        inv[src] = pos
    take = np.array(inv, dtype=np.intp) if perm else None
    for chunk in space.blocks():
        restored = chunk[:, take] if take is not None else chunk
        for row in restored.tolist():
            yield tuple(row)


def min_distance(code: LinearCode, *, cap: int | None = None) -> int:
    """Least weight of a nonzero codeword."""
    dist = weight_distribution(code, cap=cap)
    d = dist.min_positive_weight
    if d is None:
        raise ValueError("the zero code has no nonzero codeword")
    return d
