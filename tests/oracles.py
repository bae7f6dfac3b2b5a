"""Independent brute-force oracles.

Everything here avoids the library's reduction and message-space machinery:
spans are built from full coefficient products with set deduplication,
kernels, inverses, valuations and unit parts by exhaustive scans.  Scalar
add, neg and mul are recomputed from the definitions, without the ring's
tables or digit loops, and so is each entry of a matrix product; the
MacWilliams transform is its closed triple sum.  Two codes have the same
codewords when the spans of their generator rows are equal sets.  Codes of
Singleton defect 0 or 1 are re-solved independently of the Pascal solver's
elimination: by the closed MDS formula, the explicit inverse-Pascal form, or
determinant ratios (Cramer's rule).  Intended for small instances only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Mapping

from chainring import (
    ChainRing,
    IdentityContext,
    LinearCode,
    RingMatrix,
    WeightDistribution,
    mds_distribution,
    solve_distribution,
)
from chainring.identities import PascalSystem, _fill_known, binomial


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


def identity_matrix(ring: ChainRing, n: int) -> RingMatrix:
    return RingMatrix(ring, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)


def matmul(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """The product a.b, each entry summed with the oracle's add and mul."""
    assert a.ring == b.ring and a.ncols == b.nrows
    ring = a.ring
    columns = [[row[c] for row in b.rows] for c in range(b.ncols)]
    rows = []
    for row in a.rows:
        out = []
        for column in columns:
            acc = 0
            for x, y in zip(row, column):
                acc = oracle_add(ring, acc, oracle_mul(ring, x, y))
            out.append(acc)
        rows.append(tuple(out))
    return RingMatrix(ring, tuple(rows), b.ncols)


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
    for coeffs in product(range(ring.size), repeat=len(rows)):
        vec = [0] * n
        for c, row in zip(coeffs, rows):
            if c == 0:
                continue
            for i, x in enumerate(row):
                if x:
                    vec[i] = ring.add(vec[i], ring.mul(c, x))
        span.add(tuple(vec))
    return span


def same_codewords(a: LinearCode, b: LinearCode) -> bool:
    """Equal codeword sets, compared as the spans of the two generator matrices."""
    return (a.ring, a.n) == (b.ring, b.n) and span_set(
        a.ring, a.generator_matrix().rows, a.n
    ) == span_set(b.ring, b.generator_matrix().rows, b.n)


def brute_weight_counts(ring: ChainRing, rows, n: int) -> tuple[int, ...]:
    """Weight histogram of the row span, independent of the enumeration core."""
    counter = Counter(sum(1 for x in vec if x) for vec in span_set(ring, rows, n))
    return tuple(counter.get(w, 0) for w in range(n + 1))


def brute_kernel(ring: ChainRing, rows, n: int) -> set[tuple[int, ...]]:
    """All v in R^n with (rows) . v^T == 0, by scanning the whole ambient space."""
    assert ring.size**n <= 1 << 20, "oracle kernel too large"
    kernel: set[tuple[int, ...]] = set()
    for vec in product(range(ring.size), repeat=n):
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


def small_defect_distribution(
    ctx: IdentityContext, known_high_weights: Mapping[int, int]
) -> WeightDistribution:
    """Distribution of a code with Singleton defect 0 or 1.

    Delegates to the Pascal solver, which is the canonical recovery path for
    these codes; closed forms live in ``closed_form_crosscheck``.
    """
    if ctx.d is None:
        raise ValueError("the context must carry the minimum distance")
    defect = ctx.n + 1 - ctx.rank - ctx.d
    if defect not in (0, 1):
        raise ValueError(f"expected Singleton defect 0 or 1, got {defect}")
    return solve_distribution(ctx, known_high_weights)


@dataclass(frozen=True)
class ClosedFormCrossCheck:
    """Solver output versus an independently computed distribution."""

    solver: WeightDistribution
    closed_form: tuple[int, ...] | None
    agrees: bool | None
    note: str


def _mdr_closed_form(ctx: IdentityContext, known: dict[int, int]) -> tuple[int, ...] | None:
    """Explicit inverse-Pascal recovery for defect-0 codes.

    The top unknowns A_{n-k0+sigma+i} satisfy a triangular system whose
    inverse is the signed version of itself:
        A_{n-k0+sigma+i} = sum_{j<=i} (-1)^(i-j) C(k0-sigma-j, i-j) * b_j,
    where b_j collects the right-hand side of the equation at
    nu = n - k0 + sigma + j after moving the lower known counts across.
    """
    n, K, k0 = ctx.n, ctx.rank, ctx.free_rank
    d, d_dual = ctx.d, ctx.d_dual
    if d is None or d_dual is None:
        return None
    sigma = (n + 1 - K - d) + (k0 + 1 - d_dual)
    lower = {}
    for h in range(sigma + K - k0 - 1):
        l = n - K + 1 + h
        if l not in known:
            return None  # not enough knowns for the explicit form
        lower[l] = known[l]
    counts = [0] * (n + 1)
    counts[0] = 1
    for l, v in lower.items():
        counts[l] = v
    for i in range(k0 - sigma + 1):
        total = Fraction(0)
        for j in range(i + 1):
            nu = n - k0 + sigma + j
            b = binomial(n, nu) * (ctx.scaled_cardinality(nu) - 1)
            for l, v in lower.items():
                b -= binomial(n - l, nu - l) * v
            term = binomial(k0 - sigma - j, i - j) * b
            total += -term if (i - j) & 1 else term
        if total.denominator != 1 or total < 0:
            return None
        counts[n - k0 + sigma + i] = int(total)
    return tuple(counts)


def _determinant(rows: list[list[Fraction]]) -> Fraction:
    size = len(rows)
    work = [row[:] for row in rows]
    det = Fraction(1)
    for c in range(size):
        pivot = next((i for i in range(c, size) if work[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        det *= work[c][c]
        inv = 1 / work[c][c]
        for i in range(c + 1, size):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return det


def _cramer_solve(ctx: IdentityContext, known: dict[int, int]) -> tuple[int, ...] | None:
    """Re-solve the Pascal system through determinant ratios.

    Independent of the Gaussian-elimination path; used to cross-check codes
    whose closed form has no reliable explicit shape.
    """
    if ctx.d_dual is None:
        return None
    system = PascalSystem.build(ctx)
    unknowns = [l for l in range(ctx.n + 1) if l not in known]
    u = len(unknowns)
    if u == 0 or u > ctx.d_dual:
        return None
    # The last u equations form a truncated Pascal matrix with u rows, so
    # every u x u column minor is invertible.
    tail = list(zip(system.nus, system.rhs))[-u:]
    base = [[Fraction(binomial(ctx.n - l, nu - l)) for l in unknowns] for nu, _ in tail]
    rhs = [
        Fraction(b) - sum(binomial(ctx.n - l, nu - l) * known[l] for l in known)
        for nu, b in tail
    ]
    det = _determinant(base)
    if det == 0:
        return None
    counts = [0] * (ctx.n + 1)
    for idx, value in known.items():
        counts[idx] = value
    for col, l in enumerate(unknowns):
        replaced = [row[:col] + [rhs[i]] + row[col + 1 :] for i, row in enumerate(base)]
        value = _determinant(replaced) / det
        if value.denominator != 1 or value < 0:
            return None
        counts[l] = int(value)
    return tuple(counts)


def closed_form_crosscheck(
    ctx: IdentityContext, known_high_weights: Mapping[int, int]
) -> ClosedFormCrossCheck:
    """Compare the solver with an independently derived distribution.

    Free defect-0 codes use the closed MDS formula, other defect-0 codes the
    explicit inverse-Pascal form, and defect-1 codes a determinant-based
    re-solve.  Disagreements are reported, never silently trusted.
    """
    if ctx.d is None:
        raise ValueError("the context must carry the minimum distance")
    solver = small_defect_distribution(ctx, known_high_weights)
    defect = ctx.n + 1 - ctx.rank - ctx.d
    known = _fill_known(ctx, known_high_weights)
    if defect == 0 and ctx.rank == ctx.free_rank:
        closed = mds_distribution(ctx.n, ctx.rank, ctx.p, ctx.s).counts
        note = "mds closed form"
    elif defect == 0:
        closed = _mdr_closed_form(ctx, known)
        note = "inverse-Pascal closed form" if closed else "insufficient knowns for the closed form"
    else:
        closed = _cramer_solve(ctx, known)
        note = "determinant re-solve" if closed else "determinant re-solve unavailable"
    agrees = (closed == solver.counts) if closed is not None else None
    return ClosedFormCrossCheck(solver=solver, closed_form=closed, agrees=agrees, note=note)
