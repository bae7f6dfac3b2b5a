"""Exact linear identities on weight distributions.

Everything here is integer or exact-rational arithmetic; equality is the only
tolerance.  The machinery:

* the MacWilliams transform between a distribution and its dual,
* the subset-count relation
      sum_l C(n-l, nu-l) A_l  ==  C(n, nu) |C| / p^(s(n-nu)),
  valid for every nu above n - d_dual,
* an unconditional double count of kernel vectors of column submatrices of a
  parity-check matrix,
* power moments (full form against the dual distribution, and the short form
  valid below the dual distance),
* exact solvers that complete a partial distribution from either system, and
* the closed form for MDS codes.

Each identity is one row, the coefficients of A_0..A_n and an exact right
side, which its check evaluates and its solver stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Mapping

from .code import LinearCode, _check_distances
from .enumeration import (
    WeightDistribution,
    _check_card,
    _check_ring_and_ranks,
    weight_distribution,
)
from .matrix import DEFAULT_SUBSET_CAP, TypeProfile, _subset_profiles

__all__ = [
    "DoubleCountCheck",
    "IdentityContext",
    "RelationCheck",
    "binomial",
    "check_new_relation",
    "double_count_check",
    "macwilliams_transform",
    "mds_distribution",
    "new_relation_report",
    "power_moment",
    "solve_distribution",
    "solve_distribution_pless",
]


def binomial(a: int, b: int) -> int:
    """C(a, b), zero outside 0 <= b <= a (sums here rely on that convention)."""
    if b < 0 or b > a or a < 0:
        return 0
    return comb(a, b)


@dataclass(frozen=True)
class IdentityContext:
    """Code parameters the identities depend on; distances are optional.

    Refuses, with ValueError, a ring that does not exist, ranks outside
    0 <= free_rank <= rank <= n, a cardinality that no code of the rank and
    free rank has, and distances outside 1 <= d <= n, 1 <= d_dual <= n + 1
    and d + d_dual <= n + 2.  Within these rules the context is trusted: a
    wrong but possible distance can still mislead the solvers.
    """

    n: int
    p: int
    s: int
    card: int
    rank: int
    free_rank: int
    d: int | None = None
    d_dual: int | None = None

    def __post_init__(self) -> None:
        _check_ring_and_ranks(self.n, self.p, self.s, self.rank, self.free_rank)
        _check_card(self.card, self.p, self.s, self.rank, self.free_rank)
        _check_distances(self.n, self.d, self.d_dual)

    @classmethod
    def from_code(
        cls, code: LinearCode, d: int | None = None, d_dual: int | None = None
    ) -> IdentityContext:
        return cls.from_profile(
            code.n, code.ring.p, code.ring.s, code.profile.counts, d=d, d_dual=d_dual
        )

    @classmethod
    def from_profile(
        cls,
        n: int,
        p: int,
        s: int,
        counts,
        d: int | None = None,
        d_dual: int | None = None,
    ) -> IdentityContext:
        """Context for a code of a given type; the cardinality is derived, so
        it is consistent with the profile by construction."""
        counts = tuple(counts)
        if len(counts) != s or any(k < 0 for k in counts):
            raise ValueError(f"type profile must be {s} nonnegative counts, got {counts!r}")
        profile = TypeProfile(counts)
        # Before p**m is computed, which an impossible rank could make huge.
        _check_ring_and_ranks(n, p, s, profile.rank, profile.free_rank)
        return cls(
            n=n,
            p=p,
            s=s,
            card=profile.module_size(p),
            rank=profile.rank,
            free_rank=profile.free_rank,
            d=d,
            d_dual=d_dual,
        )

    def scaled_cardinality(self, nu: int) -> Fraction:
        """|C| / p^(s(n-nu)), evaluated per equation."""
        return Fraction(self.card, self.p ** (self.s * (self.n - nu)))


@dataclass(frozen=True)
class RelationCheck:
    """One evaluated identity: integer left side, exact rational right side."""

    nu: int
    lhs: int
    rhs: Fraction
    holds: bool
    required: bool | None = None


@dataclass(frozen=True)
class DoubleCountCheck:
    """Two independent counts of the same set; must agree for every nu."""

    nu: int
    kernel_side: int
    codeword_side: int
    holds: bool


def _check_space(dist: WeightDistribution, n: int, p: int, s: int, what: str) -> None:
    """Refuse a distribution of a code of another length or over another ring."""
    if (dist.n, dist.p, dist.s) != (n, p, s):
        raise ValueError(
            f"{what} is of length {dist.n} over {dist.p}**{dist.s} elements, "
            f"not length {n} over {p}**{s}"
        )


def _dual_distance(dual_dist: WeightDistribution) -> int:
    """Minimum distance of the dual; n + 1 for the zero dual, whose terms beyond
    A_0 vanish at every nu."""
    d = dual_dist.min_positive_weight
    return d if d is not None else dual_dist.n + 1


# -- rows -----------------------------------------------------------------------
# One identity at one nu: the coefficients of A_0..A_n and the exact right side.
# ``params`` is a context or a distribution; both carry n, p, s and card.


def _check_nu(n: int, nu: int) -> None:
    if not 0 <= nu <= n:
        raise ValueError(f"nu must lie in 0..{n}, got {nu}")


def _pascal_row(n: int, nu: int) -> list[int]:
    """C(n-l, nu-l) for l = 0..n: the subset-count coefficients."""
    _check_nu(n, nu)
    return [binomial(n - l, nu - l) for l in range(n + 1)]


def _subset_count_row(params, nu: int) -> tuple[list[int], Fraction]:
    """sum_l C(n-l, nu-l) A_l  ==  C(n, nu) |C| / p^(s(n-nu))."""
    coeffs = _pascal_row(params.n, nu)
    return coeffs, binomial(params.n, nu) * IdentityContext.scaled_cardinality(params, nu)


def _moment_row(params, nu: int) -> tuple[list[int], Fraction]:
    """sum_l C(l, nu) A_l  ==  (|C| / q^nu) C(n, nu) (q-1)^nu, below the dual distance."""
    n, q = params.n, params.p**params.s
    _check_nu(n, nu)
    coeffs = [binomial(l, nu) for l in range(n + 1)]
    return coeffs, Fraction(params.card, q**nu) * binomial(n, nu) * (q - 1) ** nu


# -- MacWilliams ---------------------------------------------------------------


def macwilliams_transform(dist: WeightDistribution) -> WeightDistribution:
    """Distribution of the dual code, by exact polynomial substitution.

    Expands W(X + (p^s - 1) Y, X - Y) coefficient by coefficient in integer
    arithmetic and divides by |C|.  A non-integral or negative coefficient
    means the input was not the distribution of any linear code.
    """
    n, card = dist.n, dist.card
    q = dist.p**dist.s
    coeffs = [0] * (n + 1)
    # Y-coefficients of (X + (q-1)Y)^(n-i) (X - Y)^i: the next i multiplies by
    # (X - Y) and divides exactly by (X + (q-1)Y), in O(n) integer steps.
    row = [binomial(n, k) * (q - 1) ** k for k in range(n + 1)]
    for i, a_i in enumerate(dist.counts):
        for k, r in enumerate(row):
            coeffs[k] += a_i * r
        if i < n:
            quotient = [row[0]]
            for r in row[1:n]:
                quotient.append(r - (q - 1) * quotient[-1])
            row = [a - b for a, b in zip(quotient + [0], [0] + quotient)]
    dual_counts = []
    for k, v in enumerate(coeffs):
        if v % card:
            raise ValueError(
                f"transform coefficient at weight {k} is not divisible by |C|; "
                "input is not a valid weight distribution"
            )
        w = v // card
        if w < 0:
            raise ValueError(
                f"transform produced a negative count at weight {k}; "
                "input is not a valid weight distribution"
            )
        dual_counts.append(w)
    total = q**n
    if total % card:
        raise ValueError("cardinality does not divide the ambient space size")
    return WeightDistribution(
        n=n,
        counts=tuple(dual_counts),
        p=dist.p,
        s=dist.s,
        card=total // card,
        rank=n - dist.free_rank,
        free_rank=n - dist.rank,
    )


# -- subset-count relation -------------------------------------------------------


def check_new_relation(
    dist: WeightDistribution, nu: int, d_dual: int | None = None
) -> RelationCheck:
    """Evaluate sum_l C(n-l, nu-l) A_l against C(n, nu) |C| / p^(s(n-nu)).

    The relation is guaranteed only for nu > n - d_dual; when d_dual is given
    the ``required`` flag marks that range, below it the residual is simply
    reported.
    """
    _check_distances(dist.n, None, d_dual)
    coeffs, rhs = _subset_count_row(dist, nu)
    lhs = sum(c * a for c, a in zip(coeffs, dist.counts))
    required = None if d_dual is None else nu > dist.n - d_dual
    return RelationCheck(nu=nu, lhs=lhs, rhs=rhs, holds=lhs == rhs, required=required)


def new_relation_report(dist: WeightDistribution, d_dual: int | None) -> list[RelationCheck]:
    """The relation at every nu, with the guaranteed range flagged."""
    if d_dual is None:
        raise ValueError("threshold validation needs the dual minimum distance")
    return [check_new_relation(dist, nu, d_dual) for nu in range(dist.n + 1)]


def double_count_check(
    code: LinearCode,
    nu: int,
    *,
    distribution: WeightDistribution | None = None,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> DoubleCountCheck:
    """Count kernel vectors of nu-column submatrices of H in two ways.

    Side one sums |ker H_I| over all column subsets I of size nu; side two is
    the binomial-weighted sum over the weight distribution.  Equality holds
    for every nu, with no threshold.

    Chain rings are Frobenius, so the column space of H_I has the type of its
    row space and |ker H_I| = q^nu / |rowspace(H_I)| is read off the type of
    the reduced submatrix.
    """
    coeffs = _pascal_row(code.n, nu)
    ring = code.ring
    if distribution is not None:
        _check_space(distribution, code.n, ring.p, ring.s, "the distribution")
        if distribution.card != code.cardinality:
            raise ValueError(
                f"the distribution counts {distribution.card} words, "
                f"the code has {code.cardinality}"
            )
    kernel_side = sum(
        ring.size**nu // profile.module_size(ring.p) * count
        for profile, count in _subset_profiles(code.parity_check(), nu, subset_cap).items()
    )
    dist = distribution if distribution is not None else weight_distribution(code)
    codeword_side = sum(c * a for c, a in zip(coeffs, dist.counts))
    return DoubleCountCheck(
        nu=nu,
        kernel_side=kernel_side,
        codeword_side=codeword_side,
        holds=kernel_side == codeword_side,
    )


# -- power moments ---------------------------------------------------------------


def power_moment(
    dist: WeightDistribution,
    dual_dist: WeightDistribution | None = None,
    *,
    nu: int,
    form: str | None = None,
) -> RelationCheck:
    """Evaluate sum_j C(j, nu) A_j against its closed right-hand side.

    ``form="full"`` uses the dual distribution:
        (|C| / p^(s nu)) * sum_{j<=nu} (-1)^j C(n-j, n-nu) (p^s-1)^(nu-j) A_j-dual.
    ``form="pless"`` applies below the dual distance, where the dual terms
    collapse:
        (|C| / p^(s nu)) * C(n, n-nu) (p^s-1)^nu.
    The form defaults to "full" when a dual distribution is supplied, which
    must have the length and ring of ``dist`` and |C| |C_dual| = p^(s n) words.
    """
    n = dist.n
    q = dist.p**dist.s
    if dual_dist is not None:
        _check_space(dual_dist, n, dist.p, dist.s, "the dual distribution")
        if dist.card * dual_dist.card != q**n:
            raise ValueError(
                f"|C| |C_dual| = {dist.card} * {dual_dist.card}, not q**n = {q**n}"
            )
    coeffs, short_rhs = _moment_row(dist, nu)
    if form is None:
        form = "full" if dual_dist is not None else "pless"
    lhs = sum(c * a for c, a in zip(coeffs, dist.counts))
    if form == "full":
        if dual_dist is None:
            raise ValueError("the full power-moment form needs the dual distribution")
        acc = 0
        for j in range(nu + 1):
            t = binomial(n - j, n - nu) * (q - 1) ** (nu - j) * dual_dist.counts[j]
            acc += -t if j & 1 else t
        rhs = Fraction(dist.card, q**nu) * acc
    elif form == "pless":
        dual = dual_dist if dual_dist is not None else macwilliams_transform(dist)
        dd = _dual_distance(dual)
        if nu >= dd:
            raise ValueError(f"the short form needs nu < dual distance {dd}, got {nu}")
        rhs = short_rhs
    else:
        raise ValueError(f"unknown form {form!r}; expected 'full' or 'pless'")
    return RelationCheck(nu=nu, lhs=lhs, rhs=rhs, holds=lhs == rhs)


# -- solvers --------------------------------------------------------------------


def _solve_exact(rows: list[list[int]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve an (m x u) system with m >= u by exact Gaussian elimination.

    Requires full column rank; surplus equations must be consistent, which
    with u = 0 checks every equation.
    """
    m = len(rows)
    u = len(rows[0]) if rows else 0
    work = [row[:] + [b] for row, b in zip(rows, rhs)]
    for r in range(u):
        pivot = next((i for i in range(r, m) if work[i][r] != 0), None)
        if pivot is None:
            raise ValueError("singular system: the given unknowns are not determined")
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / Fraction(work[r][r])
        work[r] = [x * inv for x in work[r]]
        for i in range(m):
            if i != r and work[i][r] != 0:
                f = work[i][r]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
    for i in range(u, m):
        if work[i][u] != 0:
            raise ValueError(
                "inconsistent inputs: the supplied values satisfy no common solution"
            )
    return [work[i][u] for i in range(u)]


def _fill_known(ctx: IdentityContext, known: Mapping[int, int]) -> dict[int, int]:
    filled: dict[int, int] = {}
    for idx, value in known.items():
        idx, value = int(idx), int(value)
        if not 0 <= idx <= ctx.n:
            raise ValueError(f"known index {idx} out of range 0..{ctx.n}")
        if value < 0:
            raise ValueError(f"known count at index {idx} is negative")
        filled[idx] = value
    if ctx.d is not None:
        for idx in range(ctx.d):
            implied = 1 if idx == 0 else 0
            if idx in filled and filled[idx] != implied:
                raise ValueError(
                    f"known value at index {idx} contradicts minimum distance {ctx.d}"
                )
            filled[idx] = implied
    return filled


def _complete(
    ctx: IdentityContext,
    known: Mapping[int, int],
    row: Callable[[IdentityContext, int], tuple[list[int], Fraction]],
    nus: Callable[[], range],
) -> WeightDistribution:
    """Both solvers' one path: fill the knowns, stack the rows at ``nus()``,
    solve the rest.  Each right side is a sum of counts for any code, so it
    must be a nonnegative integer."""
    if ctx.d_dual is None:
        raise ValueError("solving needs the dual minimum distance in the context")
    known = _fill_known(ctx, known)
    equations = []
    for nu in nus():
        coeffs, value = row(ctx, nu)
        if value.denominator != 1 or value < 0:
            raise ValueError(
                f"right-hand side at nu={nu} is {value}, not a nonnegative "
                "integer; the context is inconsistent"
            )
        equations.append((coeffs, value))
    unknowns = [l for l in range(ctx.n + 1) if l not in known]
    if len(unknowns) > ctx.d_dual:
        raise ValueError(
            f"underdetermined: {len(unknowns)} unknowns but only {ctx.d_dual} "
            "independent equations"
        )
    counts = [known.get(l, 0) for l in range(ctx.n + 1)]
    rows = [[coeffs[l] for l in unknowns] for coeffs, _ in equations]
    rhs = [b - sum(coeffs[l] * v for l, v in known.items()) for coeffs, b in equations]
    for l, value in zip(unknowns, _solve_exact(rows, rhs)):
        if value.denominator != 1 or value < 0:
            raise ValueError(
                f"inconsistent inputs: A_{l} solves to {value}, which is not "
                "a nonnegative integer"
            )
        counts[l] = int(value)
    if ctx.d is not None and counts[ctx.d] == 0:
        raise ValueError(f"A_{ctx.d} = 0 contradicts minimum distance {ctx.d}")
    try:
        return WeightDistribution(
            n=ctx.n, counts=tuple(counts), p=ctx.p, s=ctx.s,
            card=ctx.card, rank=ctx.rank, free_rank=ctx.free_rank,
        )
    except ValueError as exc:
        raise ValueError(f"inconsistent inputs: {exc}") from exc


def solve_distribution(
    ctx: IdentityContext, known: Mapping[int, int]
) -> WeightDistribution:
    """Complete a distribution from the truncated Pascal system.

    One equation per nu in n - d_dual + 1..n, of coefficients C(n-l, nu-l):
    every maximal minor is nonzero.  A known distance auto-fills
    A_0..A_{d-1}; the remaining unknowns must not outnumber the d_dual
    equations.  Inputs that belong to no code raise ValueError.
    """
    return _complete(
        ctx, known, _subset_count_row, lambda: range(ctx.n - ctx.d_dual + 1, ctx.n + 1)
    )


def solve_distribution_pless(
    ctx: IdentityContext, known: Mapping[int, int]
) -> WeightDistribution:
    """Complete a distribution from the short power moments (nu < d_dual).

    Equivalent to the Pascal route whenever both are determined, which gives
    an independent consistency check on solved distributions.
    """
    return _complete(ctx, known, _moment_row, lambda: range(ctx.d_dual))


# -- closed form -------------------------------------------------------------------


def mds_distribution(n: int, rank: int, p: int, s: int) -> WeightDistribution:
    """Weight distribution of a free code meeting the Singleton bound.

    With q = p**s and d = n - rank + 1:
        A_w = C(n, w) * sum_{j=0}^{w-d} (-1)^j C(w, j) (q^(w-d+1-j) - 1).
    """
    _check_ring_and_ranks(n, p, s, rank, rank)
    if not rank:
        raise ValueError("rank 0 is the zero code, which has no minimum distance")
    q = p**s
    d = n - rank + 1
    counts = [0] * (n + 1)
    counts[0] = 1
    for w in range(d, n + 1):
        acc = 0
        for j in range(w - d + 1):
            t = binomial(w, j) * (q ** (w - d + 1 - j) - 1)
            acc += -t if j & 1 else t
        counts[w] = binomial(n, w) * acc
    return WeightDistribution(
        n=n, counts=tuple(counts), p=p, s=s, card=q**rank, rank=rank, free_rank=rank
    )
