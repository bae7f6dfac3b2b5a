"""Linear codes over finite chain rings.

A code is stored through the standard form of a generator matrix together
with the column permutation that produced it; user-facing vectors are always
reported in the original coordinates.  The parity-check matrix is built in
systematic form, one row per back-substitution on the standard-form generator
rows: start from a unit vector e_c and, walking the generator rows last first,
set the entry at each row's pivot so that the row (divided by its power of
gamma) is orthogonal to the vector.  It is verified against the generators
before it is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvariantError
from .matrix import RingMatrix, StandardForm, TypeProfile, _dot, standard_form
from .ring import ChainRing, ElementLike

__all__ = [
    "CodeProfile",
    "LinearCode",
    "classify",
    "code_from_generators",
    "dual",
    "kernel_code",
]


class LinearCode:
    """A submodule of R^n, reduced to standard form at construction."""

    def __init__(self, ring: ChainRing, n: int, std: StandardForm):
        self.ring = ring
        self.n = n
        self.std = std
        self._generators: RingMatrix | None = None
        self._parity: RingMatrix | None = None

    @property
    def profile(self) -> TypeProfile:
        return self.std.profile

    @property
    def rank(self) -> int:
        return self.std.profile.rank

    @property
    def free_rank(self) -> int:
        return self.std.profile.free_rank

    @property
    def cardinality(self) -> int:
        return self.profile.module_size(self.ring.p)

    @property
    def is_free(self) -> bool:
        return self.rank == self.free_rank

    def generator_matrix(self) -> RingMatrix:
        """Reduced generator matrix with columns restored to original order; cached."""
        if self._generators is None:
            inv = _inverse_positions(self.std.column_permutation)
            rows = tuple(tuple(row[j] for j in inv) for row in self.std.reduced.rows)
            self._generators = RingMatrix(self.ring, rows, self.n)
        return self._generators

    def parity_check(self) -> RingMatrix:
        """(n - k0) x n matrix whose kernel is exactly this code.

        Cached with an idempotent single-assignment fill: racing computations
        produce the same immutable matrix, so concurrent readers are safe.
        """
        if self._parity is None:
            rows = _systematic_parity_rows(self)
            _verify_orthogonal(self.generator_matrix(), rows, self.ring)
            self._parity = RingMatrix(self.ring, tuple(rows), self.n)
        return self._parity

    def __repr__(self) -> str:
        return (
            f"LinearCode(ring={self.ring}, n={self.n}, "
            f"type={self.profile.counts}, size={self.cardinality})"
        )


def _inverse_positions(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for pos, src in enumerate(perm):
        inv[src] = pos
    return inv


def code_from_generators(
    ring: ChainRing, n: int, rows: Iterable[Sequence[ElementLike]]
) -> LinearCode:
    """The code spanned by the given rows; an empty list yields the zero code."""
    return LinearCode(ring, n, standard_form(RingMatrix.build(ring, rows, ncols=n)))


# -- systematic parity check -------------------------------------------------
#
# Row block i of H (i = 0..s-1) has one row per column c of generator block
# s-i, where block s collects the n-K non-pivot columns.  The row is
# gamma**i * x, with x found by back-substitution: x starts as e_c, and for
# each generator row g of a block a < s-i, last row first, x at g's pivot
# becomes -(g / gamma**a) . x.  A generator row is zero at the pivots of the
# rows before it, so later steps keep the earlier ones orthogonal to x; rows
# of blocks a >= s-i are divisible by gamma**(s-i), which gamma**i kills.


def _systematic_parity_rows(code: LinearCode) -> list[tuple[int, ...]]:
    ring, s = code.ring, code.ring.s
    perm = code.std.column_permutation
    levels = [a for a, k in enumerate(code.profile.counts) for _ in range(k)]
    levels += [s] * (code.n - len(levels))  # block s: the non-pivot columns
    # (pivot column, level a, generator row / gamma**a) in original coordinates
    divided = [
        (pivot, a, [ring.split(x, a)[1] for x in row])
        for pivot, a, row in zip(perm, levels, code.generator_matrix().rows)
    ]
    rows = []
    for i in range(s):
        earlier = [(pivot, row) for pivot, a, row in reversed(divided) if a < s - i]
        g = ring.gamma_pow(i)
        for c, a in zip(perm, levels):
            if a != s - i:
                continue
            x = [0] * code.n
            x[c] = 1
            for pivot, row in earlier:
                x[pivot] = ring.neg(_dot(ring, row, x))
            rows.append(tuple(ring.mul(g, v) if v else 0 for v in x))
    return rows


def _verify_orthogonal(
    generators: RingMatrix, parity_rows: list[tuple[int, ...]], ring: ChainRing
) -> None:
    if any(_dot(ring, grow, hrow) for grow in generators.rows for hrow in parity_rows):
        raise InvariantError("generator and parity-check rows are not orthogonal")


def dual(code: LinearCode) -> LinearCode:
    """The dual code, generated by the parity-check rows.

    Its type must equal (n-K, k_{s-1}, ..., k_1); anything else is a fatal
    internal inconsistency.
    """
    result = LinearCode(code.ring, code.n, standard_form(code.parity_check()))
    expected = code.profile.dual(code.n).counts
    if result.profile.counts != expected:
        raise InvariantError(
            f"dual type {result.profile.counts} differs from expected {expected}"
        )
    return result


def kernel_code(matrix: RingMatrix) -> LinearCode:
    """The code {v : matrix . v^T == 0}.

    Equals the dual of the row space, so |kernel| * |row space| covers the
    whole ambient space p**(s*n).
    """
    return dual(code_from_generators(matrix.ring, matrix.ncols, matrix.rows))


def _check_distances(n: int, d: int | None, d_dual: int | None) -> None:
    """Refuse distances that no length-n code and its dual have.

    A nonzero code has 1 <= d <= n; the dual may be zero, of distance n + 1
    (``WeightDistribution.distance``).  The Singleton bound on both sides, with |C| |C_dual| =
    q**n, gives d + d_dual <= n + 2.
    """
    if d is not None and not 1 <= d <= n:
        raise ValueError(f"distance {d} out of range 1..{n}")
    if d_dual is not None and not 1 <= d_dual <= n + 1:
        raise ValueError(f"dual distance {d_dual} out of range 1..{n + 1}")
    if d is not None and d_dual is not None and d + d_dual > n + 2:
        raise ValueError(
            f"distances {d} and {d_dual} break the Singleton bound d + d_dual <= {n + 2}"
        )


@dataclass(frozen=True)
class CodeProfile:
    """Singleton-defect data and the resulting classification label."""

    d: int
    d_dual: int
    defect: int
    dual_defect: int
    sigma: int
    label: str


def classify(code: LinearCode, d: int, d_dual: int) -> CodeProfile:
    """Classify by Singleton defects, given true minimum distances.

    The defect is n + 1 - K - d and the dual defect k0 + 1 - d_dual; the zero
    dual of the full space has d_dual = n + 1, so its defect is 0.  Labels,
    most specific first: MDS (defect 0, free), MDR (defect 0), NearMDS /
    NearMDR (code and dual both defect 1, free or not), AMDR (defect 1, any
    other dual defect), otherwise "other".
    """
    _check_distances(code.n, d, d_dual)
    defect = code.n + 1 - code.rank - d
    if defect < 0:
        raise ValueError(f"distance {d} violates the Singleton bound for rank {code.rank}")
    dual_defect = code.free_rank + 1 - d_dual
    if dual_defect < 0:
        raise ValueError(f"dual distance {d_dual} violates the Singleton bound for the dual")
    if defect == 0:
        label = "MDS" if code.is_free else "MDR"
    elif defect == 1:
        if dual_defect == 1:
            label = "NearMDS" if code.is_free else "NearMDR"
        else:
            label = "AMDR"
    else:
        label = "other"
    sigma = defect + dual_defect
    return CodeProfile(
        d=d, d_dual=d_dual, defect=defect, dual_defect=dual_defect, sigma=sigma, label=label
    )
