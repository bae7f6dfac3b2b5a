"""Matrices over a chain ring.

Provides reduction to block standard form via valuation-aware Gaussian
elimination, row-type profiles, column submatrices, the one scan over column
subsets that tallies submatrix types, and the row-space cardinality formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, InvariantError
from .ring import ChainRing, ElementLike, RingElement

__all__ = [
    "DEFAULT_SUBSET_CAP",
    "RingMatrix",
    "StandardForm",
    "TypeProfile",
    "count_submatrix_types",
    "identity_matrix",
    "matmul",
    "matrix_type",
    "rowspace_size",
    "standard_form",
    "submatrix",
]

DEFAULT_SUBSET_CAP = 10**6


@dataclass(frozen=True)
class RingMatrix:
    """Immutable matrix over a chain ring, entries stored as element codes."""

    ring: ChainRing
    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self) -> None:
        size = self.ring.size
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError(f"row of width {len(row)} in a matrix with {self.ncols} columns")
            for code in row:
                if not 0 <= code < size:
                    raise ValueError(f"entry code {code} out of range for {self.ring}")

    @classmethod
    def build(
        cls,
        ring: ChainRing,
        rows: Iterable[Sequence[ElementLike]],
        ncols: int | None = None,
    ) -> RingMatrix:
        """Encode a grid of element values (see ChainRing.encode) as a matrix."""
        encoded = tuple(tuple(ring.encode(v) for v in row) for row in rows)
        if ncols is None:
            if not encoded:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(encoded[0])
        return cls(ring, encoded, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> RingElement:
        return RingElement(self.ring, self.rows[r][c])

    def to_values(self) -> list[list]:
        return [[self.ring.decode(code) for code in row] for row in self.rows]

    def transpose(self) -> RingMatrix:
        cols = tuple(tuple(row[c] for row in self.rows) for c in range(self.ncols))
        return RingMatrix(self.ring, cols, self.nrows)

    def is_zero(self) -> bool:
        return all(code == 0 for row in self.rows for code in row)


def identity_matrix(ring: ChainRing, n: int) -> RingMatrix:
    rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return RingMatrix(ring, rows, n)


def _dot(ring: ChainRing, xs: Iterable[int], ys: Iterable[int]) -> int:
    """Dot product of two element-code vectors; zero operands are skipped."""
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = ring.add(acc, ring.mul(x, y))
    return acc


def matmul(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    if a.ring != b.ring:
        raise ValueError("matrix product across different rings")
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    ring = a.ring
    bt = b.transpose().rows
    out = tuple(tuple(_dot(ring, arow, bcol) for bcol in bt) for arow in a.rows)
    return RingMatrix(ring, out, b.ncols)


@dataclass(frozen=True)
class TypeProfile:
    """Row counts (t_0, ..., t_{s-1}) by exact gamma-valuation.

    Zero rows are counted by no entry.  The rank is the total count and the
    free rank is t_0.
    """

    counts: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(self.counts)

    @property
    def free_rank(self) -> int:
        return self.counts[0] if self.counts else 0

    def __iter__(self):
        return iter(self.counts)

    def module_size(self, p: int) -> int:
        """Elements of a module of this type: p**sum((s-i) * t_i), s = len(counts)."""
        s = len(self.counts)
        return p ** sum((s - i) * k for i, k in enumerate(self.counts))

    def dual(self, n: int) -> TypeProfile:
        """Type of the dual of a length-n code of this type: (n-K, t_{s-1}, ..., t_1)."""
        return TypeProfile((n - self.rank,) + tuple(reversed(self.counts[1:])))


@dataclass(frozen=True)
class StandardForm:
    """Result of reducing a matrix to block standard form.

    ``reduced`` lives in permuted coordinates: its column j corresponds to
    column ``column_permutation[j]`` (0-based) of the source matrix.  Its row
    space equals the row space of the source matrix with that permutation
    applied.  Zero rows are dropped, so the profile totals the rank.
    """

    reduced: RingMatrix
    column_permutation: tuple[int, ...]
    profile: TypeProfile


def standard_form(matrix: RingMatrix) -> StandardForm:
    """Reduce to block standard form by valuation-aware Gaussian elimination.

    Levels are processed in increasing order of gamma-valuation.  At level i
    the first remaining entry (row-major scan) of valuation exactly i becomes
    a pivot: its column is swapped into the next pivot position, the row is
    scaled so the pivot equals gamma**i, and the pivot column is cleared in
    every other row to the extent possible (entries of earlier pivot rows are
    reduced modulo gamma**i, everything else to zero).  Elimination never
    lowers a remaining entry below the current level, so the produced blocks
    sit on the diagonal in valuation order with zeros below and to the left.
    """
    ring = matrix.ring
    s = ring.s
    work = [list(row) for row in matrix.rows]
    nrows = len(work)
    ncols = matrix.ncols
    perm = list(range(ncols))
    counts = [0] * s
    piv = 0

    for level in range(s):
        while True:
            hit = None
            for r in range(piv, nrows):
                row = work[r]
                for c in range(piv, ncols):
                    if row[c] and ring.valuation(row[c]) == level:
                        hit = (r, c)
                        break
                if hit:
                    break
            if hit is None:
                break
            r, c = hit
            if r != piv:
                work[piv], work[r] = work[r], work[piv]
            if c != piv:
                for row in work:
                    row[piv], row[c] = row[c], row[piv]
                perm[piv], perm[c] = perm[c], perm[piv]
            pivot_row = work[piv]
            scale = ring.inverse(ring.unit_part(pivot_row[piv]))
            if scale != 1:
                work[piv] = pivot_row = [ring.mul(scale, x) for x in pivot_row]
            for r2 in range(nrows):
                if r2 == piv:
                    continue
                entry = work[r2][piv]
                if entry == 0:
                    continue
                # entry == low + gamma**level * f; subtracting f times the
                # pivot row leaves low, which is zero for rows at or below the
                # current level and the canonical residue for earlier blocks.
                _, f = ring.split(entry, level)
                if f == 0:
                    continue
                row2 = work[r2]
                work[r2] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(row2, pivot_row)]
            counts[level] += 1
            piv += 1

    for r in range(piv, nrows):
        if any(work[r]):
            raise InvariantError("nonzero row survived all elimination levels")

    reduced = RingMatrix(ring, tuple(tuple(row) for row in work[:piv]), ncols)
    return StandardForm(reduced, tuple(perm), TypeProfile(tuple(counts)))


def matrix_type(matrix: RingMatrix) -> TypeProfile:
    """Raw row-valuation profile of the matrix as given (no reduction).

    The valuation of a row is the minimum valuation of its entries; zero rows
    are skipped.  For the canonical type of the row space, reduce first.
    """
    ring = matrix.ring
    counts = [0] * ring.s
    for row in matrix.rows:
        v = min((ring.valuation(code) for code in row), default=ring.s)
        if v < ring.s:
            counts[v] += 1
    return TypeProfile(tuple(counts))


def submatrix(matrix: RingMatrix, indices: Sequence[int]) -> RingMatrix:
    """Columns of the matrix restricted to a set of 1-based indices.

    Indices must be strictly increasing and within 1..ncols.
    """
    prev = 0
    for i in indices:
        if not 1 <= i <= matrix.ncols:
            raise ValueError(f"column index {i} out of range 1..{matrix.ncols}")
        if i <= prev:
            raise ValueError("column indices must be strictly increasing")
        prev = i
    picked = [i - 1 for i in indices]
    rows = tuple(tuple(row[c] for c in picked) for row in matrix.rows)
    return RingMatrix(matrix.ring, rows, len(picked))


def _subset_profiles(matrix: RingMatrix, nu: int, cap: int) -> Iterator[TypeProfile]:
    """Canonical type of each nu-column submatrix, one reduction per subset.

    Subsets come in lexicographic order; nu = 0 yields the single empty
    subset.  Raises CapExceededError when iteration starts, before any subset
    is reduced, if comb(ncols, nu) exceeds the cap.
    """
    total = comb(matrix.ncols, nu)
    if total > cap:
        raise CapExceededError(f"{total} column subsets exceed the cap of {cap}")
    ring = matrix.ring
    for cols in combinations(range(matrix.ncols), nu):
        rows = tuple(tuple(row[c] for c in cols) for row in matrix.rows)
        yield standard_form(RingMatrix(ring, rows, nu)).profile


def count_submatrix_types(
    matrix: RingMatrix, nu: int, cap: int = DEFAULT_SUBSET_CAP
) -> dict[TypeProfile, int]:
    """Tally the canonical type of every nu-column submatrix.

    Exhausts all column subsets of size nu; each submatrix is reduced and its
    profile counted.  The counts always total comb(ncols, nu).
    """
    if not 1 <= nu <= matrix.ncols:
        raise ValueError(f"nu must lie in 1..{matrix.ncols}, got {nu}")
    tally: dict[TypeProfile, int] = {}
    for profile in _subset_profiles(matrix, nu, cap):
        tally[profile] = tally.get(profile, 0) + 1
    return tally


def rowspace_size(matrix: RingMatrix) -> int:
    """Number of vectors in the row space: p**sum((s-i) * k_i)."""
    return standard_form(matrix).profile.module_size(matrix.ring.p)
