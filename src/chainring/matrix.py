"""Matrices over a chain ring.

Provides reduction to block standard form via valuation-aware Gaussian
elimination, row-type profiles with the size of a module of each type, and
the one scan over column subsets that tallies submatrix types.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .errors import CapExceededError, InvariantError
from .ring import ChainRing, ElementLike

__all__ = [
    "DEFAULT_SUBSET_CAP",
    "RingMatrix",
    "StandardForm",
    "TypeProfile",
    "count_submatrix_types",
    "standard_form",
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


def _dot(ring: ChainRing, xs: Iterable[int], ys: Iterable[int]) -> int:
    """Dot product of two element-code vectors; zero operands are skipped."""
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = ring.add(acc, ring.mul(x, y))
    return acc


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


def _eliminate(ring: ChainRing, work: list[list[int]], ncols: int) -> tuple[list[int], list[int]]:
    """Reduce the rows of ``work`` to block standard form in place.

    Returns the column permutation and the type counts; the first
    sum(counts) rows of ``work`` are then the reduced rows, the rest zero.
    See ``standard_form`` for the pivot rule.
    """
    add, mul, neg, valuation, unit_part, inverse = ring.ops
    nrows = len(work)
    perm = list(range(ncols))
    counts = [0] * ring.s
    piv = 0

    for level in range(ring.s):
        while True:
            hit = None
            for r in range(piv, nrows):
                row = work[r]
                for c in range(piv, ncols):
                    if row[c] and valuation(row[c]) == level:
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
            scale = inverse(unit_part(pivot_row[piv]))
            if scale != 1:
                work[piv] = pivot_row = [mul(scale, x) if x else 0 for x in pivot_row]
            support = [(c, y) for c, y in enumerate(pivot_row) if y]
            for r2 in range(nrows):
                if r2 == piv:
                    continue
                row2 = work[r2]
                entry = row2[piv]
                if entry == 0:
                    continue
                # entry == low + gamma**level * f; subtracting f times the
                # pivot row leaves low, which is zero for rows at or below the
                # current level and the canonical residue for earlier blocks.
                _, f = ring.split(entry, level)
                if f == 0:
                    continue
                f = neg(f)
                for c2, y in support:
                    row2[c2] = add(row2[c2], mul(f, y))
            counts[level] += 1
            piv += 1

    for r in range(piv, nrows):
        if any(work[r]):
            raise InvariantError("nonzero row survived all elimination levels")
    return perm, counts


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
    work = [list(row) for row in matrix.rows]
    perm, counts = _eliminate(matrix.ring, work, matrix.ncols)
    rank = sum(counts)
    reduced = RingMatrix(matrix.ring, tuple(tuple(row) for row in work[:rank]), matrix.ncols)
    return StandardForm(reduced, tuple(perm), TypeProfile(tuple(counts)))


# A reduced column module: rows (j, e, gamma**e, support) in insertion order.
# Each row is gamma**e at position j (kept implicit), zero at the pivots of
# the rows before it, and of valuation >= e everywhere; support lists its
# other nonzero entries as (position, code).  Up to unit scaling the rows
# are a triangular, hence unimodular, basis, so the module's type is the
# multiset of the levels e.  A column is added in two parts: the common
# step ``_reduce`` clears it at each pivot, which changes no row's level,
# and ``_insert`` takes over at the first pivot where the column would lower
# the row's level.  A swap (``_swap``) replaces a row in place by one at a
# lower level on the same pivot, which keeps this shape; a reshape
# (``_reshape``) rebuilds the rows from that one on.
_Module = tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]


def _reduce(add, mul, neg, module: _Module, v: list[int], t: int) -> int:
    """Reduce the column v in place against the module's rows from row t on.

    This is the common step of adding a column: each row clears v at its
    pivot, which leaves the row's level alone.  It stops at the first row
    where v's entry has a valuation below the row's level, which takes
    ``_insert``'s general path, and returns that row's index, or
    len(module) once v is zero at every pivot.  add, mul and neg are the
    ring's kit (``ChainRing.ops``), bound once by the caller.
    """
    for j, _, ge, support in module[t:]:
        x = v[j]
        if x:
            f, low = divmod(x, ge)  # ring.split(x, e): x == low + gamma**e * f
            if low:
                return t
            v[j] = 0
            f = neg(f)
            for i, y in support:
                v[i] = add(v[i], mul(f, y))
        t += 1
    return t


def _insert(
    ring: ChainRing, module: _Module, counts: tuple[int, ...], v: list[int], t: int, keep: bool
):
    """Go on adding the column v where ``_reduce`` stopped, at row t.

    v's entry at the row's pivot has a valuation e1 below the row's level,
    so v takes the row's place at level e1 and the old row, cleared at the
    pivot, goes on as the column (see ``_swap``), provided no entry of v
    lies below e1.  Otherwise, which needs s >= 3, the rows from that one on
    are rebuilt (see ``_reshape``).  Returns the module, its counts and the
    column left to place as a new row, reduced against every row; after a
    reshape that column is empty, since the rebuilt rows hold it.  With
    ``keep`` false the module is None, for leaves of the walk.
    """
    add, mul, neg, valuation, _, _ = ring.ops
    rows = list(module)
    moved = list(counts)
    while t < len(rows):
        row = rows[t]
        j, e = row[0], row[1]
        e1 = valuation(v[j])
        if e1 and any(y and valuation(y) < e1 for y in v):
            module, counts = _reshape(ring, tuple(rows), tuple(moved), t, v, keep)
            return module, counts, ()
        # Without keep the new row stays None: a later _reshape reads only
        # the rows from its own t on.
        rows[t], v = _swap(ring, row, v, e1, keep)
        moved[e] -= 1
        moved[e1] += 1
        t = _reduce(add, mul, neg, rows, v, t + 1)
    return (tuple(rows) if keep else None), tuple(moved), v


def _swap(ring: ChainRing, row, v: list[int], e1: int, keep: bool):
    """Exchange a module row (pivot j, level e) for the column v.

    v is zero at the pivots before the row's, has valuation e1 < e at j and
    none below e1 anywhere.  u = v / unit_part(v[j]) is gamma**e1 at j, so it
    is a row of the module's shape at level e1 (returned only with ``keep``,
    else None), and w = row - gamma**(e-e1) * u is zero at j and of valuation
    >= e: the column left to reduce against the rows after this one.  u and
    w span what the row and v span.
    """
    add, mul, neg, _, unit_part, inverse = ring.ops
    powers = ring.gamma_powers
    j, e, ge, support = row
    scale = inverse(unit_part(v[j]))
    g = mul(neg(powers[e - e1]), scale)  # w = row + g * v
    w = [mul(g, x) if x else 0 for x in v]
    w[j] = 0  # gamma**e + g * v[j] == gamma**e - gamma**e
    for i, y in support:
        w[i] = add(w[i], y)
    if not keep:
        return None, w
    u = tuple((i, mul(scale, x)) for i, x in enumerate(v) if x and i != j)
    return (j, e1, powers[e1], u), w


def _reshape(ring: ChainRing, module: _Module, counts: tuple[int, ...], t: int, v, keep: bool):
    """Add v, whose entry at the pivot of row t lies below that row's level.

    The module changes shape.  Rows t onward and v are all zero at the pivots
    of the rows before t, so those rows stay, and the rest is rebuilt by one
    elimination: its block standard form rows, mapped back through the column
    permutation, have the module's row shape and stay zero at those pivots.
    """
    powers = ring.gamma_powers
    width = len(v)
    rows = []
    counts = list(counts)
    for j, e, ge, support in module[t:]:
        row = [0] * width
        row[j] = ge
        for i, y in support:
            row[i] = y
        rows.append(row)
        counts[e] -= 1
    rows.append(v)
    perm, tail = _eliminate(ring, rows, width)
    counts = tuple(a + b for a, b in zip(counts, tail))
    if not keep:
        return None, counts
    rebuilt = []
    for i, e in enumerate(e for e, k in enumerate(tail) for _ in range(k)):
        support = tuple((perm[c], x) for c, x in enumerate(rows[i]) if x and c != i)
        rebuilt.append((perm[i], e, powers[e], support))
    return module[:t] + tuple(rebuilt), counts


def _check_subset_cap(ncols: int, nu: int, cap: int) -> None:
    """Refuse a scan of more than ``cap`` nu-column subsets, before any matrix work."""
    total = comb(ncols, nu)
    if total > cap:
        raise CapExceededError(f"{total} column subsets exceed the cap of {cap}")


def _subset_profiles(matrix: RingMatrix, nu: int, cap: int) -> dict[TypeProfile, int]:
    """Tally of the canonical type of every nu-column submatrix.

    H_I has the type of the module its columns span in R^r (r = nrows).  The
    subsets are walked depth first in lexicographic order, each node holding
    the reduced column module of its prefix, so subsets with a common prefix
    share its reduction.  One loop body adds each child's column to the
    node's module: the common step ``_reduce``, with the ring's kit bound
    once here, then ``_insert`` only from the first row whose level the
    column would lower; the column left over becomes a new row at its least
    valuation, which the loop reads.  Only what follows differs: a node one
    column short counts its children, which are leaves, in place without
    building their rows, and any other node pushes them.  A node with no
    column left to pick, or whose prefix spans all of R^r (t_0 = r), counts
    its comb(ncols - start, left) subsets at once: every extension has the
    prefix's type, and nu = 0 counts the single empty subset.  Raises
    CapExceededError, before any column is reduced, if comb(ncols, nu)
    exceeds the cap.
    """
    ncols = matrix.ncols
    _check_subset_cap(ncols, nu, cap)
    ring = matrix.ring
    s = ring.s
    add, mul, neg, valuation, unit_part, inverse = ring.ops
    powers = ring.gamma_powers
    columns = [tuple(row[c] for row in matrix.rows) for c in range(ncols)]
    full = (matrix.nrows,) + (0,) * (s - 1)
    tally: dict[tuple[int, ...], int] = {}
    # Nodes: (first column left to pick, columns left to pick, module, counts).
    stack = [(0, nu, (), (0,) * s)]
    while stack:
        start, left, module, counts = stack.pop()
        if not left or counts == full:
            tally[counts] = tally.get(counts, 0) + comb(ncols - start, left)
            continue
        keep = left > 1  # else the children are leaves, counted here
        size = len(module)
        # Last first, so pushed children are visited in lexicographic order;
        # leaves only add to counts, in any order.
        for c in range(ncols - left, start - 1, -1):
            v = list(columns[c])
            child, child_counts = module, counts
            t = _reduce(add, mul, neg, module, v, 0)
            if t < size:
                child, child_counts, v = _insert(ring, module, counts, v, t, keep)
            # The new pivot: the first entry of least valuation, which v.index finds.
            e = s
            for x in v:
                if x:
                    level = valuation(x)
                    if level < e:
                        e, pivot = level, x
                        if not e:
                            break
            if e < s:
                child_counts = child_counts[:e] + (child_counts[e] + 1,) + child_counts[e + 1 :]
            if not keep:
                tally[child_counts] = tally.get(child_counts, 0) + 1
                continue
            if e < s:
                j = v.index(pivot)
                scale = inverse(unit_part(pivot))
                # A list comprehension: quicker here than draining a generator.
                support = tuple([(i, mul(scale, x)) for i, x in enumerate(v) if x and i != j])
                child += ((j, e, powers[e], support),)
            stack.append((c + 1, left - 1, child, child_counts))
    return {TypeProfile(counts): k for counts, k in tally.items()}


def count_submatrix_types(
    matrix: RingMatrix, nu: int, cap: int = DEFAULT_SUBSET_CAP
) -> dict[TypeProfile, int]:
    """Tally the canonical type of every nu-column submatrix.

    Covers all column subsets of size nu, through the depth-first walk of
    ``_subset_profiles``: columns are reduced one at a time into the module
    of their prefix, and a subtree whose prefix already spans R^r is counted
    without visiting it.  The counts always total comb(ncols, nu).
    """
    if not 1 <= nu <= matrix.ncols:
        raise ValueError(f"nu must lie in 1..{matrix.ncols}, got {nu}")
    return _subset_profiles(matrix, nu, cap)

