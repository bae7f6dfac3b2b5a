"""Linear codes over finite chain rings.

A code is stored through the standard form of a generator matrix together
with the column permutation that produced it; user-facing vectors are always
reported in the original coordinates.  The parity-check matrix is built
block-wise in systematic form and verified against the generators before it
is cached.
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
    "cardinality",
    "classify",
    "code_from_generators",
    "dual",
    "kernel_code",
    "parity_check",
]


class LinearCode:
    """A submodule of R^n, reduced to standard form at construction."""

    def __init__(self, ring: ChainRing, n: int, std: StandardForm):
        self.ring = ring
        self.n = n
        self.std = std
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
        """Reduced generator matrix with columns restored to original order."""
        perm = self.std.column_permutation
        rows = tuple(
            tuple(row[j] for j in _inverse_positions(perm)) for row in self.std.reduced.rows
        )
        return RingMatrix(self.ring, rows, self.n)

    def parity_check(self) -> RingMatrix:
        """(n - k0) x n matrix whose kernel is exactly this code.

        Cached with an idempotent single-assignment fill: racing computations
        produce the same immutable matrix, so concurrent readers are safe.
        """
        if self._parity is None:
            systematic = _systematic_parity_rows(self)
            _verify_orthogonal(self.std.reduced, systematic, self.ring)
            perm = self.std.column_permutation
            rows = []
            for hrow in systematic:
                out = [0] * self.n
                for j, src in enumerate(perm):
                    out[src] = hrow[j]
                rows.append(tuple(out))
            self._parity = RingMatrix(self.ring, tuple(rows), self.n)
        return self._parity

    def contains(self, vector: Sequence[ElementLike]) -> bool:
        """Membership test via the parity check."""
        if len(vector) != self.n:
            raise ValueError(f"vector of length {len(vector)} in a code of length {self.n}")
        ring = self.ring
        codes = [ring.encode(v) for v in vector]
        return not any(_dot(ring, hrow, codes) for hrow in self.parity_check().rows)

    def same_codewords(self, other: LinearCode) -> bool:
        """Exact codeword-set equality (no enumeration needed)."""
        if self.ring != other.ring or self.n != other.n:
            return False
        if self.cardinality != other.cardinality:
            return False
        return all(other.contains(row) for row in self.generator_matrix().rows)

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
    rows = list(rows)
    if rows:
        matrix = RingMatrix.build(ring, rows, ncols=n)
        if matrix.ncols != n:
            raise ValueError(f"generator rows of width {matrix.ncols}, expected {n}")
    else:
        matrix = RingMatrix(ring, (), n)
    return LinearCode(ring, n, standard_form(matrix))


# -- systematic parity check -------------------------------------------------
#
# With generator blocks A[a][b] (a < b <= s, where column block s collects the
# n-K non-pivot columns and A[a][a] is an identity), the parity check in the
# same permuted coordinates is assembled from blocks B[i][j] satisfying
#
#   B[i][j] = -sum_{k=i+1}^{j-1} B[i][k] * A[s-j][s-k]^T  -  A[s-j][s-i]^T,
#
# computed in order of increasing j - i (the sum is empty for j == i+1).
# Block row i carries a factor gamma**i, an identity of size k_{s-i} on the
# diagonal and zeros to its right.


def _grid_transpose(grid: list[list[int]], ncols: int) -> list[list[int]]:
    return [[row[c] for row in grid] for c in range(ncols)]


def _systematic_parity_rows(code: LinearCode) -> list[list[int]]:
    ring = code.ring
    s = ring.s
    n = code.n
    counts = list(code.profile.counts)
    rank = sum(counts)
    width = counts + [n - rank]  # column-block widths, block index 0..s
    offsets = [0]
    for w in width:
        offsets.append(offsets[-1] + w)

    reduced = code.std.reduced.rows
    row_offsets = [0]
    for k in counts:
        row_offsets.append(row_offsets[-1] + k)

    def gen_block(a: int, b: int) -> list[list[int]]:
        # Unscaled generator block: entries of block-row a divided by gamma**a.
        if a == b:
            return [[1 if i == j else 0 for j in range(width[a])] for i in range(width[a])]
        rows = []
        for r in range(row_offsets[a], row_offsets[a] + counts[a]):
            src = reduced[r]
            rows.append(
                [ring.split(src[c], a)[1] for c in range(offsets[b], offsets[b] + width[b])]
            )
        return rows

    blocks: dict[tuple[int, int], list[list[int]]] = {}
    for diff in range(1, s + 1):
        for i in range(0, s + 1 - diff):
            j = i + diff
            acc = [
                [ring.neg(x) for x in row]
                for row in _grid_transpose(gen_block(s - j, s - i), width[s - i])
            ]
            for k in range(i + 1, j):
                # B[i][k] * A[s-j][s-k]^T: row r of B against row c of A
                gen = gen_block(s - j, s - k)
                term = [[_dot(ring, brow, grow) for grow in gen] for brow in blocks[(i, k)]]
                for r in range(width[s - i]):
                    row = acc[r]
                    trow = term[r]
                    for c in range(width[s - j]):
                        row[c] = ring.sub(row[c], trow[c])
            blocks[(i, j)] = acc

    rows: list[list[int]] = []
    for i in range(s):
        block_rows = width[s - i]
        if block_rows == 0:
            continue
        g = ring.gamma_pow(i)
        out = [[0] * n for _ in range(block_rows)]
        for m in range(s + 1):
            j = s - m
            if j < i or width[m] == 0:
                continue
            sub = blocks[(i, j)] if j > i else None
            for r in range(block_rows):
                orow = out[r]
                for c in range(width[m]):
                    if sub is None:
                        entry = 1 if r == c else 0
                    else:
                        entry = sub[r][c]
                    if entry:
                        orow[offsets[m] + c] = ring.mul(g, entry)
        rows.extend(out)
    return rows


def _verify_orthogonal(
    generators: RingMatrix, parity_rows: list[list[int]], ring: ChainRing
) -> None:
    if any(_dot(ring, grow, hrow) for grow in generators.rows for hrow in parity_rows):
        raise InvariantError("generator and parity-check rows are not orthogonal")


def parity_check(code: LinearCode) -> RingMatrix:
    """Parity-check matrix of the code, columns in original order."""
    return code.parity_check()


def dual(code: LinearCode) -> LinearCode:
    """The dual code, generated by the parity-check rows.

    Its type must equal (n-K, k_{s-1}, ..., k_1); anything else is a fatal
    internal inconsistency.
    """
    result = code_from_generators(code.ring, code.n, code.parity_check().rows)
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


def cardinality(code: LinearCode) -> int:
    return code.cardinality


@dataclass(frozen=True)
class CodeProfile:
    """Singleton-defect data and the resulting classification label."""

    d: int
    defect: int
    d_dual: int | None = None
    dual_defect: int | None = None
    sigma: int | None = None
    label: str = "other"


def classify(code: LinearCode, d: int, d_dual: int | None = None) -> CodeProfile:
    """Classify by Singleton defects, given true minimum distances.

    The defect is n + 1 - K - d; dual data is optional (the dual of the full
    space has no minimum distance).  Labels, most specific first: MDS (defect
    0, free), MDR (defect 0), NearMDS / NearMDR (code and dual both defect 1,
    free or not), AMDR (defect 1, dual unknown or deeper), otherwise "other".
    """
    defect = code.n + 1 - code.rank - d
    if defect < 0:
        raise ValueError(f"distance {d} violates the Singleton bound for rank {code.rank}")
    dual_defect = None
    sigma = None
    if d_dual is not None:
        dual_defect = code.free_rank + 1 - d_dual
        if dual_defect < 0:
            raise ValueError(
                f"dual distance {d_dual} violates the Singleton bound for the dual"
            )
        sigma = defect + dual_defect
    if defect == 0:
        label = "MDS" if code.is_free else "MDR"
    elif defect == 1:
        if dual_defect == 1:
            label = "NearMDS" if code.is_free else "NearMDR"
        else:
            label = "AMDR"
    else:
        label = "other"
    return CodeProfile(
        d=d, defect=defect, d_dual=d_dual, dual_defect=dual_defect, sigma=sigma, label=label
    )
