"""Deterministic seeded code corpus shared by the identity and acceptance tests.

Codes are drawn with the same pinned generator as the CLI ``random``
subcommand.  Zero codes and full ambient spaces are skipped (they have no
minimum distance, or no dual distance); attempts continue until each family
reaches its quota, so the corpus is reproducible and always the same size.
"""

from __future__ import annotations

from dataclasses import dataclass

from chainring import (
    ChainRing,
    LinearCode,
    WeightDistribution,
    code_from_generators,
    dual,
    weight_distribution,
)
from chainring.cli import random_generator_rows

# (p, s, backend, quota, (n, rows) shapes cycled per attempt)
PRIMARY_FAMILIES = [
    (2, 2, "int", 40, [(3, 2), (4, 2), (5, 2), (6, 3), (7, 3), (8, 3), (4, 3), (5, 3), (8, 4), (6, 4)]),
    (2, 3, "int", 24, [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (3, 3), (6, 3), (5, 3)]),
    (3, 2, "int", 24, [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (3, 3), (6, 3), (5, 3)]),
    (5, 2, "int", 16, [(2, 1), (3, 2), (4, 2), (3, 1), (4, 1), (2, 2)]),
]

EXTENDED_FAMILIES = [
    (5, 3, "int", 4, [(3, 1), (3, 2), (2, 1), (2, 2)]),
    (2, 2, "poly", 6, [(4, 2), (5, 2), (6, 3), (3, 2)]),
    (2, 3, "poly", 5, [(3, 2), (4, 2), (5, 2), (4, 3)]),
    (3, 2, "poly", 5, [(3, 2), (4, 2), (5, 2), (3, 3)]),
]


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    code: LinearCode
    dist: WeightDistribution
    dual_code: LinearCode
    dual_dist: WeightDistribution

    @property
    def d(self) -> int:
        return self.dist.distance

    @property
    def d_dual(self) -> int:
        return self.dual_dist.distance

    @property
    def defect(self) -> int:
        return self.code.n + 1 - self.code.rank - self.d

    @property
    def dual_defect(self) -> int:
        return self.code.free_rank + 1 - self.d_dual

    @property
    def sigma(self) -> int:
        return self.defect + self.dual_defect

    @property
    def extra_known_count(self) -> int:
        """sigma + K - k0 - 1: knowns beyond d that pin down the distribution."""
        return self.sigma + self.code.rank - self.code.free_rank - 1

    def minimal_knowns(self) -> dict[int, int]:
        """The lexicographically first extra knowns among {A_d, ..., A_n}."""
        extra = max(self.extra_known_count, 0)
        return {i: self.dist.counts[i] for i in range(self.d, self.d + extra)}

    def context(self):
        from chainring import IdentityContext

        return IdentityContext.from_code(self.code, d=self.d, d_dual=self.d_dual)


def build_corpus(families=PRIMARY_FAMILIES) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for p, s, backend, quota, shapes in families:
        ring = ChainRing(p, s, backend)
        ambient = ring.size
        attempt = 0
        collected = 0
        while collected < quota:
            n, nrows = shapes[attempt % len(shapes)]
            seed = attempt
            attempt += 1
            rows = random_generator_rows(ring, n, nrows, seed)
            code = code_from_generators(ring, n, rows)
            # need both a minimum distance and a dual minimum distance
            if code.cardinality == 1 or code.cardinality == ambient**n:
                continue
            dual_code = dual(code)
            entries.append(
                CorpusEntry(
                    label=f"{ring}/n{n}r{nrows}s{seed}",
                    code=code,
                    dist=weight_distribution(code),
                    dual_code=dual_code,
                    dual_dist=weight_distribution(dual_code),
                )
            )
            collected += 1
    return entries


def build_extended_corpus() -> list[CorpusEntry]:
    return build_corpus(PRIMARY_FAMILIES + EXTENDED_FAMILIES)
