"""Seeded input documents for the benchmark workloads.

Inputs belong to the benchmark, not to the program: entries are drawn with
the benchmark's own ``random.Random(seed)``, never with ``chainring random``,
so a change to the program cannot change what it is fed.  Every drawn code is
free of the requested rank k (its generator matrix has rank k modulo gamma,
checked here over F_p), so |C| = q**k and |C⊥| = q**(n-k) are known without
asking the program.

A workload is a fixed cycle of job kinds repeated for as long as the run
lasts; a fixed cycle keeps the share of each kind, and so the position of
p50 and p90 among the kinds' clusters of job times, the same in every run.
A "twin" kind reuses the digits drawn for an earlier slot of the same cycle
over the polynomial ring with the same p and s, so the two backends are
compared on the same digits.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Iterator


@dataclass(frozen=True)
class Kind:
    """One kind of job: a CLI subcommand on codes of one shape over one ring."""

    name: str
    argv: tuple[str, ...]
    p: int
    s: int
    backend: str
    n: int
    k: int
    twin_of: int | None = None  # cycle slot whose digits this kind reuses

    @property
    def q(self) -> int:
        return self.p**self.s

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[Kind, ...]
    trace_cycles: int  # cycles in the traced run's fixed job set


@dataclass(frozen=True)
class Job:
    index: int
    kind: Kind
    rows: tuple[tuple[int, ...], ...]  # element codes, base-p packed for poly
    text: str  # the JSON code document fed on stdin

    @property
    def argv(self) -> list[str]:
        return list(self.kind.argv)

    @property
    def card(self) -> int:
        return self.kind.q**self.kind.k

    @property
    def dual_card(self) -> int:
        return self.kind.q ** (self.kind.n - self.kind.k)


_WDIST = ("wdist", "-")
_CLASSIFY = ("classify", "-")
_DOUBLECOUNT = ("check", "-", "--identity", "doublecount", "--all-nu")
_SUBTYPES = ("check", "-", "--identity", "subtypes", "--all-nu")

_Z4_WDIST = Kind("z4-wdist", _WDIST, 2, 2, "int", 14, 10)

_Z81_CLASSIFY = Kind("z81-classify", _CLASSIFY, 3, 4, "int", 5, 2)
_Z66049_WDIST = Kind("z66049-wdist", _WDIST, 257, 2, "int", 2, 1)

_Z4_DC = Kind("z4-doublecount", _DOUBLECOUNT, 2, 2, "int", 10, 5)
_Z4_ST = Kind("z4-subtypes", _SUBTYPES, 2, 2, "int", 10, 5)


def _twin(kind: Kind, slot: int, name: str) -> Kind:
    return replace(kind, name=name, backend="poly", twin_of=slot)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "enum-z4",
            (_Z4_WDIST,),
            trace_cycles=20,
        ),
        Workload(
            "wide-ring",
            (
                _Z81_CLASSIFY,
                _twin(_Z81_CLASSIFY, 0, "f3u4-classify"),
                _Z81_CLASSIFY,
                _twin(_Z81_CLASSIFY, 2, "f3u4-classify"),
                _Z66049_WDIST,
            ),
            trace_cycles=3,
        ),
        Workload(
            "subsets",
            (
                _Z4_DC,
                _Z4_DC,
                _Z4_ST,
                _Z4_DC,
                _Z4_DC,
                _Z4_ST,
                _twin(_Z4_DC, 0, "f2u2-doublecount"),
                _twin(_Z4_DC, 1, "f2u2-doublecount"),
                _twin(_Z4_ST, 2, "f2u2-subtypes"),
            ),
            trace_cycles=2,
        ),
    )
}


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of the matrix reduced modulo p (modulo gamma in both backends)."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        prow = [x * inv % p for x in work[rank]]
        work[rank] = prow
        for r in range(len(work)):
            if r != rank and work[r][c]:
                f = work[r][c]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], prow)]
        rank += 1
    return rank


def _draw_free_rows(rng: random.Random, kind: Kind) -> tuple[tuple[int, ...], ...]:
    # Rejection sampling: redraw until the rows span a free module of rank k.
    while True:
        rows = [[rng.randrange(kind.q) for _ in range(kind.n)] for _ in range(kind.k)]
        if rank_mod_p(rows, kind.p) == kind.k:
            return tuple(tuple(row) for row in rows)


def _element(kind: Kind, code: int):
    if kind.backend == "int":
        return code
    return [(code // kind.p**i) % kind.p for i in range(kind.s)]


def document(kind: Kind, rows: tuple[tuple[int, ...], ...]) -> str:
    """The JSON code document; poly elements are base-p coefficient arrays."""
    obj = {
        "ring": {"p": kind.p, "s": kind.s, "backend": kind.backend},
        "n": kind.n,
        "generators": [[_element(kind, x) for x in row] for row in rows],
    }
    return json.dumps(obj, separators=(",", ":"))


def jobs(workload: Workload, seed: int | str) -> Iterator[Job]:
    """The endless job sequence of a workload; equal seeds give equal jobs."""
    rng = random.Random(seed)
    index = 0
    while True:
        drawn: dict[int, tuple[tuple[int, ...], ...]] = {}
        for slot, kind in enumerate(workload.cycle):
            if kind.twin_of is None:
                rows = _draw_free_rows(rng, kind)
            else:
                rows = drawn[kind.twin_of]
            drawn[slot] = rows
            yield Job(index, kind, rows, document(kind, rows))
            index += 1


def warmup_jobs(workload: Workload, seed: int) -> list[Job]:
    """One job of each kind, from a stream apart from the measured one."""
    seen: dict[str, Job] = {}
    stream = jobs(workload, f"warmup-{seed}")
    for _ in workload.cycle:
        job = next(stream)
        seen.setdefault(job.kind.name, job)
    return list(seen.values())
