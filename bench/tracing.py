"""Spans and counts around the program's layers, recorded from the benchmark.

``Tracer.installed()`` replaces each traced public function with a wrapper
under every name a ``chainring`` module looks it up by (``chainring.cli``
calls its own imported ``weight_distribution``, ``chainring.identities``
another), and the traced methods on their classes.  A wrapper records a span
(name, start, end, parent span, job id); scalar ring operations are only
counted, since a span per call would cost more than the call.  Spans stay in
memory and are written out once, after the run.  Leaving the context
restores every original, so an untraced run never sees a wrapper.

There are no threads or queues, so no layer waits on another: the breakdown
is self time and work counts only, with no wait times.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from math import comb
from pathlib import Path
from typing import Any, Callable, Iterator

import chainring.cli
import chainring.code
import chainring.codefile
import chainring.enumeration
import chainring.identities
import chainring.matrix
from chainring.ring import ChainRing

# (span name, owner, attribute, work done by one call: subsets scanned or words enumerated)
_SPANNED: list[tuple[str, Any, str, Callable[..., int] | None]] = [
    ("cli.main", chainring.cli, "main", None),
    ("codefile.parse_code_document", chainring.codefile, "parse_code_document", None),
    ("code.code_from_generators", chainring.code, "code_from_generators", None),
    ("code.parity_check", chainring.code.LinearCode, "parity_check", None),
    ("code.dual", chainring.code, "dual", None),
    ("code.kernel_code", chainring.code, "kernel_code", None),
    ("matrix.standard_form", chainring.matrix, "standard_form", None),
    (
        "matrix.count_submatrix_types",
        chainring.matrix,
        "count_submatrix_types",
        lambda matrix, nu, *a, **k: comb(matrix.ncols, nu),
    ),
    (
        "enumeration.weight_distribution",
        chainring.enumeration,
        "weight_distribution",
        lambda code, *a, **k: code.cardinality,
    ),
    (
        "identities.double_count_check",
        chainring.identities,
        "double_count_check",
        lambda code, nu, *a, **k: comb(code.n, nu),
    ),
    ("identities.macwilliams_transform", chainring.identities, "macwilliams_transform", None),
]

_COUNTED: list[tuple[str, Any, str]] = [
    ("ring.add", ChainRing, "add"),
    ("ring.mul", ChainRing, "mul"),
    ("ring.inverse", ChainRing, "inverse"),
    ("ring.valuation", ChainRing, "valuation"),
]


class Tracer:
    """Span and count recorder for one traced run."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent span index or -1, job id)
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.job = -1
        self._stack: list[int] = []

    def _spanned(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Install every wrapper; restore the originals on exit."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "chainring"]
        undo: list[tuple[Any, str, Any]] = []
        try:
            for name, owner, attr, work in _SPANNED:
                original = getattr(owner, attr)
                wrapped = self._spanned(name, original, work)
                for holder in [owner, *modules]:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, value))
                            setattr(holder, key, wrapped)
            for name, owner, attr in _COUNTED:
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, self._counted(name, original))
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines: name, start_ns, end_ns, parent, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_metrics(self, min_cards: int) -> dict[str, float]:
        """Per-layer metrics from the spans and counts.

        ``min_cards`` is the sum over traced jobs of min(|C|, |C⊥|), the
        least enumeration any job needs.
        """
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        child: Counter[int] = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter[str] = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[index]

        def seconds(ns: int) -> float:
            return ns / 1e9

        def per_second(name: str) -> float:
            return self.work[name] / seconds(total[name]) if total[name] else 0.0

        words = self.work["enumeration.weight_distribution"]
        scanned = (
            self.work["matrix.count_submatrix_types"] + self.work["identities.double_count_check"]
        )
        metrics: dict[str, float] = {
            "cli.main.total_s": seconds(total["cli.main"]),
            "cli.main.self_s": seconds(self_ns["cli.main"]),
            "codefile.parse_code_document.self_s": seconds(
                self_ns["codefile.parse_code_document"]
            ),
            "code.code_from_generators.calls": calls["code.code_from_generators"],
            "code.code_from_generators.self_s": seconds(self_ns["code.code_from_generators"]),
            "code.parity_check.calls": calls["code.parity_check"],
            "code.parity_check.self_s": seconds(self_ns["code.parity_check"]),
            "code.dual.self_s": seconds(self_ns["code.dual"]),
            "code.kernel_code.calls": calls["code.kernel_code"],
            "matrix.standard_form.calls": calls["matrix.standard_form"],
            "matrix.standard_form.self_s": seconds(self_ns["matrix.standard_form"]),
            "matrix.count_submatrix_types.self_s": seconds(
                self_ns["matrix.count_submatrix_types"]
            ),
            "matrix.count_submatrix_types.subsets_per_s": per_second(
                "matrix.count_submatrix_types"
            ),
            "matrix.reductions_per_subset": (
                calls["matrix.standard_form"] / scanned if scanned else 0.0
            ),
            "enumeration.weight_distribution.calls": calls["enumeration.weight_distribution"],
            "enumeration.weight_distribution.self_s": seconds(
                self_ns["enumeration.weight_distribution"]
            ),
            "enumeration.words": words,
            "enumeration.ns_per_word": (
                total["enumeration.weight_distribution"] / words if words else 0.0
            ),
            "enumeration.excess_ratio": words / min_cards,
            "identities.double_count_check.self_s": seconds(
                self_ns["identities.double_count_check"]
            ),
            "identities.double_count_check.subsets_per_s": per_second(
                "identities.double_count_check"
            ),
            "identities.macwilliams_transform.self_s": seconds(
                self_ns["identities.macwilliams_transform"]
            ),
        }
        for name, *_ in _COUNTED:
            metrics[f"{name}.calls"] = self.counts[name]
        return metrics
