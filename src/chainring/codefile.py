"""JSON interchange for rings, codes, matrices and distributions.

A code document is ``{"ring": {"p", "s", "backend"}, "n": int, "generators":
[[elem, ...], ...]}`` with an optional ``"name"``.  Integer-backend elements
serialize as plain ints, polynomial-backend elements as arrays of s
coefficients (lowest degree first).  Big counts travel as decimal strings;
permutations as one-line arrays of 1-based indices.  Parsing a serialized
document reproduces it bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

from .code import LinearCode
from .enumeration import WeightDistribution
from .matrix import RingMatrix, standard_form
from .ring import BACKENDS, ChainRing

__all__ = [
    "CodeDocument",
    "CodeFileError",
    "count_from_obj",
    "distribution_to_obj",
    "element_from_obj",
    "element_to_obj",
    "matrix_to_obj",
    "parse_code_document",
    "permutation_to_obj",
    "ring_from_obj",
    "ring_to_obj",
]


class CodeFileError(ValueError):
    """Malformed code file or distribution input."""


def _is_int(value: Any) -> bool:
    # JSON true/false decode to bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def count_from_obj(obj: Any) -> int:
    """A count given as a JSON int (not a boolean) or a string of ASCII digits."""
    if _is_int(obj):
        return obj
    # str.isdigit alone also accepts digits of other scripts; int() would
    # accept signs, spaces and underscores.
    if isinstance(obj, str) and obj.isascii() and obj.isdigit():
        return int(obj)
    raise CodeFileError(f"counts must be integers or decimal strings, got {obj!r}")


def ring_to_obj(ring: ChainRing) -> dict[str, Any]:
    return {"p": ring.p, "s": ring.s, "backend": ring.backend}


def ring_from_obj(obj: Any) -> ChainRing:
    if not isinstance(obj, dict):
        raise CodeFileError(f"ring descriptor must be an object, got {type(obj).__name__}")
    backend = obj.get("backend", "int")
    if backend not in BACKENDS:
        raise CodeFileError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    for key in ("p", "s"):
        if not _is_int(obj.get(key)):
            raise CodeFileError(f"ring descriptor needs an integer {key!r}")
    try:
        return ChainRing(obj["p"], obj["s"], backend)
    except ValueError as exc:
        raise CodeFileError(str(exc)) from exc


def element_to_obj(ring: ChainRing, code: int):
    value = ring.decode(code)
    return value if ring.backend == "int" else list(value)


def element_from_obj(ring: ChainRing, obj: Any) -> int:
    if ring.backend == "int":
        if not _is_int(obj):
            raise CodeFileError(f"integer-backend element must be an int, got {obj!r}")
        return ring.encode(obj)
    if not isinstance(obj, list) or not all(_is_int(c) for c in obj):
        raise CodeFileError(f"polynomial-backend element must be a coefficient array, got {obj!r}")
    if len(obj) > ring.s:
        raise CodeFileError(f"element {obj!r} has more than {ring.s} coefficients")
    return ring.encode(obj)


def matrix_to_obj(matrix: RingMatrix) -> list[list]:
    return [[element_to_obj(matrix.ring, code) for code in row] for row in matrix.rows]


def permutation_to_obj(perm: Sequence[int]) -> list[int]:
    return [p + 1 for p in perm]


def distribution_to_obj(dist: WeightDistribution) -> list[str]:
    return [str(c) for c in dist.counts]


@dataclass(frozen=True)
class CodeDocument:
    """Parsed code file: the ring, the length, and the generator rows as
    element codes."""

    ring: ChainRing
    n: int
    generators: tuple[tuple[int, ...], ...]
    name: str | None = None

    def to_code(self) -> LinearCode:
        # The rows hold element codes already: checked here, not encoded again.
        matrix = RingMatrix(self.ring, self.generators, self.n)
        return LinearCode(self.ring, self.n, standard_form(matrix))

    def to_obj(self) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "ring": ring_to_obj(self.ring),
            "n": self.n,
            "generators": [
                [element_to_obj(self.ring, code) for code in row] for row in self.generators
            ],
        }
        if self.name is not None:
            obj["name"] = self.name
        code = self.to_code()
        obj["profile"] = list(code.profile.counts)
        obj["rank"] = code.rank
        obj["free_rank"] = code.free_rank
        obj["cardinality"] = str(code.cardinality)
        return obj


def parse_code_document(text: str) -> CodeDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodeFileError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise CodeFileError("malformed JSON: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise CodeFileError("code file must contain a JSON object")
    if "ring" not in obj:
        raise CodeFileError("code file is missing the 'ring' descriptor")
    ring = ring_from_obj(obj["ring"])
    n = obj.get("n")
    if not _is_int(n) or n < 0:
        raise CodeFileError(f"'n' must be a nonnegative integer, got {n!r}")
    raw = obj.get("generators")
    if not isinstance(raw, list):
        raise CodeFileError("'generators' must be an array of rows")
    rows = []
    for row in raw:
        if not isinstance(row, list) or len(row) != n:
            raise CodeFileError(f"generator row {row!r} does not have length {n}")
        rows.append(tuple(element_from_obj(ring, v) for v in row))
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise CodeFileError("'name' must be a string when present")
    return CodeDocument(ring=ring, n=n, generators=tuple(rows), name=name)
