"""Command-line front end.

One JSON document per invocation on stdout.  Exit codes: 0 for success (and
for ``check`` runs whose required identities all hold), 1 when a required
identity is violated, 2 for usage or input errors and for output that cannot
be written (a closed stdout), 3 when an exhaustive enumeration (of codewords
or of column subsets) would exceed its cap, 4 when an internal invariant is
violated or any other internal error occurs (a bug in chainring, never a
verdict on the input).

The ``random`` subcommand is pinned for reproducibility: entries are drawn
row-major as ``random.Random(seed).randrange(p**s)``, each draw taken as the
canonical element code (the representative itself for the integer backend,
base-p packed coefficients for the polynomial backend).
"""

from __future__ import annotations

import argparse
import json
import os
import random as _random
import sys
from contextlib import suppress
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Any, NoReturn

from .code import LinearCode, classify, dual
from .codefile import (
    CodeDocument,
    CodeFileError,
    count_from_obj,
    distribution_to_obj,
    matrix_to_obj,
    parse_code_document,
    permutation_to_obj,
    ring_to_obj,
)
from .enumeration import (
    WeightDistribution,
    _check_card,
    _check_ring_and_ranks,
    render_enumerator,
    weight_distribution,
)
from .errors import CapExceededError, InvariantError
from .identities import (
    IdentityContext,
    _dual_distance,
    check_new_relation,
    double_count_check,
    macwilliams_transform,
    mds_distribution,
    power_moment,
    solve_distribution,
)
from .matrix import DEFAULT_SUBSET_CAP, count_submatrix_types
from .ring import ChainRing

__all__ = ["build_parser", "entry", "main"]


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CodeFileError(f"cannot read {path}: {exc}") from exc


def _load_document(path: str) -> CodeDocument:
    return parse_code_document(_read_input(path))


def _frac_str(value: Fraction | int) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _split_list(text: str) -> list[str]:
    """The entries of a comma list, stripped.  One trailing comma after an
    entry is dropped; any other empty entry is kept for the caller to refuse."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) > 1 and not parts[-1]:
        parts.pop()
    return parts


def _parse_known(text: str | None) -> dict[int, int]:
    known: dict[int, int] = {}
    if text is None:
        return known
    for part in _split_list(text):
        idx, eq, val = (x.strip() for x in part.partition("="))
        if not eq or not (idx.isascii() and idx.isdigit()):
            raise CodeFileError(f"known entry {part!r} is not of the form index=count")
        index = int(idx)
        if index in known:
            raise CodeFileError(f"known index {index} is given twice")
        known[index] = count_from_obj(val)
    return known


def _parse_counts(text: str, n: int) -> list[int]:
    counts = [count_from_obj(part) for part in _split_list(text)]
    if len(counts) != n + 1:
        raise CodeFileError(f"distribution needs {n + 1} counts, got {len(counts)}")
    return counts


def _distribution_from_counts(code: LinearCode, counts: list[int]) -> WeightDistribution:
    return WeightDistribution(
        n=code.n,
        counts=tuple(counts),
        p=code.ring.p,
        s=code.ring.s,
        card=code.cardinality,
        rank=code.rank,
        free_rank=code.free_rank,
    )


# -- handlers ------------------------------------------------------------------


def _cmd_stdform(args) -> tuple[Any, int]:
    doc = _load_document(args.file)
    code = doc.to_code()
    return (
        {
            "ring": ring_to_obj(doc.ring),
            "n": doc.n,
            "profile": list(code.profile.counts),
            "rank": code.rank,
            "free_rank": code.free_rank,
            "cardinality": str(code.cardinality),
            "reduced": matrix_to_obj(code.std.reduced),
            "column_permutation": permutation_to_obj(code.std.column_permutation),
        },
        0,
    )


def _cmd_paritycheck(args) -> tuple[Any, int]:
    doc = _load_document(args.file)
    code = doc.to_code()
    return (
        {
            "ring": ring_to_obj(doc.ring),
            "n": doc.n,
            "parity_check": matrix_to_obj(code.parity_check()),
        },
        0,
    )


def _cmd_dual(args) -> tuple[Any, int]:
    doc = _load_document(args.file)
    code = doc.to_code()
    dual_doc = CodeDocument(
        ring=doc.ring,
        n=doc.n,
        generators=code.parity_check().rows,
        name=f"{doc.name}-dual" if doc.name else None,
    )
    return dual_doc.to_obj(), 0


def _cmd_card(args) -> tuple[Any, int]:
    doc = _load_document(args.file)
    code = doc.to_code()
    return (
        {
            "cardinality": str(code.cardinality),
            "profile": list(code.profile.counts),
            "rank": code.rank,
            "free_rank": code.free_rank,
        },
        0,
    )


def _cmd_wdist(args) -> tuple[Any, int]:
    doc = _load_document(args.file)
    code = doc.to_code()
    for flag, value in (("--known", args.known), ("--d", args.d)):
        if value is not None and args.method != "solve":
            raise CodeFileError(f"{flag} is read only by --method solve; drop it")
    if args.method == "enumerate":
        dist = weight_distribution(code)
    elif args.method == "solve":
        known = _parse_known(args.known)  # refused before C_dual is enumerated
        dual_dist = weight_distribution(dual(code))
        ctx = IdentityContext.from_code(code, d=args.d, d_dual=_dual_distance(dual_dist))
        dist = solve_distribution(ctx, known)
    else:  # mds
        if not code.is_free:
            raise CodeFileError("the mds method needs a free code")
        n, k = code.n, code.rank
        if not k:
            raise CodeFileError("the mds method needs a nonzero code, and this is the zero code")
        # A free code of rank k is MDS exactly when every k-column submatrix
        # of G has the code's own type (k, 0, ..., 0).
        if count_submatrix_types(code.generator_matrix(), k) != {code.profile: comb(n, k)}:
            raise CodeFileError("the mds method needs an MDS code, and this free code is not")
        dist = mds_distribution(n, k, code.ring.p, code.ring.s)
    payload: Any = distribution_to_obj(dist)
    if args.poly:
        payload = {
            "distribution": payload,
            "enumerator_polynomial": render_enumerator(dist),
        }
    return payload, 0


def _cmd_mac(args) -> tuple[Any, int]:
    _check_ring_and_ranks(args.n, args.p, args.s, args.rank, args.free_rank)
    try:
        raw = json.loads(_read_input(args.file))
    except json.JSONDecodeError as exc:
        raise CodeFileError(f"malformed JSON distribution: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise CodeFileError("malformed JSON distribution: nested too deeply") from exc
    if not isinstance(raw, list):
        raise CodeFileError("distribution input must be a JSON array")
    counts = tuple(count_from_obj(x) for x in raw)
    card = count_from_obj(args.card)
    try:
        _check_card(card, args.p, args.s, args.rank, args.free_rank)
    except ValueError as exc:  # named by its flag: "--card N is not p**m ..."
        raise CodeFileError(f"--{exc}") from exc
    dist = WeightDistribution(
        n=args.n,
        counts=counts,
        p=args.p,
        s=args.s,
        card=card,
        rank=args.rank,
        free_rank=args.free_rank,
    )
    return distribution_to_obj(macwilliams_transform(dist)), 0


def _cmd_classify(args) -> tuple[Any, int]:
    doc = _load_document(args.file)
    code = doc.to_code()
    dist = weight_distribution(code)
    d = dist.min_positive_weight
    if d is None:
        raise CodeFileError("the zero code has no minimum distance to classify")
    dual_dist = weight_distribution(dual(code))
    d_dual = dual_dist.min_positive_weight
    profile = classify(code, d, d_dual)
    return (
        {
            "n": code.n,
            "rank": code.rank,
            "free_rank": code.free_rank,
            "cardinality": str(code.cardinality),
            "d": profile.d,
            "d_dual": profile.d_dual,
            "defect": profile.defect,
            "dual_defect": profile.dual_defect,
            "sigma": profile.sigma,
            "label": profile.label,
        },
        0,
    )


def _relation(
    nu: int, lhs: int, rhs: Fraction | int, holds: bool, required: bool
) -> dict[str, Any]:
    return {
        "nu": nu,
        "lhs": str(lhs),
        "rhs": _frac_str(rhs),
        "difference": _frac_str(lhs - rhs),
        "holds": holds,
        "required": required,
    }


def _cmd_check(args) -> tuple[Any, int]:
    doc = _load_document(args.file)
    code = doc.to_code()
    n, identity = code.n, args.identity
    scans = identity in ("doublecount", "subtypes")  # column subsets of H
    if args.nu is None and not args.all_nu:
        raise CodeFileError("check needs --nu N or --all-nu")
    if args.nu is not None and args.all_nu:
        raise CodeFileError("check takes --nu N or --all-nu, not both")
    if args.nu is not None and not 0 <= args.nu <= n:
        raise CodeFileError(f"--nu must lie in 0..{n}")
    if args.subset_cap is not None and not scans:
        raise CodeFileError(f"--identity {identity} scans no column subsets; drop --subset-cap")
    cap = DEFAULT_SUBSET_CAP if args.subset_cap is None else args.subset_cap
    if cap < 0:
        raise CodeFileError("--subset-cap must be nonnegative")
    if args.distribution is not None and identity == "subtypes":
        raise CodeFileError(
            "--identity subtypes reads no weight distribution; drop --distribution"
        )

    # Each identity enumerates only what it reads: subtypes needs no C, and
    # doublecount no C_dual.  subtypes starts at nu = 1, pless stops below d_dual.
    report: dict[str, Any] = {"identity": identity, "n": n}
    if args.distribution is not None:
        dist = _distribution_from_counts(code, _parse_counts(args.distribution, n))
    elif identity != "subtypes":
        dist = weight_distribution(code)
    if identity != "doublecount":
        dual_dist = weight_distribution(dual(code))
        d_dual = report["d_dual"] = _dual_distance(dual_dist)
    first = 1 if identity == "subtypes" else 0
    last = min(d_dual - 1, n) if identity == "pless" else n

    if not args.all_nu:
        if args.nu < first:
            raise CodeFileError(f"{identity} needs nu >= {first}")
        if args.nu > last:
            raise CodeFileError(f"the pless form needs nu < d_dual = {d_dual}")
        nus = [args.nu]
    else:
        nus = range(first, last + 1)
        if not nus:
            raise CodeFileError(f"{identity} needs nu >= {first}, and a code of length 0 has none")
        if scans:
            # One nu asked for is scanned as asked, and the library raises over
            # the cap; --all-nu skips and lists every nu over it instead.
            skipped = [nu for nu in nus if comb(n, nu) > cap]
            if len(skipped) == len(nus):
                raise CapExceededError(f"every nu exceeds the subset cap of {cap}")
            if skipped:
                report["skipped_nu"] = skipped
            nus = [nu for nu in nus if comb(n, nu) <= cap]

    def evaluate(nu: int) -> dict[str, Any]:
        if identity == "subtypes":
            tally = count_submatrix_types(code.parity_check(), nu, cap=cap)
            return {
                "nu": nu,
                "types": [
                    {"profile": list(profile.counts), "count": count}
                    for profile, count in sorted(tally.items(), key=lambda item: item[0].counts)
                ],
                "holds": tally == {code.profile.dual(n): comb(n, nu)},
                "required": nu > n - d_dual,
            }
        if identity == "doublecount":
            result = double_count_check(code, nu, distribution=dist, subset_cap=cap)
            return _relation(nu, result.kernel_side, result.codeword_side, result.holds, True)
        if identity == "new":
            result = check_new_relation(dist, nu, d_dual=d_dual)
            return _relation(nu, result.lhs, result.rhs, result.holds, result.required)
        form = "pless" if identity == "pless" else "full"
        result = power_moment(dist, dual_dist, nu=nu, form=form)
        return _relation(nu, result.lhs, result.rhs, result.holds, True)

    results = [evaluate(nu) for nu in nus]
    all_required_hold = all(result["holds"] for result in results if result["required"])
    report["results"] = results
    report["all_required_hold"] = all_required_hold
    return report, 0 if all_required_hold else 1


def random_generator_rows(
    ring: ChainRing, n: int, nrows: int, seed: int
) -> tuple[tuple[int, ...], ...]:
    """Pinned seeded draw: row-major ``random.Random(seed).randrange(p**s)``.

    Each draw is the canonical element code.  Mersenne Twister is stable
    across platforms, so equal arguments always give equal rows.
    """
    rng = _random.Random(seed)
    return tuple(tuple(rng.randrange(ring.size) for _ in range(n)) for _ in range(nrows))


def _cmd_random(args) -> tuple[Any, int]:
    ring = ChainRing(args.p, args.s, args.backend)
    for flag, value in (("--n", args.n), ("--rows", args.rows)):
        if value < 0:
            raise CodeFileError(f"{flag} must be nonnegative, got {value}")
    rows = random_generator_rows(ring, args.n, args.rows, args.seed)
    name = args.name or f"random-p{args.p}-s{args.s}-n{args.n}-r{args.rows}-seed{args.seed}"
    doc = CodeDocument(ring=ring, n=args.n, generators=rows, name=name)
    return doc.to_obj(), 0


_HANDLERS = {
    "stdform": _cmd_stdform,
    "paritycheck": _cmd_paritycheck,
    "dual": _cmd_dual,
    "card": _cmd_card,
    "wdist": _cmd_wdist,
    "mac": _cmd_mac,
    "check": _cmd_check,
    "classify": _cmd_classify,
    "random": _cmd_random,
}


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line and exit 2, as every input error is."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainring",
        description="Exact linear codes over finite chain rings: constructions, "
        "weight distributions, duality identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def code_cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="code file path, or - for stdin")
        return p

    code_cmd("stdform", "standard form, type profile and column permutation")
    code_cmd("paritycheck", "systematic parity-check matrix in original coordinates")
    code_cmd("dual", "the dual code as a code document")
    code_cmd("card", "cardinality and type profile")

    wdist = code_cmd("wdist", "weight distribution")
    wdist.add_argument(
        "--method", choices=("enumerate", "solve", "mds"), default="enumerate"
    )
    wdist.add_argument("--known", help="comma list of index=value pairs for --method solve")
    wdist.add_argument("--d", type=int, help="minimum distance hint for --method solve")
    wdist.add_argument("--poly", action="store_true", help="include the enumerator polynomial")

    mac = sub.add_parser("mac", help="MacWilliams transform of a distribution")
    mac.add_argument("file", help="JSON array of counts, or - for stdin")
    mac.add_argument("--p", type=int, required=True)
    mac.add_argument("--s", type=int, required=True)
    mac.add_argument("--n", type=int, required=True)
    mac.add_argument("--card", required=True, help="cardinality (decimal string)")
    mac.add_argument("--rank", type=int, required=True)
    mac.add_argument("--free-rank", dest="free_rank", type=int, required=True)

    check = code_cmd("check", "verify identities; exit 1 on a required violation")
    check.add_argument(
        "--identity",
        required=True,
        choices=("new", "pless", "power", "doublecount", "subtypes"),
    )
    check.add_argument("--nu", type=int)
    check.add_argument("--all-nu", dest="all_nu", action="store_true")
    check.add_argument("--subset-cap", dest="subset_cap", type=int)
    check.add_argument(
        "--distribution",
        help="comma list of counts to validate instead of enumerating",
    )

    code_cmd("classify", "Singleton defects and classification label")

    rand = sub.add_parser("random", help="deterministic seeded random code document")
    rand.add_argument("--p", type=int, required=True)
    rand.add_argument("--s", type=int, required=True)
    rand.add_argument("--n", type=int, required=True)
    rand.add_argument("--rows", type=int, required=True)
    rand.add_argument("--seed", type=int, required=True)
    rand.add_argument("--backend", choices=("int", "poly"), default="int")
    rand.add_argument("--name")
    return parser


# Parsing leaves the parser unchanged, so one instance serves every call
# instead of a fresh graph of argparse objects (and their cyclic garbage).
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        payload, status = handler(args)
        text = json.dumps(payload, separators=(",", ":"))
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a bug, not a verdict on the input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    try:
        print(text, flush=True)
    except OSError as exc:  # the reader has closed stdout
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # What is still buffered goes to the null device when Python flushes
        # stdout at exit, rather than failing a second time.
        with suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return status


def entry() -> None:
    sys.exit(main())
