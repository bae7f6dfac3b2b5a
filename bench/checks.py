"""Output checks for benchmark jobs, independent of the program under test.

Every job must exit 0 and print one JSON line that obeys exactness rules
derived here, not by the program:

* a distribution has n+1 counts, A_0 = 1, and sums to |C| = q**k (the
  generator draws free codes of rank k);
* its MacWilliams transform, computed here with Krawtchouk polynomials, is
  integral and nonnegative;
* ``check`` reports ``all_required_hold: true``, and its codeword-side sums
  and ``d_dual`` agree with a distribution enumerated here;
* ``classify``'s ``d`` is the least positive weight of that distribution,
  ``d_dual`` the least positive weight of its transform, and the defects and
  label follow from them.

Codes small enough (at most ``ORACLE_WORDS`` words over a ring with at most
256 elements) are enumerated here from addition and multiplication tables;
larger ones get the rules that need no distribution of our own.  For the
default seed, stdout must also match, byte for byte, a digest recorded from
the reference program.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from math import comb
from pathlib import Path

import numpy as np

from workloads import Job

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
ORACLE_WORDS = 1 << 16


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]


def load_reference(workload: str) -> list[str]:
    """Recorded ``status:digest`` of each default-seed job, in job order."""
    if not REFERENCE_PATH.is_file():
        return []
    return json.loads(REFERENCE_PATH.read_text())["workloads"].get(workload, [])


@lru_cache(maxsize=None)
def _tables(p: int, s: int, backend: str) -> tuple[np.ndarray, np.ndarray]:
    q = p**s
    a = np.arange(q)[:, None]
    b = np.arange(q)[None, :]
    if backend == "int":
        return (a + b) % q, (a * b) % q
    da = [(a // p**i) % p for i in range(s)]
    db = [(b // p**i) % p for i in range(s)]
    add = sum(((x + y) % p) * p**i for i, (x, y) in enumerate(zip(da, db)))
    coeff = [0] * s
    for i in range(s):
        for j in range(s - i):
            coeff[i + j] = coeff[i + j] + da[i] * db[j]
    mul = sum((c % p) * p**i for i, c in enumerate(coeff))
    return add, mul


def oracle_distribution(job: Job) -> list[int] | None:
    """Weight distribution by direct enumeration, or None when too large."""
    kind = job.kind
    if kind.q > 256 or job.card > ORACLE_WORDS:
        return None
    add, mul = _tables(kind.p, kind.s, kind.backend)
    words = np.zeros((1, kind.n), dtype=np.int64)
    for row in job.rows:
        scaled = mul[:, list(row)]  # every coefficient times the row
        words = add[words[:, None, :], scaled[None, :, :]].reshape(-1, kind.n)
    weights = np.count_nonzero(words, axis=1)
    return [int(x) for x in np.bincount(weights, minlength=kind.n + 1)]


def macwilliams(counts: list[int], q: int) -> list[int] | None:
    """Dual distribution by Krawtchouk polynomials; None if not integral and nonnegative."""
    n = len(counts) - 1
    card = sum(counts)
    out = []
    for j in range(n + 1):
        total = 0
        for i, a in enumerate(counts):
            if a:
                k = sum(
                    (-1) ** b * comb(i, b) * comb(n - i, j - b) * (q - 1) ** (j - b)
                    for b in range(min(i, j) + 1)
                )
                total += a * k
        if total % card or total < 0:
            return None
        out.append(total // card)
    return out


def _least_positive(counts: list[int]) -> int:
    return next(w for w in range(1, len(counts)) if counts[w])


def _label(defect: int, dual_defect: int) -> str:
    # Every benchmark code is free, so MDR and NearMDR cannot occur.
    if defect == 0:
        return "MDS"
    if defect == 1:
        return "NearMDS" if dual_defect == 1 else "AMDR"
    return "other"


def _check_distribution(job: Job, payload) -> str | None:
    kind = job.kind
    if not isinstance(payload, list) or len(payload) != kind.n + 1:
        return "distribution does not have n+1 entries"
    if not all(isinstance(c, str) and c.isdigit() for c in payload):
        return "distribution entries are not decimal strings"
    counts = [int(c) for c in payload]
    if counts[0] != 1:
        return "A_0 is not 1"
    if sum(counts) != job.card:
        return f"counts sum to {sum(counts)}, not |C| = {job.card}"
    if macwilliams(counts, kind.q) is None:
        return "MacWilliams transform is not integral and nonnegative"
    oracle = oracle_distribution(job)
    if oracle is not None and counts != oracle:
        return "distribution differs from direct enumeration"
    return None


def _check_classify(job: Job, payload, oracle: list[int]) -> str | None:
    kind = job.kind
    dual = macwilliams(oracle, kind.q)
    d, d_dual = _least_positive(oracle), _least_positive(dual)
    defect = kind.n + 1 - kind.k - d
    dual_defect = kind.k + 1 - d_dual
    expected = {
        "n": kind.n,
        "rank": kind.k,
        "free_rank": kind.k,
        "cardinality": str(job.card),
        "d": d,
        "d_dual": d_dual,
        "defect": defect,
        "dual_defect": dual_defect,
        "sigma": defect + dual_defect,
        "label": _label(defect, dual_defect),
    }
    if payload != expected:
        return f"classify output {payload} differs from {expected}"
    return None


def _check_identity(job: Job, payload, oracle: list[int]) -> str | None:
    kind = job.kind
    n = kind.n
    if not isinstance(payload, dict) or payload.get("all_required_hold") is not True:
        return "check does not report all_required_hold: true"
    identity = kind.argv[kind.argv.index("--identity") + 1]
    if payload.get("identity") != identity or payload.get("n") != n:
        return "check reports the wrong identity or length"
    results = payload.get("results")
    if identity == "doublecount":
        if [r.get("nu") for r in results] != list(range(n + 1)):
            return "doublecount does not cover every nu"
        for r in results:
            nu = r["nu"]
            side = sum(comb(n - l, nu - l) * a for l, a in enumerate(oracle[: nu + 1]))
            if r["lhs"] != str(side) or r["rhs"] != str(side) or r["holds"] is not True:
                return f"doublecount at nu={nu} is not {side} on both sides"
        return None
    d_dual = _least_positive(macwilliams(oracle, kind.q))
    if payload.get("d_dual") != d_dual:
        return f"subtypes reports d_dual {payload.get('d_dual')}, not {d_dual}"
    if [r.get("nu") for r in results] != list(range(1, n + 1)):
        return "subtypes does not cover every nu >= 1"
    for r in results:
        nu = r["nu"]
        if sum(t["count"] for t in r["types"]) != comb(n, nu):
            return f"subtypes at nu={nu} does not count every subset"
        if r["required"] != (nu > n - d_dual):
            return f"subtypes at nu={nu} flags the wrong threshold"
    return None


def check_output(job: Job, status: int | None, stdout: str) -> str | None:
    """Why the job's result is wrong, or None when it is right."""
    if status != 0:
        return f"exit status {status}, expected 0"
    if not stdout.endswith("\n") or "\n" in stdout[:-1]:
        return "stdout is not exactly one line"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    try:
        if job.kind.command == "wdist":
            return _check_distribution(job, payload)
        oracle = oracle_distribution(job)
        if oracle is None:
            return "no oracle distribution for this kind"
        if job.kind.command == "classify":
            return _check_classify(job, payload, oracle)
        return _check_identity(job, payload, oracle)
    except (KeyError, TypeError, AttributeError, ValueError):
        return "output does not have the expected shape"


def check_reference(reference: list[str], job: Job, status: int | None, stdout: str) -> str | None:
    """Byte-identity with the recorded default-seed output, where one was recorded."""
    if job.index >= len(reference):
        return None
    got = f"{status}:{digest(stdout)}"
    if got != reference[job.index]:
        return f"stdout/status {got} differs from the recorded {reference[job.index]}"
    return None
