"""Tests of the benchmark itself: generator, output checker and tracer.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import chainring.cli  # noqa: E402
import chainring.enumeration  # noqa: E402
import run  # noqa: E402
from checks import check_output, digest  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, jobs, rank_mod_p  # noqa: E402


def first(workload: str, seed: int, count: int):
    return list(islice(jobs(WORKLOADS[workload], seed), count))


def test_generator_is_deterministic_for_a_seed():
    for name, workload in WORKLOADS.items():
        count = 2 * len(workload.cycle)
        texts = [job.text for job in first(name, 7, count)]
        assert texts == [job.text for job in first(name, 7, count)]
        assert texts != [job.text for job in first(name, 8, count)]
        assert len(set(texts)) == count


def test_generated_codes_are_free_of_the_stated_rank():
    for name, workload in WORKLOADS.items():
        for job in first(name, 3, 2 * len(workload.cycle)):
            assert rank_mod_p([list(row) for row in job.rows], job.kind.p) == job.kind.k


def test_poly_twins_reuse_digits_as_coefficient_arrays():
    cycle = first("subsets", 5, len(WORKLOADS["subsets"].cycle))
    twins = [job for job in cycle if job.kind.twin_of is not None]
    assert twins
    for job in twins:
        assert job.rows == cycle[job.kind.twin_of].rows
        generators = json.loads(job.text)["generators"]
        assert all(isinstance(x, list) and len(x) == job.kind.s for row in generators for x in row)


def _corrupt(stdout: str) -> str:
    # Move one word between the two last weights of a distribution, or
    # change one number in any other output: the line stays valid JSON.
    payload = json.loads(stdout)
    if isinstance(payload, list):
        payload[-2], payload[-1] = str(int(payload[-2]) + 1), str(int(payload[-1]) - 1)
    elif "d" in payload:
        payload["d"] += 1
    elif payload["identity"] == "doublecount":
        payload["results"][-1]["lhs"] += "0"
    else:
        payload["results"][-1]["types"][0]["count"] += 1
    return json.dumps(payload, separators=(",", ":")) + "\n"


def test_checker_counts_corrupted_stdout_and_wrong_status_as_failures():
    sample = [first("enum-z4", 0, 1)[0], first("wide-ring", 0, 1)[0], *first("subsets", 0, 3)[1:]]
    for job in sample:
        good = run.call(job)
        assert check_output(job, good.status, good.stdout) is None
        outcomes = [
            good,
            run.Outcome(job, good.status, _corrupt(good.stdout), None, 0.0),
            run.Outcome(job, 1, good.stdout, None, 0.0),
            run.Outcome(job, None, "", "InvariantError: boom", 0.0),
        ]
        failed = run.checked(outcomes, [])
        assert [o for o, _ in failed] == outcomes[1:], job.kind.name


def test_reference_mismatch_is_a_failure():
    job = first("wide-ring", 0, 1)[0]
    good = run.call(job)
    assert run.checked([good], [f"0:{digest(good.stdout)}"]) == []
    assert len(run.checked([good], [f"0:{digest(good.stdout + ' ')}"])) == 1


def _traced_counts(sample) -> tuple[dict, list[str]]:
    tracer = Tracer()
    with tracer.installed():
        outputs = [run.call(job, tracer).stdout for job in sample]
    metrics = tracer.layer_metrics(sum(min(j.card, j.dual_card) for j in sample))
    counts = {
        k: v
        for k, v in metrics.items()
        if k.endswith(".calls") or k in ("enumeration.words", "matrix.reductions_per_subset")
    }
    return counts, outputs


def test_traced_counts_repeat_exactly_and_leave_outputs_alone():
    sample = first("subsets", 0, 3) + first("wide-ring", 0, 1)
    original = chainring.cli.weight_distribution
    once, outputs = _traced_counts(sample)
    twice, _ = _traced_counts(sample)
    assert once == twice
    assert once["matrix.standard_form.calls"] > 0 and once["enumeration.words"] > 0
    assert once["ring.mul.calls"] > 0
    assert chainring.cli.weight_distribution is original
    assert chainring.enumeration.weight_distribution is original
    assert outputs == [run.call(job).stdout for job in sample]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enum-z4", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
