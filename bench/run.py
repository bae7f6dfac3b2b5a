"""End-to-end benchmark of the chainring CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload enum-z4 --seed 0 --seconds 30 --trace 0

One process, one client, closed loop: each job is one in-process call of
``chainring.cli.main(argv)`` on a distinct generated code document fed on
stdin, with stdout captured; the next job starts when the previous one has
returned.  No threads, and no subprocess per job.  Every job's output is
checked (see ``checks.py``) after the timed loop.  Job times are reported in
the reference unit of ``calibration.py``, timed between jobs, so that drift
in the host's speed cancels out.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed job
set twice, untraced and then traced, and prints the per-layer metrics (see
``tracing.py``); its length is set by the job set, not by ``--seconds``.
``--record N`` rewrites the recorded default-seed digests of the first N
jobs.  The last line of stdout is the result object; the line before it
carries the sample counts, raw and per-kind times and the environment.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator

from calibration import Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0  # the seed whose outputs reference.json records
SETUP_SAMPLES = 3
POOL_JOBS = 500  # documents generated during set-up; later ones are drawn on demand
MIN_JOBS = 110  # so that at least ten samples lie beyond p90
MAX_MEASURE_S = 120.0
CALIBRATE_EVERY_S = 0.5


@dataclass
class Outcome:
    job: object
    status: object
    stdout: str
    error: str | None
    seconds: float


def call(job, tracer=None) -> Outcome:
    """One job: ``cli.main`` on the job's document, stdout and stderr captured."""
    import chainring.cli

    out, err = io.StringIO(), io.StringIO()
    status, error = None, None
    saved = sys.stdin
    sys.stdin = io.StringIO(job.text)
    if tracer is not None:
        tracer.job = job.index
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                status = chainring.cli.main(job.argv)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return Outcome(job, status, out.getvalue(), error, seconds)


def checked(outcomes: list[Outcome], reference: list[str]) -> list[tuple[Outcome, str]]:
    """The failed outcomes, each with the reason it failed."""
    from checks import check_output, check_reference

    failures = []
    for o in outcomes:
        reason = o.error or check_output(o.job, o.status, o.stdout)
        reason = reason or check_reference(reference, o.job, o.status, o.stdout)
        if reason:
            failures.append((o, reason))
    return failures


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh interpreters: start, imports, document pool, warm-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=150)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run exited with status {done.returncode}")
    return samples


def measure(
    pool: list, stream: Iterator, seconds: float, calibration: Calibration
) -> tuple[list[Outcome], float]:
    """Closed loop for ``seconds`` and at least MIN_JOBS jobs.

    The clock stops while documents past the pre-generated pool are drawn
    and while the calibration kernels run, once every CALIBRATE_EVERY_S.
    """
    outcomes: list[Outcome] = []
    paused = 0.0
    next_calibration = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - paused
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and len(outcomes) >= MIN_JOBS):
            break
        t = time.perf_counter()
        if elapsed >= next_calibration:
            calibration.sample()
            next_calibration = elapsed + CALIBRATE_EVERY_S
        job = pool[len(outcomes)] if len(outcomes) < len(pool) else next(stream)
        paused += time.perf_counter() - t
        outcomes.append(call(job))
    return outcomes, time.perf_counter() - start - paused


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "load": "one process, one client in a closed loop, no threads, no subprocess per job",
        "waits": "none measured: no threads or queues, so no layer waits on another",
    }


def kind_stats(outcomes: list[Outcome]) -> dict:
    by_kind: dict[str, list[float]] = {}
    for o in outcomes:
        by_kind.setdefault(o.job.kind.name, []).append(o.seconds)
    return {
        name: {
            "jobs": len(times),
            "min_s": min(times),
            "median_s": statistics.median(times),
            "max_s": max(times),
        }
        for name, times in by_kind.items()
    }


def report(
    spec_section: str, values: dict, attempted: list[Outcome], failures: list, info: dict
) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[spec_section]
    }
    for outcome, reason in failures[:5]:
        job = outcome.job
        print(f"job {job.index} ({job.kind.name}) failed: {reason}", file=sys.stderr)
    info["fail_ratio"] = len(failures) / len(attempted)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(attempted),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )


def run_plain(args, workload, stream, pool, reference) -> None:
    from workloads import warmup_jobs

    setup = setup_seconds(args)
    warm = [call(job) for job in warmup_jobs(workload, args.seed)]
    calibration = Calibration()
    measured, wall = measure(pool, stream, args.seconds, calibration)
    measured_failures = checked(measured, reference)
    failures = checked(warm, []) + measured_failures
    times = [o.seconds for o in measured]
    p50 = statistics.median(times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    jobs_per_s = (len(measured) - len(measured_failures)) / wall
    unit = calibration.unit_s
    values = {
        "setup_s": statistics.median(setup),
        "job_ref.p50": p50 / unit,
        "job_ref.p90": p90 / unit,
        "jobs_per_ref": jobs_per_s * unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": 0,
        "samples": len(times),
        "beyond_p90": sum(1 for t in times if t > p90),
        "job_s.p50": p50,
        "job_s.p90": p90,
        "jobs_per_s": jobs_per_s,
        "ref_unit_s": unit,
        "calibration": {
            "samples": len(calibration.python_s),
            "python_s": statistics.median(calibration.python_s),
            "numpy_s": statistics.median(calibration.numpy_s),
        },
        "measured_s": wall,
        "setup_samples_s": setup,
        "kinds": kind_stats(measured),
        "env": environment(),
    }
    report("end_to_end", values, warm + measured, failures, info)


def run_traced(args, workload, stream, reference) -> None:
    from tracing import Tracer
    from workloads import warmup_jobs

    fixed = list(islice(stream, workload.trace_cycles * len(workload.cycle)))
    warm = [call(job) for job in warmup_jobs(workload, args.seed)]
    start = time.perf_counter()
    untraced = [call(job) for job in fixed]
    untraced_wall = time.perf_counter() - start
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        traced = [call(job, tracer) for job in fixed]
        traced_wall = time.perf_counter() - start
    tracer.write(ROOT / "bench" / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl.gz")
    attempted = warm + untraced + traced
    failures = checked(warm, []) + checked(untraced + traced, reference)
    values = tracer.layer_metrics(sum(min(j.card, j.dual_card) for j in fixed))
    values["trace.overhead_ratio"] = untraced_wall / traced_wall
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": 1,
        "trace_jobs": len(fixed),
        "spans": len(tracer.spans),
        "untraced_s": untraced_wall,
        "traced_s": traced_wall,
        "kinds": kind_stats(untraced),
        "env": environment(),
    }
    report("per_layer", values, attempted, failures, info)


def record(args, workload, stream) -> None:
    from checks import REFERENCE_PATH, check_output, digest

    entries = []
    for job in islice(stream, args.record):
        outcome = call(job)
        reason = outcome.error or check_output(job, outcome.status, outcome.stdout)
        if reason:
            raise RuntimeError(f"job {job.index} fails its checks: {reason}")
        entries.append(f"{outcome.status}:{digest(outcome.stdout)}")
    data = {"seed": args.seed, "workloads": {}}
    if REFERENCE_PATH.is_file():
        data = json.loads(REFERENCE_PATH.read_text())
    data["workloads"][workload.name] = entries
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} jobs of {workload.name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", type=int, metavar="N", help="record the first N default-seed digests"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "chainring" / "cli.py").is_file():
        print(f"error: no chainring sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CHAINRING_ENUM_CAP", None)
    sys.path.insert(0, str(SRC))
    import chainring.cli

    if Path(chainring.cli.__file__).resolve().parent != SRC / "chainring":
        print(f"error: chainring was imported from {chainring.cli.__file__}", file=sys.stderr)
        return 2

    from checks import load_reference
    from workloads import WORKLOADS, jobs, warmup_jobs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    stream = jobs(workload, args.seed)
    if args.record:
        if args.seed != DEFAULT_SEED:
            parser.error(f"references are recorded for the default seed {DEFAULT_SEED}")
        record(args, workload, stream)
        return 0
    reference = load_reference(workload.name) if args.seed == DEFAULT_SEED else []
    if args.trace:
        run_traced(args, workload, stream, reference)
        return 0
    pool = list(islice(stream, POOL_JOBS))
    if args.setup_only:
        for job in warmup_jobs(workload, args.seed):
            call(job)
        return 0
    run_plain(args, workload, stream, pool, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
