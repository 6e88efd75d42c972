"""Benchmark of the cyclecovers CLI: time to a correct verdict.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One client runs the workload's jobs
one at a time (a closed loop), each in a fresh process, as a user pays for
them. The seed permutes the job order. After one untimed warm-up job, the
run makes as many whole passes over the pool as fit in S seconds, at least
one. Every job's exit code and output are checked (verdict.py).

The last stdout line is a JSON object with keys correct, attempted, failed
and metrics. With --trace 0 the metrics are end to end:
  setup_s        median over jobs of spawn to ``cyclecovers.cli`` imported
  wall_s         sum over the pool of each job's median time, import to exit
  slowest_job_s  the largest of those per-job medians
  peak_rss_mb    highest peak RSS of any job process
Per-job medians over the run's passes keep a burst of load on a shared
machine, which slows one job of one pass, out of the totals.
With --trace 1 each untraced pass is followed by a traced one (spans.py) and
the metrics are per layer, medians over traced passes. The line before the
result records the environment and every job of the run.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import JobResult, now, run_job  # noqa: E402
from spans import layer_metrics  # noqa: E402
from verdict import check, load_recorded  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

JOB_TIMEOUT_S = 120.0
# A run must end within 180 s; no pass starts that would end past this.
RUN_LIMIT_S = 170.0

# One BLAS thread: the solves here are at most 250x250, where a second
# OpenBLAS thread on a 2-core box spins more than it computes and makes
# the timings swing with other load on the machine.
BLAS_THREADS = "1"


@dataclass
class JobRun:
    job: Job
    result: JobResult
    problems: list[str]
    observed: dict
    trace: dict | None


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    return env


def environment(env: dict, root: Path) -> dict:
    """nproc, Python, numpy and BLAS as the job processes see them."""
    probe = (
        "import json, platform, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'blas': blas.get('name', '?') + ' ' + str(blas.get('version', '?'))}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=root, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    info = json.loads(out)
    info.update(nproc=len(os.sched_getaffinity(0)), blas_threads=int(BLAS_THREADS))
    return info


class SetupError(Exception):
    pass


def prepare(root: Path) -> tuple[dict, dict]:
    """Set-up, not timed: find the source and byte-compile it, as an installed
    package would be, so that no job pays for compiling. Returns the job
    environment and the run's environment record."""
    src = root / "src"
    if not (src / "cyclecovers" / "cli.py").is_file():
        raise SetupError(f"no cyclecovers source under {src}; run from a checkout root")
    if not compileall.compile_dir(str(src), quiet=1):
        raise SetupError("the cyclecovers source does not compile")
    env = child_env(root)
    try:
        return env, environment(env, root)
    except (subprocess.SubprocessError, ValueError) as exc:
        raise SetupError(f"cannot start a job process: {exc}") from exc


@contextlib.contextmanager
def scratch_dir(root: Path):
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


class Runner:
    """Runs jobs in a scratch directory of the checkout. With recorded None,
    outputs are checked against the paper's fields only (record.py)."""

    def __init__(self, root: Path, work: Path, env: dict, recorded: dict | None, started: float):
        self.root, self.work, self.env, self.recorded = root, work, env, recorded
        self.started = started

    def run(self, job: Job, index: int, traced: bool) -> JobRun:
        stdout_path = self.work / "stdout"
        trace_path = self.work / "trace.json"
        out_dir = self.work / "out"
        trace_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(self.work / "stamp"),
               str(trace_path) if traced else "-", str(index), "--", *job.args]
        if job.writes_files:
            cmd += ["--out", str(out_dir)]
        left = self.started + RUN_LIMIT_S - now()
        result = run_job(cmd, env=self.env, cwd=self.root, stdout_path=stdout_path,
                         stamp_path=self.work / "stamp",
                         timeout=max(0.1, min(JOB_TIMEOUT_S, left)))
        entry = None if self.recorded is None else self.recorded.get(job.id, {})
        problems, observed = check(job, entry, result.exit_code, result.timed_out,
                                   stdout_path.read_text(errors="replace"))
        trace = None
        if traced:
            try:
                trace = json.loads(trace_path.read_text())
            except (OSError, ValueError):
                problems.append("no trace written")
        shutil.rmtree(out_dir, ignore_errors=True)
        return JobRun(job, result, problems, observed, trace)

    def run_pass(self, jobs: list[tuple[int, Job]], traced: bool) -> list[JobRun]:
        return [self.run(job, index, traced) for index, job in jobs]


def job_medians(runs: list[JobRun]) -> dict[str, float]:
    """Each job's median time over its runs."""
    times: dict[str, list[float]] = {}
    for r in runs:
        times.setdefault(r.job.id, []).append(r.result.job_s)
    return {job: statistics.median(t) for job, t in times.items()}


def end_to_end(passes: list[list[JobRun]]) -> dict:
    runs = [r for p in passes for r in p]
    per_job = job_medians(runs)
    return {
        "setup_s": (statistics.median(r.result.setup_s for r in runs), "s"),
        "wall_s": (sum(per_job.values()), "s"),
        "slowest_job_s": (max(per_job.values()), "s"),
        "peak_rss_mb": (max(r.result.peak_rss_kb for r in runs) / 1024, "MB"),
    }


def per_layer(plain: list[list[JobRun]], traced: list[list[JobRun]]) -> dict:
    rows = []
    for untraced_pass, traced_pass in zip(plain, traced):
        row = layer_metrics([r.trace or {"spans": [], "counts": {}} for r in traced_pass],
                            [r.result.job_s for r in traced_pass])
        row["trace.overhead_s"] = (sum(r.result.job_s for r in traced_pass)
                                   - sum(r.result.job_s for r in untraced_pass))
        rows.append(row)
    return {name: (statistics.median(row[name] for row in rows), unit(name)) for name in rows[0]}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in metric else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt, so the running job is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    try:
        env, info = prepare(root)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recorded = load_recorded()

    rng = random.Random(args.seed)
    jobs = list(enumerate(WORKLOADS[args.workload].jobs))
    plain: list[list[JobRun]] = []
    traced: list[list[JobRun]] = []
    with scratch_dir(root) as work:
        started = now()
        runner = Runner(root, work, env, recorded, started)
        # The first job after a pause runs slower than the rest; it is
        # checked but not timed.
        warm_up = [runner.run(jobs[0][1], jobs[0][0], traced=False)]
        # Whole passes while the next one, as long as the last, still ends
        # within the run's seconds; always at least one.
        limit = min(args.seconds, RUN_LIMIT_S)
        last = 0.0
        while not plain or now() + last - started <= limit:
            pass_started = now()
            order = rng.sample(jobs, len(jobs))
            plain.append(runner.run_pass(order, traced=False))
            if args.trace:
                traced.append(runner.run_pass(order, traced=True))
            last = now() - pass_started

    runs = warm_up + [r for p in plain + traced for r in p]
    failed = [r for r in runs if r.problems]
    for r in failed:
        print(f"FAILED {r.job.id}: {'; '.join(r.problems)}", file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    def jobs_of(passes: list[list[JobRun]]) -> list:
        return [[{"job": r.job.id, "setup_s": r.result.setup_s, "job_s": r.result.job_s,
                  "peak_rss_mb": r.result.peak_rss_kb / 1024,
                  "exit_code": r.result.exit_code, "problems": r.problems}
                 for r in p] for p in passes]

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": info,
        "passes": jobs_of(plain), "traced_passes": jobs_of(traced),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
