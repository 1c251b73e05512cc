"""susyjc benchmark: closed-loop CLI jobs with checked outputs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the package from
``src/`` as users run it: each job is a fresh ``python -m susyjc ...``
process, and one client runs one job at a time and waits for it (a closed
loop with one client). SUSYJC_THREADS, OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS are removed from the jobs' environment, so every job runs
with the program's default thread counts.

With ``--trace 0`` it repeats the workload's batch of jobs until
``--seconds`` have passed, at least MIN_BATCHES times, and reports the
end-to-end metrics. With ``--trace 1`` it
runs one batch untraced, one batch under ``tracer.py``, and one batch
single-threaded, times imports, and reports the per-layer metrics of
``layers.py``. Either way every job's output is checked (see ``check.py``)
and the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import Checker
from jobs import WORKLOADS, workload_jobs
from layers import PER_LAYER, import_breakdown, span_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SRC = ROOT / "src"
SCHEMA = SRC / "susyjc" / "schemas" / "output.schema.json"
REFERENCES = BENCH / "reference"
WORK = BENCH / ".work"

THREAD_VARS = ("SUSYJC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SINGLE_THREAD = {"SUSYJC_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
MIN_BATCHES = 2
SETUP_REPS = 3
IMPORT_REPS = 3
JOB_TIMEOUT_S = 120.0
# residuals below this read as this value: under it they are float noise
# that changes with the seed, above it they are a loss of accuracy
RESIDUAL_FLOOR = 1e-9

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "closed_residual_max": "abs",
}


@dataclass
class Proc:
    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def job_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def run_process(cmd: list[str], env: dict) -> Proc:
    """Run one process to completion; its CPU time and peak RSS come from
    its own rusage. A process still running after JOB_TIMEOUT_S is killed,
    and every process is waited for."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, out, err_path.read_bytes(), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def susyjc_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "susyjc", *args]


@dataclass
class Batch:
    procs: list  # (JobRun, Proc) in job order
    wall_s: float
    spans: list


def run_batch(runs, env: dict, traced: bool = False) -> Batch:
    procs, span_paths = [], []
    start = time.perf_counter()
    for i, run in enumerate(runs):
        if traced:
            path = WORK / f"spans_{i}.json"
            span_paths.append(path)
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(path),
                   run.key, "--", *run.args]
        else:
            cmd = susyjc_cmd(run.args)
        procs.append((run, run_process(cmd, env)))
    wall = time.perf_counter() - start
    spans = []
    for path in span_paths:
        spans.append(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
    return Batch(procs, wall, spans)


class Tally:
    """Job outcomes of one invocation."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = self.failed = 0
        self.content_ok = True

    def add(self, batch: Batch, context: str = "") -> None:
        problems = self.checker.check_batch(
            [(run, p.exit_code, p.stdout) for run, p in batch.procs], context)
        for run, p in batch.procs:
            found = list(problems[run.key])
            self.content_ok = self.content_ok and not found
            if p.exit_code != run.job.expect_exit:
                found.insert(0, f"exit {p.exit_code}, expected {run.job.expect_exit}")
            self.attempted += 1
            if found:
                self.failed += 1
                print(f"FAIL {run.key} [{' '.join(run.args)}]: {'; '.join(found[:3])}")
                tail = p.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
                if tail:
                    print(f"     stderr: {tail[0][:300]}")


def median_wall(cmd: list[str], env: dict, reps: int) -> float:
    return statistics.median(run_process(cmd, env).wall_s for _ in range(reps))


def provenance(env: dict) -> dict:
    snippet = ("import json, platform, numpy, scipy; "
               "b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
               "print(json.dumps({'python': platform.python_version(), "
               "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
               "'blas': b.get('name'), 'blas_version': b.get('version'), "
               "'blas_config': b.get('openblas configuration')}))")
    info = json.loads(run_process([sys.executable, "-c", snippet], env).stdout)
    nproc = len(os.sched_getaffinity(0))
    match = re.search(r"MAX_THREADS=(\d+)", info.get("blas_config") or "")
    info["nproc"] = nproc
    # OpenBLAS starts one thread per core when no thread variable is set
    info["blas_default_threads"] = min(nproc, int(match.group(1))) if match else None
    info["thread_vars_cleared"] = list(THREAD_VARS)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    info["commit"] = commit
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    info["src_sha256"] = digest.hexdigest()
    info["src_lines"] = lines
    return info


def end_to_end(runs, env: dict, seconds: float, tally: Tally) -> dict:
    batches = []
    start = time.perf_counter()
    while len(batches) < MIN_BATCHES or time.perf_counter() - start < seconds:
        batch = run_batch(runs, env)
        tally.add(batch)
        batches.append(batch)
    jobs = [p for b in batches for _, p in b.procs]
    print(f"batches: {len(batches)}, jobs per batch: {len(runs)}")
    print("batch wall_s: " + ", ".join(f"{b.wall_s:.3f}" for b in batches))
    for i, run in enumerate(runs):
        walls = ", ".join(f"{b.procs[i][1].wall_s:.3f}" for b in batches)
        print(f"job {run.key} wall_s: {walls}")
    # a single job's time follows the host's speed from minute to minute,
    # so the median job is printed for reading but not gated; the upper
    # median is always one measured job, never the mean of two jobs of
    # different sizes
    p50 = statistics.median_high(p.wall_s for p in jobs)
    print(f"job_p50_s = {p50!r} s (median of {len(jobs)} jobs, not gated)")
    residuals = tally.checker.residuals
    return {
        "wall_s": statistics.median(b.wall_s for b in batches),
        "cpu_s": statistics.median(sum(p.cpu_s for _, p in b.procs) for b in batches),
        "peak_rss_mb": max(p.rss_mb for p in jobs),
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
        "closed_residual_max": max(residuals + [RESIDUAL_FLOOR]),
    }


def per_layer(runs, env: dict, tally: Tally) -> dict:
    plain = run_batch(runs, env)
    tally.add(plain)
    traced = run_batch(runs, env, traced=True)
    tally.add(traced)
    single = run_batch(runs, job_env(SINGLE_THREAD))
    tally.add(single, context="single_thread")
    for job in traced.spans:
        for error in job["errors"]:
            print(f"trace: {job['job']}: {error}")
    absent = sorted({name for job in traced.spans for name in job["absent"]})
    if absent:
        print(f"trace: absent functions: {', '.join(absent)}")

    importtime = [run_process([sys.executable, "-X", "importtime", "-c",
                               "import susyjc.cli"], env).stderr.decode()
                  for _ in range(IMPORT_REPS)]
    breakdowns = [import_breakdown(text) for text in importtime]
    metrics = span_metrics(traced.spans)
    metrics.update({key: statistics.median(b[key] for b in breakdowns)
                    for key in breakdowns[0]})
    metrics["import.total_s"] = median_wall(
        [sys.executable, "-c", "import susyjc.cli"], env, IMPORT_REPS)
    metrics["cli.output_bytes"] = sum(len(p.stdout) for _, p in traced.procs)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["single_thread.wall_s"] = single.wall_s
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> None:
    env = job_env()
    runs = workload_jobs(workload, seed)
    references = REFERENCES / f"{workload}.json"
    checker = Checker(json.loads(references.read_text(encoding="utf-8")),
                      json.loads(SCHEMA.read_text(encoding="utf-8")))
    tally = Tally(checker)
    print("provenance: " + json.dumps(provenance(env), sort_keys=True))
    print(f"workload {workload}, seed {seed}: " + ", ".join(r.key for r in runs))

    if trace:
        values, units = per_layer(runs, env, tally), PER_LAYER
    else:
        setup_s = median_wall(susyjc_cmd(["--help"]), env, SETUP_REPS)
        values = end_to_end(runs, env, seconds, tally)
        values["setup_s"] = setup_s
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": tally.content_ok, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    needed = [SRC / "susyjc" / "__main__.py", SCHEMA]
    needed += [REFERENCES / f"{w}.json" for w in workloads]
    for path in needed:
        if not path.is_file():
            print(f"perfbench: missing {path}; run from the root of a "
                  "susyjc source checkout", file=sys.stderr)
            return 2
    WORK.mkdir(exist_ok=True)
    if not (SRC / "susyjc" / "__pycache__").is_dir():
        # the first start compiles bytecode, which users pay once per install
        run_process(susyjc_cmd(["--help"]), job_env())
    for workload in workloads:
        run_workload(workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
