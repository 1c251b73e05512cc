"""The benchmark's jobs, run in-process and checked against its references.

Every job variant of spectra_auto, crossing_scan and quick_jobs, and one
seed's batch of phase_space, runs through ``cli.main`` in this process.
perfbench's own ``Checker`` then checks each output against
``perfbench/reference/<workload>.json``: its schema, the recorded numbers,
the closed-form residuals and, for phase_space, the numeric grids against
their closed twins. The exit code must be the job's ``expect_exit``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from susyjc import cli

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SCHEMA = ROOT / "src" / "susyjc" / "schemas" / "output.schema.json"
PHASE_SPACE_SEED = 777


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


check = _load("check")
jobs = _load("jobs")


def _runs(workload: str) -> list:
    if workload == "phase_space":
        return jobs.workload_jobs(workload, PHASE_SPACE_SEED)
    return [jobs.JobRun(job, v) for job in jobs.WORKLOADS[workload]["jobs"]
            for v in range(jobs.VARIANTS if job.bands else 1)]


@pytest.mark.parametrize("workload", ["spectra_auto", "crossing_scan",
                                      "quick_jobs", "phase_space"])
def test_jobs_match_the_benchmark_references(workload, capsysbinary):
    checker = check.Checker(
        json.loads((BENCH / "reference" / f"{workload}.json").read_text()),
        json.loads(SCHEMA.read_text()))
    results = []
    for run in _runs(workload):
        code = cli.main(run.args)
        results.append((run, code, capsysbinary.readouterr().out))
    problems = checker.check_batch(results)
    for run, code, _ in results:
        assert (code, problems[run.key]) == (run.job.expect_exit, []), run.args
