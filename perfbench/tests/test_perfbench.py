"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from jobs import WORKLOADS, JobRun, workload_jobs  # noqa: E402

SEEDS = range(10)


def references(workload: str) -> dict:
    return json.loads((run.REFERENCES / f"{workload}.json").read_text())


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_gives_same_job_list(workload):
    for seed in SEEDS:
        first = [(r.key, r.args) for r in workload_jobs(workload, seed)]
        again = [(r.key, r.args) for r in workload_jobs(workload, seed)]
        assert first == again
    lists = {tuple(r.key for r in workload_jobs(workload, s)) for s in SEEDS}
    has_bands = any(job.bands for job in WORKLOADS[workload]["jobs"])
    assert len(lists) > 1 or not has_bands


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seeds_keep_recorded_cutoffs_in_band(workload):
    refs = references(workload)
    for seed in SEEDS:
        for job_run in workload_jobs(workload, seed):
            entry = refs[job_run.key]
            assert entry["args"] == job_run.args
            assert entry["cutoffs"] == list(job_run.job.cutoffs), job_run.key


def test_seeds_keep_live_cutoffs_in_band():
    """Re-certify the cheap jobs (cutoffs up to 128) that seeds 0-2 select."""
    import record

    run.WORK.mkdir(exist_ok=True)
    spans_path = run.WORK / "test_spans.json"
    selected = {r.key: r for w in WORKLOADS for s in range(3)
                for r in workload_jobs(w, s)
                if r.job.cutoffs and max(r.job.cutoffs) <= 128}
    assert selected
    for job_run in selected.values():
        proc = run.run_process([sys.executable, str(BENCH / "tracer.py"),
                                str(spans_path), job_run.key, "--",
                                *job_run.args], run.job_env())
        assert proc.exit_code == 0
        spans = json.loads(spans_path.read_text())
        assert record.certified_cutoffs(spans) == list(job_run.job.cutoffs)
    spans_path.unlink()


def _c12_spectrum() -> JobRun:
    job = next(j for j in WORKLOADS["quick_jobs"]["jobs"] if j.name == "c12_spectrum")
    return JobRun(job, 0)


def test_comparator_flags_perturbed_output():
    job_run = _c12_spectrum()
    proc = run.run_process(run.susyjc_cmd(job_run.args), run.job_env())
    ref = references("quick_jobs")[job_run.key]
    meta, rows = check.parse_output("csv", proc.stdout)
    assert check.compare(ref, meta, rows) == []

    nudged = [dict(r) for r in rows]
    nudged[0]["energy"] += 1e-12  # last-digit change: allowed
    assert check.compare(ref, meta, nudged) == []
    nudged[0]["energy"] += 1e-6
    assert check.compare(ref, meta, nudged)
    assert check.compare(ref, meta, rows[:-1])

    checker = check.Checker(references("quick_jobs"),
                            json.loads(run.SCHEMA.read_text()))
    assert checker.check_batch([(job_run, 0, proc.stdout)]) == {job_run.key: []}
    text = proc.stdout.decode()
    value = text.splitlines()[1].split(",")[2]
    perturbed = text.replace(value, repr(float(value) + 1e-6), 1).encode()
    found = checker.check_batch([(job_run, 0, perturbed)])[job_run.key]
    assert any("rerun" in p for p in found)
    assert any("reference" in p for p in found)


def test_closed_form_residual_is_recomputed_from_columns():
    rows = [{"energy": 1.0, "closed_form_energy": 1.0 + 3e-8},
            {"energy": 2.0, "closed_form_energy": ""},
            {"lambda_numeric": 0.5, "lambda_closed": 0.5 + 1e-10}]
    residuals = check.closed_residuals(rows)
    assert residuals == pytest.approx([3e-8, 1e-10])


def test_tracer_survives_missing_function_name():
    script = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import tracer
targets = dict(tracer.TARGETS)
targets["oracle.no_such_function"] = None
targets["no_such_module.fn"] = None
t = tracer.Tracer("job")
import susyjc.cli
t.install(targets)
code = susyjc.cli.main(["spectrum", "--model", "jc", "--lambda", "0:1:3",
                        "--n-max", "8", "--levels", "2"])
print(json.dumps({{"code": code, "absent": t.absent,
                  "names": sorted({{s["name"] for s in t.spans}})}}))
"""
    out = subprocess.run([sys.executable, "-c", script], env=run.job_env(),
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    assert result["absent"] == ["oracle.no_such_function", "no_such_module.fn"]
    assert "oracle.diagonalize" in result["names"]
    assert "hilbert.build_hamiltonian" in result["names"]


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 5.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 7.0},  # another thread
        {"id": 4, "parent": 2, "start": 2.0, "end": 3.0},
    ]
    selfs = layers.self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_import_breakdown_parses_nested_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy.linalg",
        "import time:        70 |        120 |     scipy.optimize",
        "import time:        80 |        500 |   susyjc",
        "import time:        30 |        530 | susyjc.cli",
    ])
    got = layers.import_breakdown(stderr)
    assert got == pytest.approx({"import.numpy_s": 300e-6,
                                 "import.scipy_s": 120e-6,
                                 "import.susyjc_s": 110e-6})
