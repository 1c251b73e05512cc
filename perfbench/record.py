"""Record the reference outputs the benchmark checks jobs against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every variant of every job once under the tracer, stores its exit code,
row count, non-row JSON fields and a sample of rows in
``reference/<workload>.json``, and checks that each variant reaches the
certified cutoffs its job declares. Run it only at a commit whose outputs
are trusted; later commits are checked against what it wrote.
"""

from __future__ import annotations

import json
import sys

from check import reference_entry
from jobs import VARIANTS, WORKLOADS, JobRun
from run import BENCH, REFERENCES, WORK, job_env, run_process


def certified_cutoffs(spans: dict) -> list[int]:
    return sorted(s["counts"]["n_max_used"] for s in spans["spans"]
                  if s["name"] == "oracle.certify_truncation")


def record(workload: str) -> bool:
    env = job_env()
    entries, ok = {}, True
    for job in WORKLOADS[workload]["jobs"]:
        for variant in range(VARIANTS if job.bands else 1):
            run = JobRun(job, variant)
            spans_path = WORK / "record_spans.json"
            proc = run_process([sys.executable, str(BENCH / "tracer.py"),
                                str(spans_path), run.key, "--", *run.args], env)
            cutoffs = certified_cutoffs(json.loads(spans_path.read_text()))
            spans_path.unlink()
            entry = reference_entry(run, proc.exit_code, job.fmt, proc.stdout)
            entry["cutoffs"] = cutoffs
            entries[run.key] = entry
            note = ""
            if cutoffs != list(job.cutoffs):
                ok, note = False, f"  CUTOFFS DIFFER from declared {list(job.cutoffs)}"
            print(f"{workload} {run.key}: exit {proc.exit_code}, "
                  f"{entry['nrows']} rows, {proc.wall_s:.2f} s, "
                  f"cutoffs {cutoffs}{note}", flush=True)
    REFERENCES.mkdir(exist_ok=True)
    path = REFERENCES / f"{workload}.json"
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return ok


def main(argv: list[str]) -> int:
    WORK.mkdir(exist_ok=True)
    results = [record(w) for w in (argv or sorted(WORKLOADS))]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
