"""Workloads of the susyjc benchmark: CLI job lists generated from a seed.

Each job is one ``python -m susyjc ...`` process. The seed jitters coupling
values inside bands. Every band was chosen so that the job's certified
cutoffs (its work) stay the same at every value in it, so a seed changes the
numbers but not how much work a job does. A band is sampled at VARIANTS
evenly spaced values, both ends included; outputs for every variant were
recorded at the reference commit (see ``record.py``), so any seed can be
checked against a reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VARIANTS = 4


@dataclass(frozen=True)
class Job:
    """One CLI job template.

    ``template`` holds ``{name}`` placeholders filled from ``bands``.
    ``cutoffs`` is the sorted list of certified n_max values the job reaches
    (one per certify call) at every value in its bands. ``follows`` names a
    job of the same workload whose variant this one shares, so a closed-form
    grid is drawn at the couplings of its numeric twin; ``stride`` is the
    grid step of this job that lands on the twin's points.
    """

    name: str
    template: tuple[str, ...]
    bands: dict = field(default_factory=dict)
    cutoffs: tuple[int, ...] = ()
    expect_exit: int = 0
    follows: str | None = None
    stride: int = 1
    # output fields left out of the reference comparison
    ignore: tuple[str, ...] = ()

    @property
    def fmt(self) -> str:
        if "--help" in self.template:
            return "text"
        return "json" if "json" in self.template else "csv"

    def args(self, variant: int) -> list[str]:
        values = {}
        for key, (lo, hi) in self.bands.items():
            x = lo + (hi - lo) * variant / (VARIANTS - 1)
            values[key] = f"{x:.6g}"
        return [part.format(**values) for part in self.template]


@dataclass(frozen=True)
class JobRun:
    job: Job
    variant: int

    @property
    def key(self) -> str:
        return f"{self.job.name}@{self.variant}"

    @property
    def args(self) -> list[str]:
        return self.job.args(self.variant)


def _job(name, args, bands=None, cutoffs=(), **kw) -> Job:
    return Job(name, tuple(args.split()), bands or {}, tuple(cutoffs), **kw)


WORKLOADS: dict[str, dict] = {
    "spectra_auto": {
        "why": "few large certified solves (cutoffs 64 to 1024) that return "
               "eigenvalues only: dense eigh and np.kron builds dominate",
        "jobs": [
            _job("jc_1024", "spectrum --model jc --omega 0.03 --lambda {l} --auto",
                 {"l": (0.97, 1.03)}, [1024]),
            _job("far_sweep", "spectrum --model far --alphaR {a}:{b}:2 --auto",
                 {"a": (4.1, 4.3), "b": (5.5, 5.7)}, [256, 512]),
            _job("ar_256", "spectrum --model ar --omega 0.12 --lambda {a}:{b}:2 "
                           "--mu 0.3 --auto",
                 {"a": (0.82, 0.88), "b": (1.42, 1.48)}, [256] * 2),
            _job("ajc_64", "spectrum --model ajc --mu {a}:{b}:8 --auto --format json",
                 {"a": (0.48, 0.52), "b": (1.95, 2.05)}, [64] * 8),
            _job("far_report", "far --alpha0 0.01 --alphaQ 1.0 --alphaR {a} "
                               "--format json",
                 {"a": (2.7, 2.9)}, [128]),
        ],
    },
    "crossing_scan": {
        "why": "many moderate solves with eigenvectors inside find_crossings, "
               "the oracle layer used unlike spectra_auto",
        "jobs": [
            _job("jc_40", "crossings --model jc --lambda {a}:{b}:40 --auto "
                          "--format json",
                 {"a": (0.45, 0.55), "b": (2.9, 3.1)}, [64]),
            _job("ar_40", "crossings --model ar --omega 0.1 --lambda {a}:{b}:40 "
                          "--mu 0.02 --auto",
                 {"a": (0.045, 0.055), "b": (0.49, 0.51)}, [64]),
            _job("far_12", "crossings --model far --alphaR {a}:{b}:12 --n-max 220",
                 {"a": (1.2, 1.3), "b": (4.95, 5.05)}),
        ],
    },
    "phase_space": {
        "why": "Wigner grids and CSV/JSON row formatting; no Hamiltonian is "
               "diagonalized, so an oracle change should not move it",
        "jobs": [
            _job("numeric_plus3", "wigner --source numeric --label plus:3 "
                                  "--lambda {l} --points 41 --auto",
                 {"l": (0.9, 1.1)}),
            _job("closed_plus3_csv", "wigner --label plus:3 --lambda {l} "
                                     "--points 401",
                 {"l": (0.9, 1.1)}, follows="numeric_plus3", stride=10),
            _job("numeric_minus2", "wigner --source numeric --label minus:2 "
                                   "--omega 0.9 --lambda {l} --points 51 --auto "
                                   "--format json",
                 {"l": (0.9, 1.1)}),
            _job("closed_minus2_json", "wigner --label minus:2 --omega 0.9 "
                                       "--lambda {l} --points 201 --format json",
                 {"l": (0.9, 1.1)}, follows="numeric_minus2", stride=4),
        ],
    },
    "quick_jobs": {
        "why": "sub-second jobs where interpreter start, imports and the "
               "algebra checks dominate",
        "jobs": [
            _job("help", "--help"),
            _job("c12_spectrum", "spectrum --model jc --lambda 0:{b}:9 --levels 4 "
                                 "--n-max 40",
                 {"b": (1.9, 2.1)}),
            _job("c12_crossings", "crossings --model jc --lambda {a}:{b}:16 "
                                  "--n-max 40",
                 {"a": (0.45, 0.55), "b": (1.45, 1.55)}),
            _job("c12_wigner", "wigner --label minus:1 --lambda {l} --window 2 "
                               "--points 21",
                 {"l": (0.9, 1.1)}),
            _job("c12_verify", "verify --n-max 16"),
            _job("c12_far", "far --alpha0 0.01 --alphaQ 1.0 --alphaR {a} "
                            "--n-max 60 --format json",
                 {"a": (0.45, 0.55)}),
            _job("ar_json", "spectrum --model ar --lambda {a}:{b}:5 --mu 0.1 "
                            "--format json",
                 {"a": (0.18, 0.22), "b": (0.58, 0.62)}, [64] * 5),
            _job("verify_64", "verify --n-max 64"),
            # a correct build passes verification; this exits 4 until verify
            # becomes scale-aware, and it counts as a failure until then. Its
            # pass flags are that same defect, so they are not compared.
            _job("verify_256", "verify --n-max 256", ignore=("passed",)),
        ],
    },
}


def workload_jobs(workload: str, seed: int) -> list[JobRun]:
    """The job list of one batch: the same seed gives the same list."""
    jobs = WORKLOADS[workload]["jobs"]
    rng = random.Random(f"{workload}/{seed}")
    variants = {}
    for job in jobs:
        if job.follows is not None:
            variants[job.name] = variants[job.follows]
        elif job.bands:
            variants[job.name] = rng.randrange(VARIANTS)
        else:
            variants[job.name] = 0
    return [JobRun(job, variants[job.name]) for job in jobs]
