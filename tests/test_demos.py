"""Every demo script runs to completion, writes nothing to stderr, and
prints the same bytes as when its output was pinned. The demos run with one
BLAS thread: a threaded reduction may end in other last bits, so a pin
recorded at another thread count would hold only on a host with as many
CPUs."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_superalgebra_checks":
        "3fc4da096153a10bfdefc8a3d4963754aad96cca9719f884c2b5685bb91ced18",
    "02_dressed_spectra_and_crossings":
        "9b5d150cb0acb2b32dc839a82f60501ba9ca29ac7c16e470ec85177ce9dacba9",
    "03_anisotropic_frame":
        "edc3a5ef2234d8c1a49fb316e3bfc5d0c8b4f4795229e10f9c5e74f0ed1e61c2",
    "04_factorizable_regime":
        "85823463c9fc3bc3539c321bc71c4cb1ec4d13458cc7b36e18c01e87c5c9112c",
    "05_wigner_functions":
        "3478e1e6a9a1d3f7691ea8023b0e38a75c3212d9de1ccc40a743135f94b5f989",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    cp = subprocess.run([sys.executable, str(demo)], capture_output=True,
                        cwd=ROOT, env={**os.environ, **ONE_THREAD})
    assert cp.returncode == 0, cp.stderr.decode()
    assert cp.stderr == b""
    assert hashlib.sha256(cp.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
