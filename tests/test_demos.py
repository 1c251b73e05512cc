"""Every demo script runs to completion, writes nothing to stderr, and
prints the same bytes as when its output was pinned."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_superalgebra_checks":
        "3fc4da096153a10bfdefc8a3d4963754aad96cca9719f884c2b5685bb91ced18",
    "02_dressed_spectra_and_crossings":
        "9b5d150cb0acb2b32dc839a82f60501ba9ca29ac7c16e470ec85177ce9dacba9",
    "03_anisotropic_frame":
        "b84a85dde553042cc336acc3db128c928c7e4984a69b07cce8e7b7e826665dd4",
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
                        cwd=ROOT)
    assert cp.returncode == 0, cp.stderr.decode()
    assert cp.stderr == b""
    assert hashlib.sha256(cp.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
