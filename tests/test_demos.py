"""Every demo script runs to completion and writes nothing to stderr."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    cp = subprocess.run([sys.executable, str(demo)], capture_output=True,
                        cwd=ROOT)
    assert cp.returncode == 0, cp.stderr.decode()
    assert cp.stderr == b""
