"""Tests run the package from this checkout's src/ with no install step.

pytest puts src/ on sys.path (``pythonpath`` in pyproject.toml); this puts
it on the PYTHONPATH that the tests' child processes (``python -m susyjc``,
the demos) inherit.
"""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in {Path(p).resolve() for p in _paths}:
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *_paths])
