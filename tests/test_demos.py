"""Every demo script runs to completion with a clean stderr.

Each script runs from a copy of demos/ (custom_pressure_law.py writes
its CSV and SVG next to itself), against the package under src/.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_clean(tmp_path, script):
    shutil.copytree(DEMOS, tmp_path / "demos")
    done = subprocess.run(
        [sys.executable, str(tmp_path / "demos" / script)], cwd=tmp_path,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(DEMOS.parent / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
