"""The benchmark runs once per workload, and every output it checks is
correct.

Each run is `python3 bench/run.py --workload W --seed 1 --seconds 0
--trace 0` from the repository root: one cycle of the workload's pool,
untimed.  Its last line of stdout is the JSON result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["solve_pair", "certify", "cli_export"])
def test_benchmark_workload_runs_clean(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
