"""One short run of every benchmark workload, on its shrunken inputs.

Runs ``bench/run.py`` as it is, from the repository root, and reads the
result from the last line of its output.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sample-sparse", "sample-mixing", "decompose",
                                      "verify-exact"])
def test_bench_workload_smoke(workload):
    got = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, got.stdout
