"""The scripts run from a checkout with no PYTHONPATH and no install."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_paper_examples.py", []),
        ("stress_random.py", ["--count", "20", "--oracle-checks", "2"]),
    ],
)
def test_script_runs_without_pythonpath(script, args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=env, cwd=REPO / "scripts",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
