"""The demo scripts run to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(prefix):
    script, = (ROOT / "demos").glob(f"{prefix}_*.py")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("prefix", ["01", "02", "04"])
def test_demo_runs(prefix):
    done = run_demo(prefix)
    assert done.returncode == 0, done.stderr
    if prefix == "04":   # full-batch exact and proximal fits, traced
        assert "monotone: True" in done.stdout


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("RUN_SLOW"),
                    reason="long-running; set RUN_SLOW=1 to enable")
def test_supervision_demo_runs():
    done = run_demo("03")
    assert done.returncode == 0, done.stderr
