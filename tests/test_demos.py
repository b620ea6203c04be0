"""The demo scripts and the README's library quick start run to
completion against the package in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    # under the warning policy pyproject.toml sets for the in-process tests
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-W", "error::DeprecationWarning", *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=600)


def run_demo(prefix):
    script, = (ROOT / "demos").glob(f"{prefix}_*.py")
    return run_python(str(script))


@pytest.mark.parametrize("prefix", ["01", "02", "04"])
def test_demo_runs(prefix):
    done = run_demo(prefix)
    assert done.returncode == 0, done.stderr
    if prefix == "04":   # full-batch exact and proximal fits, traced
        assert "monotone: True" in done.stdout


def test_readme_quick_start_prints_its_documented_amari():
    # the number is read from the block's own comment, so the two agree
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    documented = re.search(r"amari\)\s+# (\d+\.(\d+))", block)
    done = run_python("-c", block)
    assert done.returncode == 0, done.stderr
    printed = float(done.stdout)
    assert f"{printed:.{len(documented[2])}f}" == documented[1], printed


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("RUN_SLOW"),
                    reason="long-running; set RUN_SLOW=1 to enable")
def test_supervision_demo_runs():
    done = run_demo("03")
    assert done.returncode == 0, done.stderr
