"""Every demo runs to completion, so a change that breaks one fails here.

Demos 01, 02 and 05 take a few seconds together; demos 03 and 04 train
full pipelines and take about 10 s each on a 2-CPU machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(
    p.stem for p in (ROOT / "demos").glob("[0-9]*.py")))
def test_demo_runs_cleanly(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
