"""The quick demos run to completion, so a change that breaks one fails here.

Demos 01, 02 and 05 take a few seconds together.  Demos 03 and 04 train
full pipelines (about 20 s each) and are run by hand:
``PYTHONPATH=src python demos/03_synthetic_end_to_end.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_autodiff_tape", "02_routing_walkthrough",
                                  "05_text_pipeline"])
def test_demo_runs_cleanly(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
