"""The demo scripts run to the end.

pyramid_vs_bow.py is left out: acceptance 5 runs the same chain at a larger
size.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMO_SECONDS = 120


@pytest.mark.parametrize("script", ["compression_benchmark.py", "denoise_walkthrough.py",
                                    "wfdb_roundtrip.py"])
def test_demo_runs(script):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=DEMO_SECONDS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stderr
