"""The benchmark at tiny scale: every workload runs and passes its checks,
so a change in src/ that breaks a check fails here first."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tiny_scale_passes_every_check(tmp_path):
    # run.py runs from a directory holding src/ and writes perfbench-out/
    # there: a temporary one keeps the tree clean
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--scale", "tiny", "--seconds", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if "FAIL" in line], proc.stdout
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, result
