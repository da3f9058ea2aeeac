"""The benchmark at tiny scale: every workload runs and passes its checks,
so a change in src/ that breaks a check fails here first.  Its `record`
lines, and a default `train-svm --pso` model, must match the bytes pinned
in pinned_bytes.json, which were taken under the NumPy version and BLAS
named there."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "tests" / "pinned_bytes.json").read_text())


def _fingerprint_note(numpy_version, blas):
    """'' when the pins were taken under this NumPy and BLAS, else a note
    that says they were not."""
    if (numpy_version, blas) == (PINS["numpy"], PINS["blas"]):
        return ""
    return (f"the pins were taken under NumPy {PINS['numpy']} with {PINS['blas']}, "
            f"this run has NumPy {numpy_version} with {blas}; ")


def _changed_fields(pinned, got):
    """The fields of a record that differ from the pinned one, a dict field
    (sha256, quality) named entry by entry: `sha256.<artifact>`."""
    changed = []
    for field in sorted(set(pinned) | set(got)):
        a, b = pinned.get(field), got.get(field)
        if isinstance(a, dict) and isinstance(b, dict):
            changed += [f"{field}.{key}" for key in sorted(set(a) | set(b))
                        if a.get(key) != b.get(key)]
        elif a != b:
            changed.append(field)
    return changed


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
    # the determinism records, field by field, at the default --seed 1
    notes = {_fingerprint_note(env["numpy"], env["blas"])
             for env in (json.loads(line[len("env "):]) for line in lines
                         if line.startswith("env "))}
    records = {r["workload"]: r for r in (json.loads(line[len("record "):])
                                          for line in lines if line.startswith("record "))}
    changed = {name: _changed_fields(pinned, records.get(name, {}))
               for name, pinned in PINS["records"].items()}
    changed = {name: fields for name, fields in changed.items() if fields}
    assert notes == {""} and not changed, f"{''.join(notes)}changed: {changed}"


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # NumPy before 1.25 has no dict mode
        return "unknown"


def test_default_pso_model_is_pinned(tmp_path):
    # default train-svm --pso on the 17 training rows (3 classes) of a small
    # trio pipeline, with one BLAS thread as in the bench
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    run = tmp_path / "run"
    model = tmp_path / "model.json"
    for argv in (["pipeline", "--synthetic", "8", "--trio", "--seed", "1", "--k", "80",
                  "--out-dir", str(run)],
                 ["train-svm", "--pso", "--features", str(run / "features_train.csv"),
                  "--out", str(model)]):
        proc = subprocess.run([sys.executable, "-m", "ecgsparse.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    got = hashlib.sha256(model.read_bytes()).hexdigest()
    note = _fingerprint_note(np.__version__, _blas())
    assert not note and got == PINS["pso_model_sha256"], f"{note}model.json sha256 {got}"
