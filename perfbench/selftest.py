"""Self-test of the benchmark's checks at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root.  Runs every workload at the "tiny" scale
through run.py and requires every check to pass, then copies the outputs,
breaks one artifact per case (a perturbed coefficient, one flipped SBC1
byte, a flipped dual-coefficient sign, a swapped label) and requires the
named check to fail on the copy.  Exits 0 when every case behaves.
"""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker                    # noqa: E402  (puts src/ on the path)
import checks                    # noqa: E402
from run import OUT_DIR          # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import numpy as np               # noqa: E402

SEED = 1


def record_offsets(blob):
    """(header offset, first triplet offset, nnz) for every SBC1 record."""
    _, count = struct.unpack_from("<II", blob, 4)
    pos, out = 12, []
    for _ in range(count):
        nnz = struct.unpack_from("<I", blob, pos + 5)[0]
        out.append((pos, pos + 9, nnz))
        pos += 9 + 12 * nnz
    return out


def edit_bytes(path, fn):
    blob = bytearray(path.read_bytes())
    fn(blob)
    path.write_bytes(bytes(blob))


def flip_nnz_byte(path):
    """One flipped byte: the low byte of the first record's nnz field."""
    def fn(blob):
        blob[12 + 5] ^= 0x01
    edit_bytes(path, fn)


def flip_value_byte(path):
    """One flipped byte: the sign byte of the first stored coefficient."""
    def fn(blob):
        _, first, _ = record_offsets(blob)[0]
        blob[first + 11] ^= 0x80
    edit_bytes(path, fn)


def perturb_coefficient(path):
    """The first stored coefficient scaled by 1.001."""
    def fn(blob):
        _, first, _ = record_offsets(blob)[0]
        v = struct.unpack_from("<f", blob, first + 8)[0]
        struct.pack_into("<f", blob, first + 8, v * 1.001)
    edit_bytes(path, fn)


def scale_atom(path):
    """The first dictionary atom scaled by 1.01, out of the unit ball."""
    def fn(blob):
        d, _ = struct.unpack_from("<II", blob, 4)
        atom = np.frombuffer(bytes(blob[12:12 + 8 * d]), dtype="<f8")
        blob[12:12 + 8 * d] = (atom * 1.01 / np.linalg.norm(atom)).astype("<f8").tobytes()
    edit_bytes(path, fn)


def flip_dual_sign(path):
    model = json.loads(path.read_text())
    model["pairs"][0]["dual_coef"][0] *= -1.0
    path.write_text(json.dumps(model))


def swap_feature_label(path):
    """The first training row relabelled with the class of the last row."""
    lines = path.read_text().splitlines()
    first, last = lines[0].split(",", 1), lines[-1].split(",", 1)
    if first[0] == last[0]:
        raise ValueError("first and last training rows share a label")
    lines[0] = last[0] + "," + first[1]
    path.write_text("\n".join(lines) + "\n")


def swap_confusion_label(path):
    """One correctly classified beat moved to another predicted class."""
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1], cells[2] = str(int(cells[1]) - 1), str(int(cells[2]) + 1)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def swap_test_labels(path):
    """Every test beat of class A labelled V and the other way round."""
    a, v = 2, 3  # SBC1 label codes

    def fn(blob):
        for header, _, _ in record_offsets(blob):
            label = blob[header + 4]
            blob[header + 4] = {a: v, v: a}.get(label, label)
    edit_bytes(path, fn)


# (workload, check that must fail, what is broken, file, edit, rerun the round)
CASES = [
    ("archive", "lasso_optimality", "perturbed code coefficient",
     "codes.sbc", perturb_coefficient, False),
    ("archive", "sbc1_size", "flipped SBC1 byte", "codes.sbc", flip_nnz_byte, False),
    ("archive", "err_matches_eq9", "flipped SBC1 byte", "codes.sbc", flip_value_byte, False),
    ("pipeline", "artifacts_parse", "flipped SBC1 byte",
     "run/codes_test.sbc", flip_nnz_byte, False),
    ("pipeline", "unit_ball", "perturbed dictionary coefficient",
     "run/dict.sbd", scale_atom, False),
    ("pipeline", "accuracy_is_confusion_diagonal", "beat with a swapped label",
     "run/confusion.csv", swap_confusion_label, False),
    ("pipeline", "svm_kkt", "dual coefficient with its sign flipped",
     "run/model.json", flip_dual_sign, False),
    ("pipeline", "svm_kkt", "training beat with a swapped label",
     "run/features_train.csv", swap_feature_label, False),
    ("pipeline", "err_matches_eq9", "flipped SBC1 byte",
     "run/codes_test.sbc", flip_value_byte, False),
    ("model-select", "svm_kkt", "dual coefficient with its sign flipped",
     "model.json", flip_dual_sign, False),
    ("model-select", "pyramid_beats_bow", "test beats with swapped labels",
     "codes_test.sbc", swap_test_labels, True),
]


def run_tiny(root, name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
         "--seconds", "0", "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    base = root / OUT_DIR / f"{name}-{SEED}"
    last = max(base.glob("rep*.json"), key=lambda p: int(p.stem[3:]))
    return result, base / last.stem, json.loads(last.read_text())["summaries"]


def main():
    root = Path.cwd()
    if not (root / "src" / "ecgsparse" / "cli.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    failures = 0
    runs = {}
    for name in WORKLOADS:
        result, d, summaries = run_tiny(root, name)
        ok = result["correct"] and result["failed"] == 0
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: tiny run, every check passes")
        runs[name] = (d, summaries)

    for i, (name, check, what, rel, edit, rerun) in enumerate(CASES):
        d, summaries = runs[name]
        broken = d.parent / f"broken{i}"
        shutil.rmtree(broken, ignore_errors=True)
        shutil.copytree(d, broken)
        edit(broken / rel)
        workload = WORKLOADS[name]("tiny", SEED)
        if rerun:
            summaries = [worker.run_cli(argv) for argv in workload.round(broken)]
        results, _, _ = workload.check(broken, summaries, worker.run_cli)
        ok = check in results and not results[check][0]
        failures += not ok
        detail = results.get(check, (None, "check did not run"))[1]
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {what} in {rel} -> {check} fails ({detail})")

    # the uncoded-window property, fed one window scaled by 1.001 (some
    # single coefficients are redundant and leave the beat unchanged)
    _, values = checks.read_beats(runs["archive"][0] / "beats.csv")
    windows = checks.window_columns(values)
    windows[0][:, 0] *= 1.001
    ok, detail = checks.check_uncoded_reconstruction(values, windows)
    failures += ok
    print(f"{'FAIL' if ok else 'ok  '} archive: perturbed uncoded window -> "
          f"uncoded_reconstruction fails ({detail})")
    print("selftest " + ("passed" if not failures else f"FAILED ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
