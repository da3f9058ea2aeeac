#!/usr/bin/env python3
"""Build a format-212 record on disk, then ingest it like a real one.

Useful as a template for pointing the toolkit at actual two-channel
records: the same reader handles any <name>.hea/<name>.dat pair plus a
`sample,symbol` annotation CSV.
"""

import tempfile
from pathlib import Path

import numpy as np

from ecgsparse.ingest import (
    decode_212,
    encode_212,
    process_record,
    read_annotations,
    read_wfdb,
)

FS = 360  # Hz

# --- synthesize a 20-second, two-channel recording --------------------------
rng = np.random.default_rng(4)
n = 20 * FS
t = np.arange(n) / FS
r_peaks = np.arange(FS, n - FS, int(0.8 * FS))  # one beat every 0.8 s

signal = 40.0 * np.sin(2 * np.pi * 0.3 * t)  # baseline wander
for r in r_peaks:
    signal += 900.0 * np.exp(-0.5 * ((np.arange(n) - r) / 9.0) ** 2)
signal += rng.normal(0.0, 8.0, n)
ch0 = np.clip(np.round(signal), -2048, 2047).astype(int)
ch1 = np.clip(np.round(0.6 * signal), -2048, 2047).astype(int)

# every 3 bytes hold two 12-bit samples; the packing is its own inverse
blob = encode_212(ch0.tolist(), ch1.tolist())
back0, back1 = decode_212(blob, 2 * n)
assert list(back0) == ch0.tolist() and list(back1) == ch1.tolist()
print(f"packed {2 * n} samples into {len(blob)} bytes "
      f"({len(blob) / (2 * n):.1f} bytes/sample), decode verified")

# --- write .dat/.hea/annotations and read them back --------------------------
labels = ["N", "N", "V", "N", "A", "N", "L", "N", "R", "N",
          "N", "V", "N", "/", "N", "N", "N", "Q", "N", "N"]
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    (root / "demo.dat").write_bytes(blob)
    (root / "demo.hea").write_text(
        f"demo 2 {FS} {n}\n"
        "demo.dat 212 200 11 1024 0 0 0 MLII\n"
        "demo.dat 212 200 11 1024 0 0 0 V5\n")
    ann_lines = "".join(f"{r},{lab}\n"
                        for r, lab in zip(r_peaks, labels))
    (root / "demo.csv").write_text(ann_lines)

    record = read_wfdb(root / "demo.hea")
    annotations = read_annotations((root / "demo.csv").read_text().splitlines())
    beats, skipped = process_record(record, annotations)

print(f"record {record.record_id}: {record.samples_per_channel} "
      f"samples/channel at {record.sampling_rate:.0f} Hz")
print(f"{len(annotations)} annotations -> {len(beats)} beats "
      f"({skipped} skipped near the edges)")

# each beat is 300 samples, zero mean, unit variance
v = np.vstack([b.values for b in beats])
print(f"beat matrix {v.shape}, mean {v.mean():+.2e}, "
      f"per-beat std range [{v.std(axis=1).min():.3f}, "
      f"{v.std(axis=1).max():.3f}]")

counts = {}
for b in beats:
    counts[b.label] = counts.get(b.label, 0) + 1
print("label counts:", dict(sorted(counts.items())))
