"""Raw ECG ingestion: WFDB format-212 records, annotation CSVs, beat segmentation.

The pipeline here is record -> annotated R positions -> fixed windows around
each R sample -> linear resample to 300 points -> z-score normalization.
A pre-segmented 301-column CSV (label, v1..v300) is supported as a fallback
input so the toolkit runs without the original MIT-BIH files.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadConfigError, ParseError, TooShortError, TruncatedInputError

BEAT_LENGTH = 300

# Beat classes used throughout; anything else is folded into "Other".
TARGET_LABELS = ("N", "/", "A", "V", "R", "L")
OTHER_LABEL = "Other"
LABEL_CODES = {"N": 0, "/": 1, "A": 2, "V": 3, "R": 4, "L": 5, OTHER_LABEL: 6}
CODE_LABELS = {v: k for k, v in LABEL_CODES.items()}


@dataclass
class EcgRecord:
    record_id: str
    sampling_rate: float
    channels: list
    samples_per_channel: int


@dataclass(frozen=True)
class BeatAnnotation:
    sample_index: int
    label: str


@dataclass
class Beat:
    """One segmented, resampled, normalized heartbeat."""

    values: np.ndarray
    label: str
    source: tuple = ("", 0)


# ---------------------------------------------------------------------------
# WFDB format 212


def decode_212(data, sample_count):
    """Unpack WFDB format-212 bytes into two channel sample lists.

    Each 3-byte group holds two signed 12-bit samples:
    s1 = (low nibble of byte1)<<8 | byte0, s2 = (high nibble of byte1)<<8 | byte2.
    Samples alternate channels; sample_count is the total (both channels).
    """
    pairs = (sample_count + 1) // 2
    need = pairs * 3
    if len(data) < need:
        raise TruncatedInputError(
            f"need {need} bytes for {sample_count} samples, got {len(data)}")
    raw = np.frombuffer(bytes(data[:need]), dtype=np.uint8).reshape(-1, 3).astype(np.int64)
    s1 = ((raw[:, 1] & 0x0F) << 8) | raw[:, 0]
    s2 = ((raw[:, 1] & 0xF0) << 4) | raw[:, 2]
    flat = np.empty(2 * pairs, dtype=np.int64)
    flat[0::2] = s1
    flat[1::2] = s2
    flat = np.where(flat >= 2048, flat - 4096, flat)[:sample_count]
    return flat[0::2].copy(), flat[1::2].copy()


def encode_212(ch0, ch1):
    """Inverse of decode_212 for full 3-byte groups (equal channel lengths)."""
    flat = np.empty(len(ch0) + len(ch1), dtype=np.int64)
    flat[0::2] = ch0
    flat[1::2] = ch1
    if len(flat) % 2:
        flat = np.append(flat, 0)
    u = np.where(flat < 0, flat + 4096, flat).astype(np.uint16)
    s1, s2 = u[0::2], u[1::2]
    out = np.empty((len(s1), 3), dtype=np.uint8)
    out[:, 0] = s1 & 0xFF
    out[:, 1] = ((s1 >> 8) & 0x0F) | (((s2 >> 8) & 0x0F) << 4)
    out[:, 2] = s2 & 0xFF
    return out.tobytes()


def read_header(text):
    """Parse the plain-text .hea format.

    Returns (record_id, n_signals, sampling_rate, samples_per_channel,
    dat_file_name).  The signal lines' ADC gain is not read: beats are
    z-scored, so it cancels out.
    """
    lines = [ln.strip() for ln in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty header")
    head = lines[0].split()
    if len(head) < 4:
        raise ParseError(f"header line needs 4 fields, got {len(head)}", line_no=1)
    try:
        record_id = head[0]
        n_sig = int(head[1])
        fs = float(head[2].split("/")[0])
        n_samp = int(head[3])
    except ValueError as e:
        raise ParseError(f"bad header field: {e}", line_no=1)
    if not 0 < fs < np.inf or n_sig < 1 or n_samp < 0:  # NaN fails too
        raise ParseError("header values out of range", line_no=1)
    dat_name = None
    if len(lines) > 1:
        sig = lines[1].split()
        if len(sig) >= 2 and sig[1].split("+")[0] != "212":
            raise ParseError(f"unsupported signal format {sig[1]!r}", line_no=2)
        dat_name = sig[0]
    return record_id, n_sig, fs, n_samp, dat_name


def read_wfdb(header_path):
    """Load a WFDB record (format 212) given the path to its .hea file."""
    header_path = Path(header_path)
    record_id, n_sig, fs, n_samp, dat_name = read_header(header_path.read_text())
    if n_sig not in (1, 2):
        raise ParseError(f"expected 1 or 2 signals, header declares {n_sig}")
    dat_path = header_path.with_name(dat_name) if dat_name \
        else header_path.with_suffix(".dat")
    data = dat_path.read_bytes()
    total = n_samp * n_sig
    ch0, ch1 = decode_212(data, total)
    if n_sig == 1:
        flat = np.empty(total, dtype=np.int64)
        flat[0::2] = ch0
        flat[1::2] = ch1
        channels = [flat]
    else:
        channels = [ch0, ch1]
    return EcgRecord(record_id=record_id, sampling_rate=fs, channels=channels,
                     samples_per_channel=n_samp)


# ---------------------------------------------------------------------------
# annotations


def read_annotations(lines):
    """Parse an iterable of `sample_index,label` lines, such as an open
    text file, into sorted BeatAnnotations.

    '#' comments and blank lines are skipped; labels outside the six target
    classes map to Other.  Raises ParseError (with line number) on garbage.
    """
    out = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not parts[1]:
            raise ParseError(f"expected 'sample_index,label', got {line!r}", line_no=i)
        try:
            idx = int(parts[0])
        except ValueError:
            raise ParseError(f"bad sample index {parts[0]!r}", line_no=i)
        if idx < 0:
            raise ParseError(f"negative sample index {idx}", line_no=i)
        label = parts[1] if parts[1] in TARGET_LABELS else OTHER_LABEL
        out.append(BeatAnnotation(sample_index=idx, label=label))
    out.sort(key=lambda a: a.sample_index)
    return out


# ---------------------------------------------------------------------------
# segmentation and beat construction


def segment_beats(record, annotations, pre_s=0.25, post_s=0.45, channel=0):
    """Cut a fixed window around each annotated target-class R sample.

    Returns (segments, skipped) where segments is a list of
    (raw_values, label, sample_index) and skipped counts annotations whose
    window falls outside the record.
    """
    fs = record.sampling_rate
    # in samples, so that a huge value that overflows to inf is refused too
    if not (0 < pre_s * fs < np.inf and 0 < post_s * fs < np.inf):  # NaN fails too
        raise TooShortError("pre_s and post_s must be positive and finite")
    if not 0 <= channel < len(record.channels):
        raise BadConfigError(
            f"channel {channel} outside [0, {len(record.channels)}) of the record")
    sig = np.asarray(record.channels[channel], dtype=float)
    n = len(sig)
    pre = int(round(pre_s * fs))
    post = int(round(post_s * fs))
    segments = []
    skipped = 0
    for ann in annotations:
        if ann.label not in TARGET_LABELS:
            continue
        lo, hi = ann.sample_index - pre, ann.sample_index + post
        if lo < 0 or hi > n:
            skipped += 1
            continue
        segments.append((sig[lo:hi].copy(), ann.label, ann.sample_index))
    return segments, skipped


def resample_to_300(raw):
    """Linear interpolation onto 300 equally spaced points over [0, len-1]."""
    raw = np.asarray(raw, dtype=float)
    if len(raw) < 2:
        raise TooShortError(f"need at least 2 samples to resample, got {len(raw)}")
    grid = np.linspace(0.0, len(raw) - 1.0, BEAT_LENGTH)
    return np.interp(grid, np.arange(len(raw)), raw)


def normalize_beat(b):
    """Z-score normalize (population std); constant input maps to zeros."""
    b = np.asarray(b, dtype=float)
    mu = b.mean()
    sd = b.std()
    if sd == 0.0:
        return np.zeros_like(b)
    return (b - mu) / sd


def process_record(record, annotations, pre_s=0.25, post_s=0.45, channel=0):
    """Full ingest of one record: segment, resample, normalize.

    Returns (beats, skipped).
    """
    segments, skipped = segment_beats(record, annotations, pre_s, post_s, channel)
    beats = [
        Beat(values=normalize_beat(resample_to_300(seg)), label=label,
             source=(record.record_id, idx))
        for seg, label, idx in segments
    ]
    return beats, skipped


# ---------------------------------------------------------------------------
# pre-segmented fallback CSV (label, v1..v300)


def read_beats_csv(lines, source_id="csv"):
    """Beats from an iterable of `label,v1..v300` lines, such as an open
    text file, each z-scored; '#' comments and blank lines are skipped."""
    beats = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != BEAT_LENGTH + 1:
            raise ParseError(
                f"expected {BEAT_LENGTH + 1} columns, got {len(parts)}", line_no=i)
        label = parts[0].strip()
        if label not in TARGET_LABELS:
            label = OTHER_LABEL
        try:
            vals = np.array([float(v) for v in parts[1:]])
        except ValueError as e:
            raise ParseError(f"bad value: {e}", line_no=i)
        if not np.isfinite(vals).all():
            raise ParseError("non-finite value", line_no=i)
        beats.append(Beat(values=normalize_beat(vals), label=label,
                          source=(source_id, i)))
    return beats


def format_beats_csv(beats):
    rows = []
    for b in beats:
        rows.append(",".join([b.label] + [f"{v:.9g}" for v in b.values]))
    return "\n".join(rows) + ("\n" if rows else "")
