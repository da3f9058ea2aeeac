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
# text inputs: one rule each for data lines, labels and values


def data_lines(lines):
    """(line number, stripped line) of each line that is neither blank nor a
    '#' comment; every line counts, so a number names a line of the file."""
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield i, line


def fold_label(label):
    """label if it is one of the six target classes, else Other."""
    return label if label in TARGET_LABELS else OTHER_LABEL


def float_fields(fields, line_no):
    """The text fields as a float array, refused unless each is a finite number."""
    try:
        vals = np.array([float(v) for v in fields])
    except ValueError as e:
        raise ParseError(f"bad value: {e}", line_no=line_no)
    if not np.isfinite(vals).all():
        raise ParseError("non-finite value", line_no=line_no)
    return vals


# ---------------------------------------------------------------------------
# WFDB format 212


def decode_212(data, count):
    """Unpack count samples of WFDB format-212 bytes, in file order.

    Each 3-byte group holds two signed 12-bit samples:
    s1 = (low nibble of byte1)<<8 | byte0, s2 = (high nibble of byte1)<<8 | byte2.
    A record's channels alternate sample by sample, so channel c of n is
    samples[c::n]; an odd count leaves the last group's second sample unread.
    """
    need = (count + 1) // 2 * 3
    if len(data) < need:
        raise TruncatedInputError(f"need {need} bytes for {count} samples, got {len(data)}")
    raw = np.frombuffer(bytes(data[:need]), dtype=np.uint8).reshape(-1, 3).astype(np.int64)
    s1 = ((raw[:, 1] & 0x0F) << 8) | raw[:, 0]
    s2 = ((raw[:, 1] & 0xF0) << 4) | raw[:, 2]
    flat = np.column_stack([s1, s2]).ravel()[:count]
    return np.where(flat >= 2048, flat - 4096, flat)


def encode_212(samples):
    """Format-212 bytes of 12-bit samples in file order, the inverse of
    decode_212; an odd count is padded with a zero sample."""
    u = np.asarray(samples, dtype=np.int64) & 0xFFF
    if len(u) % 2:
        u = np.append(u, 0)
    s1, s2 = u[0::2], u[1::2]
    out = np.empty((len(s1), 3), dtype=np.uint8)
    out[:, 0] = s1 & 0xFF
    out[:, 1] = (s1 >> 8) | (s2 >> 8) << 4
    out[:, 2] = s2 & 0xFF
    return out.tobytes()


def read_header(text):
    """Parse the plain-text .hea format.

    Returns (record_id, n_signals, sampling_rate, samples_per_channel,
    dat_file_name).  The signal lines' ADC gain is not read: beats are
    z-scored, so it cancels out.
    """
    lines = [(i, ln.split()) for i, ln in
             data_lines(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))]
    if not lines:
        raise ParseError("empty header")
    line_no, head = lines[0]
    if len(head) < 4:
        raise ParseError(f"header line needs 4 fields, got {len(head)}", line_no=line_no)
    try:
        record_id = head[0]
        n_sig = int(head[1])
        fs = float(head[2].split("/")[0])
        n_samp = int(head[3])
    except ValueError as e:
        raise ParseError(f"bad header field: {e}", line_no=line_no)
    if not 0 < fs < np.inf or n_sig < 1 or n_samp < 0:  # NaN fails too
        raise ParseError("header values out of range", line_no=line_no)
    dat_name = None
    if len(lines) > 1:
        line_no, sig = lines[1]
        if len(sig) >= 2 and sig[1].split("+")[0] != "212":
            raise ParseError(f"unsupported signal format {sig[1]!r}", line_no=line_no)
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
    samples = decode_212(dat_path.read_bytes(), n_samp * n_sig)
    return EcgRecord(record_id=record_id, sampling_rate=fs,
                     channels=[samples[c::n_sig] for c in range(n_sig)])


# ---------------------------------------------------------------------------
# annotations


def read_annotations(lines):
    """Parse an iterable of `sample_index,label` lines, such as an open
    text file, into sorted BeatAnnotations.

    '#' comments and blank lines are skipped; labels outside the six target
    classes map to Other.  Raises ParseError (with line number) on garbage.
    """
    out = []
    for i, line in data_lines(lines):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not parts[1]:
            raise ParseError(f"expected 'sample_index,label', got {line!r}", line_no=i)
        try:
            idx = int(parts[0])
        except ValueError:
            raise ParseError(f"bad sample index {parts[0]!r}", line_no=i)
        if idx < 0:
            raise ParseError(f"negative sample index {idx}", line_no=i)
        out.append(BeatAnnotation(sample_index=idx, label=fold_label(parts[1])))
    out.sort(key=lambda a: a.sample_index)
    return out


# ---------------------------------------------------------------------------
# segmentation and beat construction


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
    """Full ingest of one record: cut a fixed window around each annotated
    target-class R sample, resample it and normalize it.

    Returns (beats, skipped), skipped counting the annotations whose window
    falls outside the record.
    """
    fs = record.sampling_rate
    # in samples, so that a huge value that overflows to inf is refused too
    if not (0 < pre_s * fs < np.inf and 0 < post_s * fs < np.inf):  # NaN fails too
        raise TooShortError("pre_s and post_s must be positive and finite")
    if not 0 <= channel < len(record.channels):
        raise BadConfigError(
            f"channel {channel} outside [0, {len(record.channels)}) of the record")
    sig = np.asarray(record.channels[channel], dtype=float)
    pre, post = int(round(pre_s * fs)), int(round(post_s * fs))
    beats, skipped = [], 0
    for ann in annotations:
        if ann.label not in TARGET_LABELS:
            continue
        lo, hi = ann.sample_index - pre, ann.sample_index + post
        if lo < 0 or hi > len(sig):
            skipped += 1
            continue
        beats.append(Beat(values=normalize_beat(resample_to_300(sig[lo:hi])),
                          label=ann.label, source=(record.record_id, ann.sample_index)))
    return beats, skipped


# ---------------------------------------------------------------------------
# pre-segmented fallback CSV (label, v1..v300)


def read_beats_csv(lines, source_id="csv"):
    """Beats from an iterable of `label,v1..v300` lines, such as an open
    text file, each z-scored; '#' comments and blank lines are skipped."""
    beats = []
    for i, line in data_lines(lines):
        parts = line.split(",")
        if len(parts) != BEAT_LENGTH + 1:
            raise ParseError(
                f"expected {BEAT_LENGTH + 1} columns, got {len(parts)}", line_no=i)
        beats.append(Beat(values=normalize_beat(float_fields(parts[1:], i)),
                          label=fold_label(parts[0].strip()), source=(source_id, i)))
    return beats


def format_beats_csv(beats):
    rows = []
    for b in beats:
        rows.append(",".join([b.label] + [f"{v:.9g}" for v in b.values]))
    return "\n".join(rows) + ("\n" if rows else "")
