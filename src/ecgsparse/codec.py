"""Beat compression: sparse coefficient triplets, reconstruction, Err/Cr metrics.

A beat's windowed wavelet features are coded against a trained dictionary;
only the nonzero coefficients (row, col, value) are stored.  Reconstruction
inverts each window's wavelet feature and overlap-adds with uniform
averaging.  Err and Cr follow the usual definitions:

    Err = mean_i ||M_i - N_i||_2 / ||N_i||_2
    Cr  = mean_i (n - m_i) / n        (m_i = stored triplet count, n = 300)
"""

import collections
import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .dictionary import MAX_K
from .errors import CorruptFileError, DegenerateInputError, ShapeMismatchError
from .fileio import atomic_write_chunks
from .ingest import BEAT_LENGTH, CODE_LABELS, LABEL_CODES, OTHER_LABEL, fold_label
from .sparse_coding import BLOCK_COLUMNS, encode_all
from .wavelet import feature_dimension, idwt


@dataclass(eq=False)
class SparseCode:
    """Sparse k x Omega coefficient matrix for one beat.

    rows, cols and vals are parallel arrays in canonical order: sorted by
    (col, row), unique, no zero values.  source_id identifies the beat for
    seeding purposes and is not part of the stored payload.  Codes compare
    by identity: == on their arrays would be ambiguous.
    """

    k: int
    omega: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    label: str = OTHER_LABEL
    source_id: str = ""

    @property
    def nnz(self):
        return self.vals.size

    def to_dense(self):
        X = np.zeros((self.k, self.omega))
        X[self.rows, self.cols] = self.vals
        return X

    @classmethod
    def from_dense(cls, X, label=OTHER_LABEL, source_id=""):
        X = np.asarray(X, dtype=float)
        k, omega = X.shape
        cols, rows = np.nonzero(X.T)  # column-major walk gives (col, row) order
        return cls(k=k, omega=omega, rows=rows, cols=cols, vals=X[rows, cols],
                   label=label, source_id=source_id)


def _column_chunks(beats, pending):
    """The columns of the beats' window matrices in chunks of BLOCK_COLUMNS,
    the last one narrower; each beat's (Omega, label, source id) goes onto
    pending as the beat is read.

    A chunk is one d x BLOCK_COLUMNS buffer, or a column slice of it, filled
    again for the next chunk, except when every column fits in the first
    chunk: that is copied to its own width, the matrix np.hstack would make
    of all the beats.  (A lone column of such a matrix is contiguous, and
    D'y rounds differently on a contiguous column than on a strided one;
    strided columns all agree.)  A final chunk is also given while pending
    holds beats, so that beats with no columns are coded too.
    """
    buf, fill, first = None, 0, True
    for Y, label, sid in beats:
        pending.append((Y.shape[1], label, sid))
        if buf is None:
            buf = np.empty((Y.shape[0], BLOCK_COLUMNS))
        done = 0
        while done < Y.shape[1]:
            take = min(BLOCK_COLUMNS - fill, Y.shape[1] - done)
            buf[:, fill:fill + take] = Y[:, done:done + take]
            fill, done = fill + take, done + take
            if fill == BLOCK_COLUMNS:
                yield buf
                fill, first = 0, False
    if pending:
        yield buf[:, :fill].copy() if first else buf[:, :fill]


def compress(D, windows, lam, labels=None, source_ids=None, counts=None):
    """Yield the SparseCode of each beat of windows, an iterable of d x Omega
    window matrices, one per beat, in order.

    The beats' columns are coded in chunks of BLOCK_COLUMNS, one encode_all
    call each (which adds its solver tallies into counts), so only one chunk
    of windows and codes is held at a time.  encode_all thus makes the
    blocks it would make on all the columns side by side, and the codes and
    tallies are those of that one call.  A beat whose columns span more
    than one chunk has their codes joined before its SparseCode is built.
    Labels default to OTHER_LABEL and source ids to "", one of each per
    beat; labels or source ids that are given must number one per beat, or
    ValueError is raised when the shorter runs out.
    """
    # strict zips check what is given; a default lasts as long as the beats
    labelled = zip(windows,
                   itertools.repeat(OTHER_LABEL) if labels is None else labels,
                   strict=labels is not None)
    beats = ((Y, label, sid) for (Y, label), sid in zip(
        labelled, itertools.repeat("") if source_ids is None else source_ids,
        strict=source_ids is not None))
    pending = collections.deque()
    carry = None  # codes of the first pending beat's columns in earlier chunks
    for chunk in _column_chunks(beats, pending):
        X = encode_all(D, chunk, lam, counts=counts)
        if carry is not None:
            X = np.hstack([carry, X])
        start = 0
        while pending and start + pending[0][0] <= X.shape[1]:
            omega, label, sid = pending.popleft()
            yield SparseCode.from_dense(X[:, start:start + omega], label=label,
                                        source_id=sid)
            start += omega
        carry = X[:, start:].copy()
        del X  # not held while the next chunk is coded


def decompress(D, code):
    """Dense feature approximation: column i of the result is D @ x_i.

    Raises DegenerateInputError when the result's energy (sum of squares)
    is not finite, as from a damaged dictionary: Err and the reconstructed
    beat are measured in that energy.
    """
    D = np.asarray(D, dtype=float)
    if D.shape[1] != code.k:
        raise ShapeMismatchError(
            f"dictionary has k={D.shape[1]} atoms but code expects k={code.k}")
    with np.errstate(over="ignore", invalid="ignore"):
        Y = D @ code.to_dense()
        energy = np.sum(Y * Y)
    if not np.isfinite(energy):
        raise DegenerateInputError(
            "decompressed features overflow: dictionary values too large")
    return Y


# ---------------------------------------------------------------------------
# beat reconstruction


def reconstruct_beat(Y_hat, geometry):
    """Invert the window features in one idwt call, their columns the rows
    of one array, and overlap-add them with averaging.

    geometry is (w, s, fb, wl) matching the extract_windows call that
    produced the features.  A sample's window contributions are added in
    window order.  Samples covered by no window stay zero.
    """
    w, s, fb, wl = geometry
    n = BEAT_LENGTH
    cols = np.asarray(Y_hat, dtype=float)
    d = feature_dimension(fb, w, wl)
    omega = cols.shape[1]
    positions = np.arange(omega) * s
    if omega and positions[-1] + w > n:
        raise ShapeMismatchError(
            f"{omega} windows of length {w} at stride {s} overrun {n} samples")
    if len(cols) != d:
        raise ShapeMismatchError(
            f"feature column has {len(cols)} coefficients, geometry implies {d}")
    windows = idwt(cols.T, fb, w, wl)
    samples = (positions[:, None] + np.arange(w)).ravel()
    acc = np.zeros(n)
    np.add.at(acc, samples, windows.ravel())  # in order, window by window
    cover = np.bincount(samples, minlength=n)
    out = np.zeros(n)
    hit = cover > 0
    out[hit] = acc[hit] / cover[hit]
    return out


# ---------------------------------------------------------------------------
# metrics


def beat_errs(reconstructed, originals):
    """Eq. 9 per beat: the list of ||M_i - N_i||_2 / ||N_i||_2, and their
    mean.  The mean adds left to right: sum() compensates on Python 3.12+
    and np.mean adds pairwise, either of which would change its bits."""
    if len(reconstructed) != len(originals):
        raise ShapeMismatchError(
            f"{len(reconstructed)} reconstructions vs {len(originals)} originals")
    errs, total = [], 0.0
    for i, (m, nvec) in enumerate(zip(reconstructed, originals)):
        m = np.asarray(m, dtype=float)
        nvec = np.asarray(nvec, dtype=float)
        if m.shape != nvec.shape:
            raise ShapeMismatchError(f"beat {i}: shapes {m.shape} vs {nvec.shape}")
        denom = np.linalg.norm(nvec)
        if denom == 0.0:
            raise DegenerateInputError(f"beat {i} has zero norm")
        errs.append(float(np.linalg.norm(m - nvec) / denom))
        total += errs[-1]
    return errs, total / len(errs) if errs else 0.0


def err_metric(reconstructed, originals):
    """Eq. 9: mean over beats of ||M_i - N_i||_2 / ||N_i||_2."""
    return beat_errs(reconstructed, originals)[1]


def cr_metric(codes):
    """Eq. 10: mean over beats of (n - m)/n with m the triplet count and
    n = BEAT_LENGTH."""
    if not codes:
        return 0.0
    n = BEAT_LENGTH
    return float(np.mean([(n - c.nnz) / n for c in codes]))


# ---------------------------------------------------------------------------
# SBC1 code file


MAGIC_SBC1 = b"SBC1"
# one stored coefficient: (u32 row, u32 col, f32 value), 12 bytes, no padding
TRIPLET = np.dtype([("row", "<u4"), ("col", "<u4"), ("val", "<f4")])


def _sbc1_chunks(codes, count):
    """SBC1 bytes of count codes from an iterable, made as the codes come: the
    header, then one record per beat.

    The header's k is the first code's, or 0 when there is none, so the
    first code is read before the header is given.
    """
    codes = iter(codes)
    first = next(codes, None)
    k = 0 if first is None else first.k
    if k > MAX_K:
        raise ShapeMismatchError(f"k={k} exceeds {MAX_K} atoms")
    yield MAGIC_SBC1 + struct.pack("<II", k, count)
    i = -1
    for i, code in enumerate(itertools.chain([] if first is None else [first], codes)):
        if code.k != k:
            raise ShapeMismatchError(f"inconsistent k: {code.k} vs {k}")
        if code.omega < 1:
            raise ShapeMismatchError(f"beat {i}: no windows")
        if code.omega > BEAT_LENGTH:
            raise ShapeMismatchError(
                f"beat {i}: {code.omega} windows exceed {BEAT_LENGTH} samples")
        with np.errstate(over="ignore"):
            vals = code.vals.astype(np.float32)
        if not np.isfinite(vals).all():
            raise DegenerateInputError(f"beat {i}: value not finite as float32")
        kept = vals != 0.0
        rec = np.empty(np.count_nonzero(kept), dtype=TRIPLET)
        rec["row"], rec["col"], rec["val"] = code.rows[kept], code.cols[kept], vals[kept]
        label_code = LABEL_CODES[fold_label(code.label)]
        yield struct.pack("<IBI", code.omega, label_code, rec.size) + rec.tobytes()
    if i + 1 != count:
        raise ShapeMismatchError(f"{i + 1} codes, header says {count}")


def parse_codes(blob):
    if blob[:4] != MAGIC_SBC1:
        raise CorruptFileError(f"bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise CorruptFileError("header truncated")
    k, count = struct.unpack("<II", blob[4:12])
    pos = 12
    codes = []
    for i in range(count):
        if pos + 9 > len(blob):
            raise CorruptFileError(f"beat {i}: record header truncated")
        omega, label_code, nnz = struct.unpack("<IBI", blob[pos:pos + 9])
        pos += 9
        if label_code not in CODE_LABELS:
            raise CorruptFileError(f"beat {i}: unknown label code {label_code}")
        if omega < 1:
            raise CorruptFileError(f"beat {i}: no windows")
        if omega > BEAT_LENGTH:
            raise CorruptFileError(
                f"beat {i}: {omega} windows exceed {BEAT_LENGTH} samples")
        if pos + TRIPLET.itemsize * nnz > len(blob):
            raise CorruptFileError(f"beat {i}: triplets truncated")
        rec = np.frombuffer(blob, dtype=TRIPLET, count=nnz, offset=pos)
        pos += rec.nbytes
        # int64 copies: differences of u32 indices must not wrap
        rows = rec["row"].astype(np.int64)
        cols = rec["col"].astype(np.int64)
        vals = rec["val"].astype(float)
        outside = np.flatnonzero((rows >= k) | (cols >= omega))
        if outside.size:
            j = outside[0]
            raise CorruptFileError(f"beat {i}: triplet ({rows[j]},{cols[j]}) out of range")
        if not vals.all():
            raise CorruptFileError(f"beat {i}: zero-valued triplet stored")
        if not np.isfinite(vals).all():
            raise CorruptFileError(f"beat {i}: non-finite value stored")
        # strictly increasing (col, row), compared field by field
        dc, dr = np.diff(cols), np.diff(rows)
        if ((dc < 0) | ((dc == 0) & (dr <= 0))).any():
            raise CorruptFileError(f"beat {i}: triplets not in canonical order")
        codes.append(SparseCode(k=k, omega=omega, rows=rows, cols=cols, vals=vals,
                                label=CODE_LABELS[label_code], source_id=str(i)))
    if pos != len(blob):
        raise CorruptFileError(f"{len(blob) - pos} trailing bytes")
    # parsing never sizes anything by k, so a record's own damage is named first
    if k > MAX_K:
        raise CorruptFileError(f"header k={k} exceeds {MAX_K} atoms")
    return codes


def save_codes(path, codes, count):
    """Write count codes to path as SBC1 while the iterable codes makes them,
    holding one record at a time; returns the file's byte size.

    SBC1 is: magic, u32 k, u32 count; per beat u32 Omega, u8 label, u32
    nnz, then (u32 row, u32 col, f32 value) triplets in canonical order.
    Values are quantized to f32 on disk; triplets whose f32 image is exactly
    zero are dropped so every stored value is nonzero, and a value that is
    not finite as f32 raises DegenerateInputError.  A beat has at least one
    and at most BEAT_LENGTH windows (w >= 1, s >= 1), so Omega is bounded by
    those, and k by MAX_K.  The file is written atomically: an error from
    codes leaves no file.
    """
    return atomic_write_chunks(path, _sbc1_chunks(codes, count))


def load_codes(path):
    with open(path, "rb") as fh:
        return parse_codes(fh.read())
