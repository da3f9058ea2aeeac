"""Discrete wavelet transform machinery.

Provides the three filter banks used in the pipeline (haar, db4, bior2.6),
single- and multi-level DWT/IDWT with half-point symmetric extension of a
signal or of each row of an array,
wavelet denoising (baseline-drift removal + soft thresholding), and the
sliding-window local wavelet feature extractor.

Conventions
-----------
Analysis convolves the symmetrically extended signal with the decomposition
filters and keeps odd-indexed outputs of the valid convolution; synthesis
upsamples, convolves with the reconstruction filters and trims the filter
transient.  The high-pass filters are derived from the low-pass pair by the
alternating-sign relations

    dec_hi[n] = (-1)^(n+1) * rec_lo[n]
    rec_hi[n] = (-1)^n     * dec_lo[n]

which cancel aliasing for any equal-length low-pass pair; perfect
reconstruction then reduces to the half-band condition on
conv(rec_lo, dec_lo), satisfied by construction below.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadConfigError, ShapeMismatchError, TooShortError


@dataclass(frozen=True)
class FilterBank:
    """Two-channel perfect-reconstruction filter bank."""

    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray

    def __post_init__(self):
        L = len(self.dec_lo)
        if L % 2 != 0 or any(len(f) != L for f in (self.dec_hi, self.rec_lo, self.rec_hi)):
            raise BadConfigError("filter bank requires four equal, even-length filters")

    @property
    def length(self):
        return len(self.dec_lo)


def _from_lowpass(dec_lo, rec_lo):
    dec_lo = np.asarray(dec_lo, dtype=float)
    rec_lo = np.asarray(rec_lo, dtype=float)
    n = np.arange(len(dec_lo))
    dec_hi = ((-1.0) ** (n + 1)) * rec_lo
    rec_hi = ((-1.0) ** n) * dec_lo
    return FilterBank(dec_lo, dec_hi, rec_lo, rec_hi)


# Daubechies-4 scaling coefficients (8 taps, orthonormal).
_DB4_REC_LO = np.array([
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
])


def _bior26_lowpass():
    """Construct the bior2.6 low-pass pair exactly.

    Synthesis side is the quadratic B-spline sqrt(2)*[1,2,1]/4; the analysis
    dual has 6 vanishing moments: dec_lo(z) = sqrt(2) * B(z)^3 * P4(y) with
    B = (2+z+z^-1)/4, y = (2-z-z^-1)/4 and P4(y) = 1 + 4y + 10y^2 + 20y^3
    (13 taps).  Both are zero-padded to a common even length of 14; the
    offsets (5 for the spline, 1 for the dual) center the half-band product
    so the synthesis trim below is filter-independent.
    """
    spline = np.array([0.25, 0.5, 0.25]) * np.sqrt(2.0)
    b = np.array([0.25, 0.5, 0.25])
    cube = np.convolve(np.convolve(b, b), b)
    y = np.array([-0.25, 0.5, -0.25])
    y2 = np.convolve(y, y)
    y3 = np.convolve(y2, y)
    p = 20.0 * y3
    p[1:-1] += 10.0 * y2
    p[2:-2] += 4.0 * y
    p[3] += 1.0
    dual = np.convolve(cube, p) * np.sqrt(2.0)
    dec_lo = np.zeros(14)
    rec_lo = np.zeros(14)
    dec_lo[1:14] = dual
    rec_lo[5:8] = spline
    return dec_lo, rec_lo


FILTER_BANK_NAMES = ("haar", "db4", "bior2.6")


def filter_bank(name):
    """Return a FilterBank by name: 'haar', 'db4' or 'bior2.6'."""
    key = name.lower()
    if key == "haar":
        s = 1.0 / np.sqrt(2.0)
        lo = np.array([s, s])
        return _from_lowpass(lo, lo.copy())
    if key == "db4":
        rec_lo = _DB4_REC_LO.copy()
        return _from_lowpass(rec_lo[::-1].copy(), rec_lo)
    if key in ("bior2.6", "bior26"):
        dec_lo, rec_lo = _bior26_lowpass()
        return _from_lowpass(dec_lo, rec_lo)
    raise BadConfigError(f"unknown filter bank {name!r}; known: "
                         f"{', '.join(FILTER_BANK_NAMES)}")


# ---------------------------------------------------------------------------
# single-level transform
#
# Both directions work on the rows of a 2-D array, each row transformed as
# if alone and bit for bit as np.convolve transforms it.  np.convolve takes
# every output whose inputs all lie in the signal as one dot product of
# len(h) terms, the same however long the signal is, so one convolution of
# the rows laid end to end gives each row's outputs; the outputs that
# straddle two rows are dropped.  Full mode's edge outputs are shorter dot
# products (NumPy's dot routine), which a stack of one-row matmuls makes too.


def _rows(R, m, L):
    """A zeroed R x m array, and the flat buffer that holds its rows end to
    end and then L - 1 zeros, for _convolve_rows."""
    flat = np.zeros(R * m + L - 1)
    return flat[:R * m].reshape(R, m), flat


def _convolve_rows(flat, m, h):
    """np.convolve(row, h, "valid") of every row of a _rows buffer, rows m
    >= len(h) long (np.convolve swaps a shorter operand)."""
    R = (len(flat) - len(h) + 1) // m
    if R == 0:
        return np.zeros((0, m - len(h) + 1))
    # R * m outputs, m per row, of which the last L - 1 straddle two rows
    return np.convolve(flat, h, mode="valid").reshape(R, m)[:, :m - len(h) + 1]


def _edge_dot(u, hr):
    """Dot of each row of u with hr, as np.convolve takes an edge output."""
    return (u[:, None, :] @ hr[:, None])[:, 0, 0]


def _full_rows(u, flat, h, n):
    """Samples L - 2 to L - 3 + n of np.convolve(row, h), L = len(h), for
    every row of u, the _rows array of flat, where L <= len(row) and 1 <= n
    <= len(row) + 1.

    Sample L - 2 is the left edge; from sample len(row) on the right edge
    is reached, which only a hand-built pyramid does.
    """
    L, m = len(h), u.shape[1]
    hr = h[::-1].copy()  # np.convolve correlates with a contiguous reversed h
    out = np.empty((len(u), n))
    out[:, 0] = _edge_dot(u[:, :L - 1], hr[1:])
    inner = _convolve_rows(flat, m, h)[:, :n - 1]
    out[:, 1:1 + inner.shape[1]] = inner
    for t in range(n - 1 - inner.shape[1]):
        out[:, 1 + inner.shape[1] + t] = _edge_dot(u[:, m - L + 1 + t:], hr[:L - 1 - t])
    return out


def _analyze(x, fb):
    p = fb.length - 1
    m = x.shape[1] + 2 * p
    ext, flat = _rows(len(x), m, fb.length)
    np.concatenate([x[:, :p][:, ::-1], x, x[:, -p:][:, ::-1]], axis=1, out=ext)
    a = _convolve_rows(flat, m, fb.dec_lo)[:, 1::2]
    d = _convolve_rows(flat, m, fb.dec_hi)[:, 1::2]
    return a, d


def _synthesize(a, d, n, fb):
    if a.shape[1] != d.shape[1]:
        raise ShapeMismatchError(
            f"approximation/detail length mismatch: {a.shape[1]} vs {d.shape[1]}")
    L, A = fb.length, a.shape[1]
    ua, flat_a = _rows(len(a), 2 * A, L)
    ua[:, 0::2] = a
    ud, flat_d = _rows(len(d), 2 * A, L)
    ud[:, 0::2] = d
    if 2 * A >= L and 1 <= n <= 2 * A + 1:
        return _full_rows(ua, flat_a, fb.rec_lo, n) + _full_rows(ud, flat_d, fb.rec_hi, n)
    # hand-built pyramids only: row by row, where np.convolve swaps its
    # operands (2A < L), and for the errors of lengths that do not fit
    r = np.reshape([np.convolve(u, fb.rec_lo) + np.convolve(v, fb.rec_hi)
                    for u, v in zip(ua, ud)], (len(a), 2 * A + L - 1))
    out = r[:, L - 2:L - 2 + n]
    if out.shape[1] != n:
        raise ShapeMismatchError(
            f"cannot reconstruct {n} samples from {A} coefficients")
    return out


# ---------------------------------------------------------------------------
# multi-level pyramid


@dataclass
class Pyramid:
    """Multi-level DWT coefficients of a signal, or of each row of an array.

    Each band holds one row of coefficients per signal (a 1-D band for a
    1-D signal).  details are ordered coarse to fine (deepest level first);
    lengths[i] records the signal length that was analyzed to produce
    details[i], which the synthesis pass needs to trim each stage correctly.
    """

    approx: np.ndarray
    details: list = field(default_factory=list)
    lengths: list = field(default_factory=list)

    def concat(self):
        """All coefficients along the last axis: approx, then details
        coarse->fine."""
        return np.concatenate([self.approx] + list(self.details), axis=-1)


def pyramid_layout(fb, n, levels):
    """(sizes, lengths) of dwt on length-n signals, found without a
    transform: the coefficient counts of the approximation and of each
    detail coarse to fine, and Pyramid.lengths.  Raises as dwt does."""
    if levels < 1:
        raise BadConfigError("levels must be >= 1")
    if int(n).bit_length() <= levels:  # n < 2**levels, without building 2**levels
        raise TooShortError(f"signal length {n} < 2**{levels}")
    lengths = []
    for _ in range(levels):
        if n < fb.length:
            raise TooShortError(f"signal length {n} < filter length {fb.length}")
        lengths.append(n)
        n = (n + fb.length - 1) // 2  # the analysis keeps odd outputs of n + L - 1
    lengths.reverse()
    return [n] + [(m + fb.length - 1) // 2 for m in lengths], lengths


def dwt(signal, fb, levels):
    """Multi-level analysis with half-point symmetric extension of a 1-D
    signal, or of each row of a 2-D array.

    Raises TooShortError if the signal (or any intermediate approximation)
    is shorter than the analysis filters, or shorter than 2**levels.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim not in (1, 2):
        raise ShapeMismatchError("dwt expects a 1-D signal or a 2-D array of rows")
    _, lengths = pyramid_layout(fb, x.shape[-1], levels)
    rows = np.atleast_2d(x)
    details = []
    for _ in lengths:
        rows, d = _analyze(rows, fb)
        details.insert(0, d)
    if x.ndim == 1:
        rows, details = rows[0], [d[0] for d in details]
    return Pyramid(approx=rows, details=details, lengths=lengths)


def idwt(pyramid, fb):
    """Invert dwt, of one signal or of each row; exact to roundoff under the
    same filter bank."""
    x = np.asarray(pyramid.approx, dtype=float)
    if len(pyramid.details) != len(pyramid.lengths):
        raise ShapeMismatchError("pyramid details/lengths are inconsistent")
    rows = np.atleast_2d(x)
    for d, n in zip(pyramid.details, pyramid.lengths):
        d = np.asarray(d, dtype=float)
        if d.shape[:-1] != x.shape[:-1]:
            raise ShapeMismatchError("pyramid bands differ in their number of rows")
        rows = _synthesize(rows, np.atleast_2d(d), n, fb)
    return rows[0] if x.ndim == 1 else rows


# ---------------------------------------------------------------------------
# denoising


def denoise(signal, fb, levels, threshold_scale=1.0):
    """Remove baseline drift and noise.

    Zeroes the deepest approximation band (the drift lives there), then
    soft-thresholds every detail band at threshold_scale * sigma *
    sqrt(2 ln n), with sigma estimated from the finest detail band as
    median(|d1|) / 0.6745.
    """
    x = np.asarray(signal, dtype=float)
    pyr = dwt(x, fb, levels)
    pyr.approx = np.zeros_like(pyr.approx)
    finest = pyr.details[-1]
    sigma = float(np.median(np.abs(finest))) / 0.6745 if len(finest) else 0.0
    thr = threshold_scale * sigma * np.sqrt(2.0 * np.log(max(len(x), 2)))
    pyr.details = [np.sign(d) * np.maximum(np.abs(d) - thr, 0.0) for d in pyr.details]
    return idwt(pyr, fb)


# ---------------------------------------------------------------------------
# sliding-window features


@dataclass
class FeatureMatrix:
    """d x Omega matrix of local wavelet feature columns for one beat."""

    columns: np.ndarray


def feature_dimension(fb, w, wl):
    """Coefficient count of the per-window feature for geometry (fb, w, wl)."""
    return sum(pyramid_layout(fb, w, wl)[0])


def window_starts(n, w, s):
    """First samples of the length-w windows at stride s over n samples:
    Omega = floor((n - w)/s) + 1 of them."""
    if not (2 <= w <= n):
        raise BadConfigError(f"window length w={w} outside [2, {n}]")
    if s < 1:
        raise BadConfigError("stride s must be >= 1")
    return np.arange(0, n - w + 1, s)


def extract_windows(beat, fb, w, s, wl):
    """Slide a length-w window by stride s and stack per-window DWT features.

    Each feature column is the concatenated level-wl decomposition of the
    window (approximation first, then details coarse to fine), all windows
    transformed by one dwt call as the rows of one array.  Returns a
    FeatureMatrix with one column per window_starts entry.
    """
    x = np.asarray(getattr(beat, "values", beat), dtype=float)
    starts = window_starts(len(x), w, s)
    if wl < 1:
        raise BadConfigError("window decomposition level wl must be >= 1")
    if int(w).bit_length() <= wl:  # w < 2**wl
        raise BadConfigError(f"w={w} < 2**wl = 2**{wl}")
    windows = x[starts[:, None] + np.arange(w)]
    return FeatureMatrix(columns=np.ascontiguousarray(dwt(windows, fb, wl).concat().T))
