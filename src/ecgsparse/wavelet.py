"""Discrete wavelet transform machinery.

Provides the three filter banks used in the pipeline (haar, db4, bior2.6),
single- and multi-level DWT/IDWT with half-point symmetric extension,
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

    name: str
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


def _from_lowpass(name, dec_lo, rec_lo):
    dec_lo = np.asarray(dec_lo, dtype=float)
    rec_lo = np.asarray(rec_lo, dtype=float)
    n = np.arange(len(dec_lo))
    dec_hi = ((-1.0) ** (n + 1)) * rec_lo
    rec_hi = ((-1.0) ** n) * dec_lo
    return FilterBank(name, dec_lo, dec_hi, rec_lo, rec_hi)


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


def filter_bank(name):
    """Return a FilterBank by name: 'haar', 'db4' or 'bior2.6'."""
    key = name.lower()
    if key == "haar":
        s = 1.0 / np.sqrt(2.0)
        lo = np.array([s, s])
        return _from_lowpass("haar", lo, lo.copy())
    if key == "db4":
        rec_lo = _DB4_REC_LO.copy()
        return _from_lowpass("db4", rec_lo[::-1].copy(), rec_lo)
    if key in ("bior2.6", "bior26"):
        dec_lo, rec_lo = _bior26_lowpass()
        return _from_lowpass("bior2.6", dec_lo, rec_lo)
    raise BadConfigError(f"unknown filter bank {name!r}")


FILTER_BANK_NAMES = ("haar", "db4", "bior2.6")


# ---------------------------------------------------------------------------
# single-level transform


def _analyze(x, fb):
    L = fb.length
    p = L - 1
    ext = np.concatenate([x[:p][::-1], x, x[-p:][::-1]])
    a = np.convolve(ext, fb.dec_lo, mode="valid")[1::2]
    d = np.convolve(ext, fb.dec_hi, mode="valid")[1::2]
    return a, d


def _synthesize(a, d, n, fb):
    if len(a) != len(d):
        raise ShapeMismatchError(
            f"approximation/detail length mismatch: {len(a)} vs {len(d)}")
    L = fb.length
    ua = np.zeros(2 * len(a))
    ua[0::2] = a
    ud = np.zeros(2 * len(d))
    ud[0::2] = d
    r = np.convolve(ua, fb.rec_lo) + np.convolve(ud, fb.rec_hi)
    out = r[L - 2:L - 2 + n]
    if len(out) != n:
        raise ShapeMismatchError(
            f"cannot reconstruct {n} samples from {len(a)} coefficients")
    return out


# ---------------------------------------------------------------------------
# multi-level pyramid


@dataclass
class Pyramid:
    """Multi-level DWT coefficients.

    details are ordered coarse to fine (deepest level first); lengths[i]
    records the signal length that was analyzed to produce details[i],
    which the synthesis pass needs to trim each stage correctly.
    """

    approx: np.ndarray
    details: list = field(default_factory=list)
    lengths: list = field(default_factory=list)
    fb_name: str = ""

    @property
    def levels(self):
        return len(self.details)

    def concat(self):
        """All coefficients as one vector: approx, then details coarse->fine."""
        return np.concatenate([self.approx] + list(self.details))


def dwt(signal, fb, levels):
    """Multi-level analysis with half-point symmetric extension.

    Raises TooShortError if the signal (or any intermediate approximation)
    is shorter than the analysis filters, or shorter than 2**levels.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ShapeMismatchError("dwt expects a 1-D signal")
    if levels < 1:
        raise BadConfigError("levels must be >= 1")
    if len(x).bit_length() <= levels:  # len(x) < 2**levels, without building 2**levels
        raise TooShortError(f"signal length {len(x)} < 2**{levels}")
    details = []
    lengths = []
    for _ in range(levels):
        if len(x) < fb.length:
            raise TooShortError(
                f"signal length {len(x)} < filter length {fb.length}")
        lengths.append(len(x))
        x, d = _analyze(x, fb)
        details.append(d)
    details.reverse()
    lengths.reverse()
    return Pyramid(approx=x, details=details, lengths=lengths, fb_name=fb.name)


def idwt(pyramid, fb):
    """Invert dwt; exact to roundoff under the same filter bank."""
    x = np.asarray(pyramid.approx, dtype=float)
    if len(pyramid.details) != len(pyramid.lengths):
        raise ShapeMismatchError("pyramid details/lengths are inconsistent")
    for d, n in zip(pyramid.details, pyramid.lengths):
        x = _synthesize(x, np.asarray(d, dtype=float), n, fb)
    return x


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
    probe = dwt(np.zeros(w), fb, wl)
    return len(probe.concat())


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
    window (approximation first, then details coarse to fine).  Returns a
    FeatureMatrix with one column per window_starts entry.
    """
    x = np.asarray(getattr(beat, "values", beat), dtype=float)
    starts = window_starts(len(x), w, s)
    if wl < 1:
        raise BadConfigError("window decomposition level wl must be >= 1")
    if int(w).bit_length() <= wl:  # w < 2**wl
        raise BadConfigError(f"w={w} < 2**wl = 2**{wl}")
    cols = [dwt(x[p:p + w], fb, wl).concat() for p in starts]
    return FeatureMatrix(columns=np.column_stack(cols))
