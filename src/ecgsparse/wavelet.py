"""Discrete wavelet transform machinery.

Provides the three filter banks used in the pipeline (haar, db4, bior2.6),
multi-level DWT/IDWT with half-point symmetric extension of a signal or of
each row of an array (dwt returns, and idwt takes, one coefficient array:
the approximation, then the details coarse to fine), wavelet denoising of
one signal (baseline-drift removal + soft thresholding), and the
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

from dataclasses import dataclass

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
# straddle two rows are dropped.  Synthesis' one full-mode edge output is a
# shorter dot product (NumPy's dot routine), which a stack of one-row
# matmuls makes too.


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


def _full_rows(u, flat, h, n):
    """Samples L - 2 to L - 3 + n of np.convolve(row, h), L = len(h), for
    every row of u, the _rows array of flat, where L <= len(row) and 1 <= n
    <= len(row) - L + 2: the left-edge sample, then valid outputs."""
    L = len(h)
    hr = h[::-1].copy()  # np.convolve correlates with a contiguous reversed h
    out = np.empty((len(u), n))
    out[:, 0] = (u[:, None, :L - 1] @ hr[1:, None])[:, 0, 0]
    out[:, 1:] = _convolve_rows(flat, u.shape[1], h)[:, :n - 1]
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
    """n samples from the rows of a and d, A coefficients each.  Every stage
    of a dwt layout has n >= L, A = (n + L - 1) // 2, so 2A >= L and n <= 2A
    - L + 2, as _full_rows needs."""
    L, A = fb.length, a.shape[1]
    ua, flat_a = _rows(len(a), 2 * A, L)
    ua[:, 0::2] = a
    ud, flat_d = _rows(len(d), 2 * A, L)
    ud[:, 0::2] = d
    return _full_rows(ua, flat_a, fb.rec_lo, n) + _full_rows(ud, flat_d, fb.rec_hi, n)


# ---------------------------------------------------------------------------
# multi-level transform
#
# The coefficients of a signal are one vector: the approximation, then the
# details coarse to fine (deepest level first).  Its layout, the size of
# each band and the signal length each synthesis stage restores, follows
# from (fb, n, levels) alone.


def _pyramid_layout(fb, n, levels):
    """(sizes, lengths) of dwt on length-n signals, found without a
    transform: the coefficient counts of the approximation and of each
    detail coarse to fine, and the signal length that each detail's
    analysis took in, coarse to fine.  Raises as dwt does."""
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
    signal, or of each row of a 2-D array.  Returns the coefficients, one
    row per signal (a vector for a 1-D signal): the approximation, then
    the details coarse to fine.

    Raises TooShortError if the signal (or any intermediate approximation)
    is shorter than the analysis filters, or shorter than 2**levels.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim not in (1, 2):
        raise ShapeMismatchError("dwt expects a 1-D signal or a 2-D array of rows")
    _pyramid_layout(fb, x.shape[-1], levels)  # for its refusals
    bands = [np.atleast_2d(x)]
    for _ in range(levels):
        a, d = _analyze(bands[0], fb)
        bands[:1] = [a, d]
    coeffs = np.concatenate(bands, axis=1)
    return coeffs[0] if x.ndim == 1 else coeffs


def idwt(coeffs, fb, n, levels):
    """Invert dwt of length-n signals at levels levels, for one coefficient
    vector or for each row; exact to roundoff under the same filter bank.

    Raises on n and levels as dwt does, and ShapeMismatchError when the
    coefficients are not the layout's.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim not in (1, 2):
        raise ShapeMismatchError("idwt expects a coefficient vector or a 2-D array of rows")
    sizes, lengths = _pyramid_layout(fb, n, levels)
    if c.shape[-1] != sum(sizes):
        raise ShapeMismatchError(f"{c.shape[-1]} coefficients, but a length-{n} signal "
                                 f"at {levels} levels has {sum(sizes)}")
    rows = np.atleast_2d(c)
    x, end = rows[:, :sizes[0]], sizes[0]
    for size, m in zip(sizes[1:], lengths):
        x = _synthesize(x, rows[:, end:end + size], m, fb)
        end += size
    return x[0] if c.ndim == 1 else x


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
    if x.ndim != 1:
        raise ShapeMismatchError("denoise expects a 1-D signal")
    c = dwt(x, fb, levels)
    sizes, _ = _pyramid_layout(fb, len(x), levels)
    sigma = float(np.median(np.abs(c[len(c) - sizes[-1]:]))) / 0.6745
    thr = threshold_scale * sigma * np.sqrt(2.0 * np.log(max(len(x), 2)))
    d = c[sizes[0]:]
    c[:sizes[0]] = 0.0
    c[sizes[0]:] = np.sign(d) * np.maximum(np.abs(d) - thr, 0.0)
    return idwt(c, fb, len(x), levels)


# ---------------------------------------------------------------------------
# sliding-window features


@dataclass
class FeatureMatrix:
    """d x Omega matrix of local wavelet feature columns for one beat.

    Kept as a wrapper rather than a bare array because the benchmark
    harness (perfbench/checks.py) reads its .columns."""

    columns: np.ndarray


def feature_dimension(fb, w, wl):
    """Coefficient count of the per-window feature for geometry (fb, w, wl)."""
    return sum(_pyramid_layout(fb, w, wl)[0])


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
    return FeatureMatrix(columns=np.ascontiguousarray(dwt(windows, fb, wl).T))
