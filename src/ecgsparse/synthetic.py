"""Bundled synthetic ECG beat generator.

MIT-BIH records cannot be redistributed, so the pipeline ships with a
seeded generator: each class is a sum of Gaussian and triangle pulses with
per-beat jitter plus white noise.
"""

import numpy as np

from .ingest import BEAT_LENGTH, Beat, normalize_beat

# pulse spec: (kind, center, width, amplitude)
MORPHOLOGIES = {
    "N": [("g", 60, 8, 0.25), ("g", 85, 2.5, -0.25), ("g", 92, 4, 1.8),
          ("g", 100, 3, -0.35), ("g", 185, 18, 0.5)],
    "/": [("t", 95, 25, 1.2), ("g", 190, 20, -0.6)],
    "A": [("g", 50, 5, 0.35), ("g", 90, 3.5, 1.6), ("g", 175, 15, 0.45)],
    "V": [("t", 100, 30, 1.7), ("g", 200, 22, -0.7)],
    "R": [("g", 85, 4, 0.9), ("g", 97, 4, 1.3), ("g", 110, 5, -0.5),
          ("g", 195, 18, 0.4)],
    "L": [("g", 90, 10, 1.4), ("g", 105, 8, 0.9), ("g", 190, 20, -0.5)],
}


# s.d. of each pulse's per-beat jitter, of its center in samples and of its
# relative amplitude, and of the white noise added to every sample
_CENTER_JITTER = 2.0
_AMP_JITTER = 0.05
_NOISE = 0.05


def _pulse(t, kind, center, width, amp):
    if kind == "g":
        return amp * np.exp(-0.5 * ((t - center) / width) ** 2)
    # triangle: linear rise/fall over [center-width, center+width]
    return amp * np.maximum(1.0 - np.abs(t - center) / width, 0.0)


def render_beat(pulses, rng, noise, shift=0.0):
    """One beat from a pulse list, jittered, with white noise of s.d. noise;
    `shift` translates every pulse."""
    t = np.arange(BEAT_LENGTH, dtype=float)
    x = np.zeros(BEAT_LENGTH)
    for kind, center, width, amp in pulses:
        c = center + shift + rng.normal(0.0, _CENTER_JITTER)
        a = amp * (1.0 + rng.normal(0.0, _AMP_JITTER))
        x += _pulse(t, kind, c, width, a)
    x += rng.normal(0.0, noise, BEAT_LENGTH)
    return x


def synthetic_beats(n_per_class, seed=0):
    """Seeded beats of every class of MORPHOLOGIES, normalized like real ingest."""
    rng = np.random.default_rng(seed)
    beats = []
    i = 0
    for label, pulses in MORPHOLOGIES.items():
        for _ in range(n_per_class):
            raw = render_beat(pulses, rng, _NOISE)
            beats.append(Beat(values=normalize_beat(raw), label=label,
                              source=("synth", i)))
            i += 1
    return beats


# shared morphology for the time-shift discrimination set: the only thing
# separating the last two classes is where this lands on the time axis
_SHARED = [("g", 0, 4, 1.5), ("g", 14, 6, -0.8), ("t", 30, 10, 0.6)]
_TRIO_BASE = 80
_TRIO_SHIFT = 50  # two stride lengths under the default w=50, s=25 geometry


def shifted_trio_beats(n_per_class, seed=0):
    """3-class set where classes 'A' and 'V' differ only by pulse position.

    'N' keeps its usual morphology; 'A' renders the shared pulse group at
    t=80 and 'V' renders the identical group at t=130.  A bag-of-windows
    histogram is nearly blind to the difference (the shift is a multiple of
    the default stride), while pyramid features see it.
    """
    rng = np.random.default_rng(seed)
    beats = []
    i = 0
    specs = [
        ("N", MORPHOLOGIES["N"], 0.0),
        ("A", _SHARED, _TRIO_BASE),
        ("V", _SHARED, _TRIO_BASE + _TRIO_SHIFT),
    ]
    for label, pulses, shift in specs:
        for _ in range(n_per_class):
            raw = render_beat(pulses, rng, _NOISE, shift=shift)
            beats.append(Beat(values=normalize_beat(raw), label=label,
                              source=("trio", i)))
            i += 1
    return beats


# amplitude_varying_beats draws each pulse scale from U(*_AMP_SCALE_RANGE),
# flips its sign with probability _FLIP_PROB and adds white noise of s.d.
# _AMP_VARY_NOISE
_AMP_SCALE_RANGE = (0.5, 1.5)
_FLIP_PROB = 0.5
_AMP_VARY_NOISE = 0.0005


def amplitude_varying_beats(n_per_class, seed=0):
    """Beats whose pulses keep fixed positions but vary freely in amplitude.

    Every pulse scale is drawn from U(0.5, 1.5) and flips sign with
    probability 0.5, so each class spans a combinatorial family of
    shapes that a continuous-coefficient code represents with a handful of
    atoms while a one-centroid-per-beat quantizer needs a codeword per
    branch.  This is the compression benchmark set.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(BEAT_LENGTH, dtype=float)
    beats = []
    i = 0
    for label in ("N", "/", "A", "V", "R", "L"):
        for _ in range(n_per_class):
            x = np.zeros(BEAT_LENGTH)
            for kind, center, width, amp in MORPHOLOGIES[label]:
                scale = rng.uniform(*_AMP_SCALE_RANGE)
                if rng.random() < _FLIP_PROB:
                    scale = -scale
                x += _pulse(t, kind, center, width, amp * scale)
            x += rng.normal(0.0, _AMP_VARY_NOISE, BEAT_LENGTH)
            beats.append(Beat(values=normalize_beat(x), label=label,
                              source=("amp", i)))
            i += 1
    return beats
