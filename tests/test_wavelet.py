"""Filter banks, DWT/IDWT round trips, denoising, and window features."""

import numpy as np
import pytest

from ecgsparse.codec import reconstruct_beat
from ecgsparse.errors import BadConfigError, ShapeMismatchError, TooShortError
from ecgsparse.ingest import Beat
from ecgsparse.wavelet import (
    FILTER_BANK_NAMES,
    dwt,
    denoise,
    extract_windows,
    feature_dimension,
    filter_bank,
    idwt,
    Pyramid,
)
from verification import dwt_one, extract_windows_one, idwt_one, reconstruct_beat_one

ALL_BANKS = [filter_bank(n) for n in FILTER_BANK_NAMES]


def test_filter_bank_names():
    for name in FILTER_BANK_NAMES:
        fb = filter_bank(name)
        assert len(fb.dec_lo) == len(fb.dec_hi) == len(fb.rec_lo) == len(fb.rec_hi)
        assert len(fb.dec_lo) % 2 == 0


def test_filter_bank_unknown_name():
    with pytest.raises(BadConfigError):
        filter_bank("sym5")


def test_filter_bank_unknown_name_lists_known_banks():
    with pytest.raises(BadConfigError) as err:
        filter_bank("sym5")
    assert all(name in str(err.value) for name in ("haar", "db4", "bior2.6"))


def test_haar_constant_signal():
    fb = filter_bank("haar")
    pyr = dwt(np.ones(4), fb, 1)
    np.testing.assert_allclose(pyr.approx, [np.sqrt(2)] * 2, atol=1e-12)
    np.testing.assert_allclose(pyr.details[0], [0, 0], atol=1e-12)


def test_haar_pure_alternation():
    fb = filter_bank("haar")
    pyr = dwt(np.array([1.0, -1.0, 1.0, -1.0]), fb, 1)
    np.testing.assert_allclose(pyr.approx, [0, 0], atol=1e-12)
    np.testing.assert_allclose(pyr.details[0], [np.sqrt(2)] * 2, atol=1e-12)


@pytest.mark.parametrize("name", FILTER_BANK_NAMES)
def test_perfect_reconstruction_even_lengths(name):
    fb = filter_bank(name)
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = 2 * int(rng.integers(fb.length, 160))
        x = rng.standard_normal(n)
        levels = 1 + int(rng.integers(0, 3))
        if n < 2 ** levels:
            levels = 1
        try:
            pyr = dwt(x, fb, levels)
        except TooShortError:
            continue
        np.testing.assert_allclose(idwt(pyr, fb), x, atol=1e-8)


def test_perfect_reconstruction_odd_length():
    # odd lengths are supported too as long as the filter fits
    for fb in ALL_BANKS:
        x = np.random.default_rng(5).standard_normal(2 * fb.length + 1)
        np.testing.assert_allclose(idwt(dwt(x, fb, 1), fb), x, atol=1e-8)


def test_bior26_reconstruction_length_512():
    fb = filter_bank("bior2.6")
    x = np.random.default_rng(7).standard_normal(512)
    pyr = dwt(x, fb, 3)
    np.testing.assert_allclose(idwt(pyr, fb), x, atol=1e-8)


def test_dwt_linearity():
    fb = filter_bank("db4")
    x = np.random.default_rng(0).standard_normal(64)
    a = dwt(3.5 * x, fb, 2).concat()
    b = 3.5 * dwt(x, fb, 2).concat()
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_dwt_too_short_and_bad_levels():
    fb = filter_bank("haar")
    with pytest.raises(TooShortError):
        dwt(np.ones(4), fb, 3)          # 4 < 2**3
    with pytest.raises(BadConfigError):
        dwt(np.ones(16), fb, 0)
    fb14 = filter_bank("bior2.6")
    with pytest.raises(TooShortError):
        dwt(np.ones(8), fb14, 1)        # shorter than the filters


def test_idwt_zero_pyramid():
    fb = filter_bank("haar")
    pyr = dwt(np.zeros(32), fb, 3)
    np.testing.assert_array_equal(idwt(pyr, fb), np.zeros(32))


def test_idwt_linearity():
    fb = filter_bank("db4")
    rng = np.random.default_rng(2)
    x1, x2 = rng.standard_normal(48), rng.standard_normal(48)
    p1, p2 = dwt(x1, fb, 2), dwt(x2, fb, 2)
    p1.approx = 2.0 * p1.approx + 0.5 * p2.approx
    p1.details = [2.0 * a + 0.5 * b for a, b in zip(p1.details, p2.details)]
    expect = 2.0 * x1 + 0.5 * x2
    np.testing.assert_allclose(idwt(p1, fb), expect, atol=1e-10)


def test_idwt_inconsistent_pyramid():
    fb = filter_bank("haar")
    pyr = dwt(np.ones(16), fb, 2)
    pyr.lengths = pyr.lengths[:-1]
    with pytest.raises(ShapeMismatchError):
        idwt(pyr, fb)


def test_denoise_zero_signal():
    fb = filter_bank("bior2.6")
    out = denoise(np.zeros(512), fb, 4)
    np.testing.assert_allclose(out, np.zeros(512), atol=1e-12)


def test_denoise_removes_baseline_sinusoid():
    # 0.1 Hz drift sampled at 360 Hz lives in the deepest approximation
    fs = 360.0
    t = np.arange(4096) / fs
    drift = np.sin(2 * np.pi * 0.1 * t)
    out = denoise(drift, filter_bank("bior2.6"), levels=8)
    assert np.sum(out ** 2) < 0.05 * np.sum(drift ** 2)


def test_denoise_improves_noisy_signal():
    # smooth pulse train (sparse in the wavelet domain, like ECG complexes)
    # plus white noise at 10 dB SNR
    rng = np.random.default_rng(42)
    n = 4096
    t = np.arange(n, dtype=float)
    clean = np.zeros(n)
    for c in range(200, n, 400):
        clean += (2.0 * np.exp(-0.5 * ((t - c) / 12.0) ** 2)
                  - 0.8 * np.exp(-0.5 * ((t - c - 60) / 30.0) ** 2))
    sigma = np.sqrt(np.mean(clean ** 2) / 10.0)
    noisy = clean + rng.normal(0, sigma, n)
    out = denoise(noisy, filter_bank("db4"), levels=8)
    rmse_out = np.sqrt(np.mean((out - clean) ** 2))
    rmse_in = np.sqrt(np.mean((noisy - clean) ** 2))
    assert rmse_out < rmse_in


def test_extract_windows_default_geometry():
    fb = filter_bank("bior2.6")
    beat = Beat(values=np.random.default_rng(1).standard_normal(300),
                label="N", source=("r", 0))
    fm = extract_windows(beat, fb, w=50, s=25, wl=2)
    assert fm.columns.shape == (feature_dimension(fb, 50, 2), 11)
    for i in range(11):  # window i starts at sample 25 i
        np.testing.assert_array_equal(fm.columns[:, i],
                                      dwt(beat.values[25 * i:25 * i + 50], fb, 2).concat())


def test_extract_windows_whole_beat():
    fb = filter_bank("haar")
    x = np.random.default_rng(4).standard_normal(300)
    fm = extract_windows(x, fb, w=300, s=1, wl=4)
    assert fm.columns.shape[1] == 1
    np.testing.assert_allclose(fm.columns[:, 0], dwt(x, fb, 4).concat())


def test_extract_windows_zero_beat():
    fm = extract_windows(np.zeros(300), filter_bank("db4"), w=50, s=25, wl=2)
    np.testing.assert_array_equal(fm.columns, np.zeros_like(fm.columns))


def test_extract_windows_dimension_consistency():
    fb = filter_bank("bior2.6")
    rng = np.random.default_rng(9)
    dims = {extract_windows(rng.standard_normal(300), fb, 50, 25, 2).columns.shape[0]
            for _ in range(5)}
    assert dims == {feature_dimension(fb, 50, 2)}


def test_extract_windows_bad_config():
    fb = filter_bank("haar")
    x = np.zeros(300)
    with pytest.raises(BadConfigError):
        extract_windows(x, fb, w=1, s=25, wl=1)
    with pytest.raises(BadConfigError):
        extract_windows(x, fb, w=301, s=25, wl=1)
    with pytest.raises(BadConfigError):
        extract_windows(x, fb, w=50, s=0, wl=1)
    with pytest.raises(BadConfigError):
        extract_windows(x, fb, w=50, s=25, wl=0)
    with pytest.raises(BadConfigError):
        extract_windows(x, fb, w=4, s=2, wl=3)  # w < 2**wl


# --- row transforms: bit for bit the per-window code ------------------------------

GEOMETRIES = [(50, 25, 2), (64, 16, 3), (40, 20, 1), (300, 1, 3), (33, 7, 2)]


def same_bytes(a, b):
    """Equal shapes and bytes: -0.0 and 0.0 differ."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", FILTER_BANK_NAMES)
@pytest.mark.parametrize("w,s,wl", GEOMETRIES)
def test_windows_and_reconstruction_match_per_window_code(name, w, s, wl):
    fb = filter_bank(name)
    rng = np.random.default_rng(w * 1000 + s * 10 + wl)
    for beat in (rng.standard_normal(300), np.zeros(300)):
        Y = extract_windows(beat, fb, w, s, wl).columns
        assert Y.flags.c_contiguous
        assert same_bytes(Y, extract_windows_one(beat, fb, w, s, wl))
        for Y_hat in (Y, Y + rng.standard_normal(Y.shape), -np.zeros_like(Y)):
            assert same_bytes(reconstruct_beat(Y_hat, (w, s, fb, wl)),
                              reconstruct_beat_one(Y_hat, (w, s, fb, wl)))


@pytest.mark.parametrize("name", FILTER_BANK_NAMES)
def test_dwt_idwt_of_rows_match_each_row_alone(name):
    fb = filter_bank(name)
    rng = np.random.default_rng(8)
    for n, levels in ((fb.length, 1), (2 * fb.length + 1, 2), (97, 3), (256, 4)):
        X = rng.standard_normal((5, n))
        X[2] = 0.0
        pyr = dwt(X, fb, levels)
        back = idwt(pyr, fb)
        assert back.shape == X.shape
        for i, x in enumerate(X):
            want = dwt_one(x, fb, levels)
            assert pyr.lengths == want.lengths
            assert same_bytes(pyr.concat()[i], want.concat())
            assert same_bytes(back[i], idwt_one(want, fb))
            assert same_bytes(dwt(x, fb, levels).concat(), want.concat())
            assert same_bytes(idwt(want, fb), idwt_one(want, fb))


@pytest.mark.parametrize("name", FILTER_BANK_NAMES)
def test_hand_built_pyramids_match_per_row_code(name):
    # lengths up to 2A + 1 reach full-mode samples past the band's end, bands
    # shorter than the filters make np.convolve swap its operands, and lengths
    # that do not fit raise ShapeMismatchError, alone or in rows
    fb = filter_bank(name)
    rng = np.random.default_rng(12)
    raised = fitted = 0
    for A in (1, 3, fb.length // 2, fb.length - 1, fb.length + 2, 20):
        rows = rng.standard_normal((2, 3, A))
        rows[:, 1] = 0.0
        for n in range(-1, 2 * A + 3):
            pyrs = [Pyramid(approx=a, details=[d], lengths=[n]) for a, d in zip(*rows)]
            try:
                want = [idwt_one(p, fb) for p in pyrs]
            except ShapeMismatchError:
                raised += 1
                with pytest.raises(ShapeMismatchError):
                    idwt(pyrs[0], fb)
                with pytest.raises(ShapeMismatchError):
                    idwt(Pyramid(approx=rows[0], details=[rows[1]], lengths=[n]), fb)
                continue
            fitted += 1
            got = idwt(Pyramid(approx=rows[0], details=[rows[1]], lengths=[n]), fb)
            for i, p in enumerate(pyrs):
                assert same_bytes(idwt(p, fb), want[i])
                assert same_bytes(got[i], want[i])
    assert raised and fitted


def test_idwt_rejects_bands_of_unequal_rows():
    fb = filter_bank("haar")
    pyr = dwt(np.ones((3, 16)), fb, 2)
    pyr.details[1] = pyr.details[1][:2]
    with pytest.raises(ShapeMismatchError):
        idwt(pyr, fb)


def test_dwt_rejects_three_dimensional_input():
    with pytest.raises(ShapeMismatchError):
        dwt(np.ones((2, 2, 16)), filter_bank("haar"), 1)
