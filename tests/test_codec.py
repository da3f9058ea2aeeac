"""Sparse codec: triplet codes, beat reconstruction, metrics, SBC1 format."""

import struct

import numpy as np
import pytest

from ecgsparse.dictionary import MAX_K
from ecgsparse.ingest import OTHER_LABEL, normalize_beat
from ecgsparse.errors import CorruptFileError, DegenerateInputError, ShapeMismatchError
from ecgsparse.codec import (
    SparseCode,
    compress,
    cr_metric,
    decompress,
    err_metric,
    load_codes,
    parse_codes,
    reconstruct_beat,
    save_codes,
)
from ecgsparse import codec
from ecgsparse.sparse_coding import BLOCK_COLUMNS, encode_all
from ecgsparse.wavelet import extract_windows, filter_bank
from ecgsparse.synthetic import MORPHOLOGIES, render_beat
from verification import CodingProblem, feature_sign, same_code, serialize_codes


def unit_dict(rng, d, k):
    D = rng.standard_normal((d, k))
    return D / np.linalg.norm(D, axis=0, keepdims=True)


def synthetic_values(seed, labels, noise=0.05):
    """Normalized synthetic beats of the given classes, in order, drawn from
    one seeded stream."""
    rng = np.random.default_rng(seed)
    return [normalize_beat(render_beat(MORPHOLOGIES[label], rng, noise)) for label in labels]


def random_codes(rng, count, k=9, omega=4):
    codes = []
    for i in range(count):
        X = rng.standard_normal((k, omega)) * (rng.random((k, omega)) < 0.3)
        # values must be float32-representable to survive the SBC1 disk format
        X = X.astype(np.float32).astype(float)
        codes.append(SparseCode.from_dense(
            X, label=rng.choice(["N", "V", "/", "A", "R", "L", "Other"]),
            source_id=f"beat{i}"))
    return codes


# --- representation -------------------------------------------------------------

def test_from_dense_canonical_order():
    X = np.zeros((4, 3))
    X[3, 0] = 1.0
    X[1, 0] = 2.0
    X[0, 2] = -1.0
    code = SparseCode.from_dense(X)
    assert list(zip(code.rows, code.cols)) == [(1, 0), (3, 0), (0, 2)]
    np.testing.assert_array_equal(code.to_dense(), X)
    assert code.nnz == 3


def test_compress_zero_features():
    rng = np.random.default_rng(0)
    D = unit_dict(rng, 5, 8)
    code, = compress(D, [np.zeros((5, 3))], lam=0.1)
    assert code.nnz == 0
    assert code.omega == 3


def test_compress_large_lambda_empty():
    rng = np.random.default_rng(1)
    D = unit_dict(rng, 5, 8)
    Y = rng.standard_normal((5, 3))
    lam = float(np.max(np.abs(D.T @ Y))) + 0.1
    code, = compress(D, [Y], lam)
    assert code.nnz == 0


def test_compress_densify_matches_encode_all():
    rng = np.random.default_rng(2)
    D = unit_dict(rng, 6, 10)
    Y = rng.standard_normal((6, 4))
    code, = compress(D, [Y], lam=0.2)
    np.testing.assert_allclose(code.to_dense(), encode_all(D, Y, 0.2),
                               atol=1e-12)


def test_compress_codes_every_beat_in_one_call():
    rng = np.random.default_rng(5)
    D = unit_dict(rng, 6, 10)
    windows = [rng.standard_normal((6, omega)) for omega in (3, 1, 4)]
    counts = {}
    codes = list(compress(D, windows, 0.2, ["N", "V", "A"], ["a", "b", "c"], counts))
    assert [c.omega for c in codes] == [3, 1, 4]
    assert [(c.label, c.source_id) for c in codes] == [("N", "a"), ("V", "b"), ("A", "c")]
    assert counts["solves"] > 0
    X = encode_all(D, np.hstack(windows), 0.2)
    for code, Xb in zip(codes, np.split(X, [3, 4], axis=1)):
        assert same_code(code, SparseCode.from_dense(Xb, label=code.label))
    alone, = compress(D, windows[1:2], 0.2)
    assert (alone.label, alone.source_id) == (OTHER_LABEL, "")
    ids_only = compress(D, windows, 0.2, source_ids=iter(["a", "b", "c"]))
    assert [(c.label, c.source_id) for c in ids_only] == [(OTHER_LABEL, s) for s in "abc"]
    assert list(compress(D, [], 0.2)) == []


@pytest.mark.parametrize("labels, ids", [
    (["N", "V"], None),                   # one label short
    (["N", "V", "A", "N"], None),         # one label too many
    (None, ["a", "b"]),                   # one source id short
    (["N", "V", "A"], iter(["a", "b"])),  # an iterator short
], ids=["short-labels", "long-labels", "short-ids", "short-id-iterator"])
def test_compress_label_and_id_lists_must_match_beats(labels, ids):
    rng = np.random.default_rng(6)
    D = unit_dict(rng, 6, 10)
    windows = [rng.standard_normal((6, omega)) for omega in (3, 1, 4)]
    with pytest.raises(ValueError):
        list(compress(D, windows, 0.2, labels, ids))


@pytest.mark.parametrize("widths", [
    [1],                                  # coded from a d x 1 matrix, as np.hstack gives it
    [1] * (BLOCK_COLUMNS + 1),            # two chunks, the second one strided column
    [11] * 50,                            # beat 46 spans columns 506..516
], ids=["one-column", "block-plus-one", "straddling-beat"])
def test_streamed_compress_matches_one_encode_all(widths, monkeypatch):
    # compress codes its columns chunk by chunk; the codes and the solver
    # tallies are those of one encode_all call on all the columns side by
    # side.  At d = 75, D'y on a contiguous column rounds differently from
    # one on a strided column in most draws, so the one-column case sees
    # the layout of the matrix its column is coded from
    rng = np.random.default_rng(len(widths))
    D = unit_dict(rng, 75, 100)
    windows = [rng.standard_normal((75, w)) for w in widths]
    labels = ["NV"[i % 2] for i in range(len(widths))]
    ids = [f"b{i}" for i in range(len(widths))]
    expected = {}
    X = encode_all(D, np.hstack(windows), 1.0, counts=expected)
    assert np.count_nonzero(X, axis=0).all()
    calls = []

    def counted(D, Y, lam, counts=None):
        calls.append(Y.shape[1])
        return encode_all(D, Y, lam, counts=counts)

    monkeypatch.setattr(codec, "encode_all", counted)
    counts = {}
    stream = compress(D, iter(windows), 1.0, labels, ids, counts)
    first = next(stream)
    assert len(calls) == 1  # a code comes out once its chunk is coded
    codes = [first, *stream]
    assert calls == [min(BLOCK_COLUMNS, sum(widths) - lo)
                     for lo in range(0, sum(widths), BLOCK_COLUMNS)]
    assert counts == expected
    assert len(codes) == len(widths)
    for code, Xb, label, sid in zip(codes, np.split(X, np.cumsum(widths)[:-1], axis=1),
                                    labels, ids, strict=True):
        assert same_code(code, SparseCode.from_dense(Xb, label=label))
        assert code.source_id == sid


def test_decompress_empty_and_single_triplet():
    rng = np.random.default_rng(3)
    D = unit_dict(rng, 5, 7)
    empty = SparseCode.from_dense(np.zeros((7, 2)))
    np.testing.assert_array_equal(decompress(D, empty), np.zeros((5, 2)))
    one = SparseCode(k=7, omega=2, rows=np.array([4]), cols=np.array([1]),
                     vals=np.array([2.5]))
    out = decompress(D, one)
    np.testing.assert_array_equal(out[:, 0], np.zeros(5))
    np.testing.assert_allclose(out[:, 1], 2.5 * D[:, 4], atol=1e-12)


def test_codec_adds_no_error():
    # decompress(compress(Y)) residual per column == feature-sign residual
    rng = np.random.default_rng(4)
    D = unit_dict(rng, 6, 9)
    Y = rng.standard_normal((6, 5))
    lam = 0.15
    code, = compress(D, [Y], lam)
    Yhat = decompress(D, code)
    for i in range(5):
        x = feature_sign(CodingProblem(dictionary=D, target=Y[:, i], lam=lam))
        direct = np.linalg.norm(Y[:, i] - D @ x)
        via_codec = np.linalg.norm(Y[:, i] - Yhat[:, i])
        assert abs(direct - via_codec) <= 1e-12


def test_sbc1_refuses_more_windows_than_samples():
    with pytest.raises(ShapeMismatchError, match="^beat 0: 301 windows"):
        serialize_codes([SparseCode.from_dense(np.ones((2, 301)))])
    with pytest.raises(ShapeMismatchError, match="^beat 0: no windows"):
        serialize_codes([SparseCode.from_dense(np.ones((2, 0)))])
    assert parse_codes(serialize_codes([SparseCode.from_dense(np.ones((2, 300)))]))[0].omega == 300


# --- beat reconstruction ---------------------------------------------------------

def test_reconstruct_exact_features_recovers_beat():
    fb = filter_bank("bior2.6")
    [beat] = synthetic_values(0, "N")
    fm = extract_windows(beat, fb, w=50, s=25, wl=2)
    out = reconstruct_beat(fm.columns, (50, 25, fb, 2))
    np.testing.assert_allclose(out, beat, atol=1e-6)


def test_reconstruct_whole_beat_window():
    fb = filter_bank("haar")
    [beat] = synthetic_values(1, "V")
    fm = extract_windows(beat, fb, w=300, s=1, wl=3)
    out = reconstruct_beat(fm.columns, (300, 1, fb, 3))
    np.testing.assert_allclose(out, beat, atol=1e-8)


def test_reconstruct_constant_averaging():
    # overlapping windows of a constant stay constant under uniform averaging
    fb = filter_bank("haar")
    const = np.full(300, 1.7)
    fm = extract_windows(const, fb, w=60, s=20, wl=2)
    out = reconstruct_beat(fm.columns, (60, 20, fb, 2))
    np.testing.assert_allclose(out, const, atol=1e-10)


# --- metrics ----------------------------------------------------------------------

def test_err_metric_zero_for_perfect():
    rng = np.random.default_rng(5)
    beats = [rng.standard_normal(300) for _ in range(4)]
    assert err_metric(beats, [b.copy() for b in beats]) == pytest.approx(0.0)


def test_err_metric_worked_example():
    N = np.zeros(300)
    N[0], N[1] = 3.0, 4.0
    M = N.copy()
    M[1] = 4.5
    assert err_metric([M], [N]) == pytest.approx(0.10, abs=1e-12)


def test_err_metric_degenerate_original():
    with pytest.raises(DegenerateInputError):
        err_metric([np.ones(300)], [np.zeros(300)])


def test_err_metric_permutation_invariant():
    rng = np.random.default_rng(6)
    Ns = [rng.standard_normal(300) for _ in range(5)]
    Ms = [n + 0.1 * rng.standard_normal(300) for n in Ns]
    fwd = err_metric(Ms, Ns)
    rev = err_metric(Ms[::-1], Ns[::-1])
    assert fwd == pytest.approx(rev, abs=1e-15)


def test_cr_metric_worked_examples():
    i = np.arange(135)
    code135 = SparseCode(k=600, omega=11, rows=i % 600, cols=i % 11,
                         vals=1.0 + i)
    assert cr_metric([code135]) == pytest.approx(0.55, abs=1e-12)
    empty = SparseCode.from_dense(np.zeros((10, 5)))
    assert cr_metric([empty]) == pytest.approx(1.0, abs=1e-15)


def test_err_cr_tradeoff_monotone_in_lambda():
    rng = np.random.default_rng(7)
    fb = filter_bank("haar")
    beats = synthetic_values(7, "NNNNVVVV", noise=0.01)
    D = unit_dict(rng, 51, 80)
    geo = (50, 25, fb, 2)
    errs, crs = [], []
    for lam in (0.02, 0.1, 0.5):
        codes = list(compress(D, [extract_windows(b, fb, 50, 25, 2).columns for b in beats],
                              lam))
        recons = [reconstruct_beat(decompress(D, code), geo) for code in codes]
        errs.append(err_metric(recons, beats))
        crs.append(cr_metric(codes))
    assert errs == sorted(errs)
    assert crs == sorted(crs)


# --- SBC1 file format ---------------------------------------------------------------

def test_sbc1_roundtrip_exact():
    rng = np.random.default_rng(8)
    codes = random_codes(rng, 5)
    out = parse_codes(serialize_codes(codes))
    assert len(out) == len(codes) and all(map(same_code, out, codes))


def test_sbc1_empty_list():
    blob = serialize_codes([])
    assert parse_codes(blob) == []


def test_sbc1_serialization_canonical():
    rng = np.random.default_rng(9)
    codes = random_codes(rng, 3)
    blob = serialize_codes(codes)
    assert serialize_codes(parse_codes(blob)) == blob


def test_sbc1_drops_float32_zero_values():
    # a value that underflows to zero in float32 cannot be stored faithfully
    X = np.zeros((4, 2))
    X[0, 0], X[2, 1] = 1e-50, 1.0
    out = parse_codes(serialize_codes([SparseCode.from_dense(X)]))[0]
    assert list(zip(out.rows, out.cols)) == [(2, 1)]


def test_sbc1_refuses_non_finite_values():
    # a value that overflows float32, or is NaN, would be refused on reading
    for bad in (1e300, np.nan, -np.inf):
        code = SparseCode(k=3, omega=2, rows=np.array([0, 2]), cols=np.array([0, 1]),
                          vals=np.array([1.0, bad]))
        with pytest.raises(DegenerateInputError, match="^beat 0: "):
            serialize_codes([code])


def sbc1_record(k, omega, triplets, label_code=0):
    """One-beat SBC1 file built field by field with struct."""
    body = b"".join(struct.pack("<IIf", r, c, v) for r, c, v in triplets)
    return (b"SBC1" + struct.pack("<II", k, 1)
            + struct.pack("<IBI", omega, label_code, len(triplets)) + body)


def test_sbc1_corrupt_inputs():
    rng = np.random.default_rng(10)
    blob = serialize_codes(random_codes(rng, 2))
    with pytest.raises(CorruptFileError):
        parse_codes(b"NOPE" + blob[4:])
    with pytest.raises(CorruptFileError):
        parse_codes(blob[:-3])          # truncated
    with pytest.raises(CorruptFileError):
        parse_codes(blob + b"\x00")     # trailing garbage
    assert parse_codes(sbc1_record(3, 2, [(0, 0, 1.0), (2, 1, -2.0)]))[0].nnz == 2
    top = 2 ** 32 - 1
    for what, bad in [
            ("out of range", sbc1_record(3, 2, [(3, 0, 1.0)])),
            ("out of range", sbc1_record(3, 2, [(0, 2, 1.0)])),
            ("zero", sbc1_record(3, 2, [(0, 0, 1.0), (1, 0, 0.0)])),
            ("non-finite", sbc1_record(3, 2, [(1, 1, float("nan"))])),
            ("non-finite", sbc1_record(3, 2, [(0, 0, float("inf"))])),
            ("canonical", sbc1_record(3, 2, [(1, 0, 1.0), (1, 0, 1.0)])),
            ("label", sbc1_record(3, 2, [(0, 0, 1.0)], label_code=7)),
            ("windows exceed", sbc1_record(3, 301, [(0, 300, 1.0)])),
            ("no windows", sbc1_record(3, 0, [])),
            # k and Omega near 2**32, where a flattened col * k + row key
            # would wrap int64 and see these descending columns as ascending
            ("windows exceed", sbc1_record(top, top, [(0, 2 ** 31 + 1, 1.0),
                                                      (0, 2 ** 31, 1.0)])),
            ("canonical", sbc1_record(top, 300, [(top - 1, 5, 1.0), (0, 4, 1.0)]))]:
        with pytest.raises(CorruptFileError, match=f"^beat 0: .*{what}"):
            parse_codes(bad)


def test_sbc1_bounds_k():
    with pytest.raises(ShapeMismatchError, match="exceeds"):
        serialize_codes([SparseCode.from_dense(np.zeros((MAX_K + 1, 1)))])
    blob = serialize_codes([SparseCode.from_dense(np.zeros((MAX_K, 1)))])
    assert parse_codes(blob)[0].k == MAX_K
    with pytest.raises(CorruptFileError, match="header k"):
        parse_codes(blob[:4] + struct.pack("<I", MAX_K + 1) + blob[8:])


def test_sbc1_rejects_non_canonical_order():
    good = serialize_codes([SparseCode.from_dense([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]])])
    # swap the two 12-byte triplet records after the 21-byte headers
    start = 4 + 4 + 4 + 4 + 1 + 4
    a = good[start:start + 12]
    b = good[start + 12:start + 24]
    bad = good[:start] + b + a + good[start + 24:]
    with pytest.raises(CorruptFileError):
        parse_codes(bad)


def test_save_load_codes(tmp_path):
    rng = np.random.default_rng(11)
    codes = random_codes(rng, 4)
    path = tmp_path / "codes.sbc"
    assert save_codes(path, codes, len(codes)) == path.stat().st_size
    out = load_codes(path)
    assert len(out) == len(codes) and all(map(same_code, out, codes))
    assert [c.label for c in out] == [c.label for c in codes]
