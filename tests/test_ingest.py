"""Record decoding, annotation parsing, segmentation, and normalization."""

import numpy as np
import pytest

from ecgsparse.cli import run_command
from ecgsparse.errors import ParseError, TruncatedInputError
from ecgsparse.ingest import (
    BEAT_LENGTH,
    EcgRecord,
    decode_212,
    encode_212,
    format_beats_csv,
    normalize_beat,
    process_record,
    read_annotations,
    read_beats_csv,
    read_header,
    read_wfdb,
    resample_to_300,
    segment_beats,
)


# --- format 212 ------------------------------------------------------------

def _pairs(blob, count):
    ch0, ch1 = decode_212(blob, count)
    return [[int(v) for v in ch0], [int(v) for v in ch1]]


def test_decode_212_worked_examples():
    assert _pairs(bytes([0x01, 0x00, 0x02]), 2) == [[1], [2]]
    assert _pairs(bytes([0x00, 0xF0, 0xFF]), 2) == [[0], [-1]]
    assert _pairs(bytes([0xFF, 0x07, 0x00]), 2) == [[2047], [0]]


def test_decode_212_sign_extension_extremes():
    # 0x800 is the most negative 12-bit value
    assert _pairs(bytes([0x00, 0x08, 0x00]), 2) == [[-2048], [0]]


def test_decode_212_odd_sample_count():
    ch0, ch1 = _pairs(bytes([0x01, 0x00, 0x02, 0x03, 0x00, 0x04]), 3)
    # samples alternate channels; the fourth sample is ignored
    assert ch0 == [1, 3]
    assert ch1 == [2]


def test_decode_212_truncated():
    with pytest.raises(TruncatedInputError):
        decode_212(bytes([0x01, 0x00]), 2)


def test_encode_decode_bijection():
    rng = np.random.default_rng(8)
    ch0 = rng.integers(-2048, 2048, size=64).tolist()
    ch1 = rng.integers(-2048, 2048, size=64).tolist()
    blob = encode_212(ch0, ch1)
    assert _pairs(blob, 128) == [ch0, ch1]
    # and back again byte for byte
    assert encode_212(*decode_212(blob, 128)) == blob


# --- header + record reading ------------------------------------------------

HEADER = "100 2 360 650000\n100.dat 212 200 11 1024 995 -22131 0 MLII\n100.dat 212 200 11 1024 1011 20052 0 V5\n"


def test_read_header():
    record_id, n_sig, fs, n_samp, dat_name = read_header(HEADER)
    assert record_id == "100"
    assert n_sig == 2
    assert fs == 360.0
    assert n_samp == 650000
    assert dat_name == "100.dat"


def test_read_header_malformed():
    with pytest.raises(ParseError):
        read_header("garbage\n")


def test_read_header_lines_end_only_at_newlines():
    # a U+2028 LINE SEPARATOR does not end the signal line, so its format
    # field is still read and refused; \r and \r\n end lines, and a comment
    # may be indented
    with pytest.raises(ParseError, match="format '16'"):
        read_header("100 2 360 650000\n100.dat\u2028 16 200\n")
    assert read_header("100 2 360 650000\r\n  # note\r100.dat 212 200\r\n") == (
        "100", 2, 360.0, 650000, "100.dat")


def test_read_header_names_file_lines():
    # blank and comment lines count: the error names the line of the file
    with pytest.raises(ParseError, match="line 4: unsupported signal format '16'"):
        read_header("100 2 360 650000\n# c\n\n100.dat 16 200\n")
    with pytest.raises(ParseError, match="line 2: bad header field"):
        read_header("# note\n100 2 x 650000\n")


@pytest.mark.parametrize("fs", ["nan", "inf", "1e400", "-inf"])
def test_read_header_non_finite_rate(fs, tmp_path, capsys):
    # a damaged sampling rate is the header's fault, named on its line 1
    with pytest.raises(ParseError, match="line 1: header values out of range"):
        read_header(f"r9 1 {fs} 2000\nr9.dat 212 200 11 1024 0 0 0 MLII\n")
    (tmp_path / "r9.hea").write_text(f"r9 1 {fs} 2000\nr9.dat 212 200 11 1024 0 0 0 MLII\n")
    (tmp_path / "r9.dat").write_bytes(encode_212([0] * 2000, [0] * 2000))
    (tmp_path / "r9.csv").write_text("1000,N\n")
    status = run_command(["ingest", "--record", str(tmp_path / "r9.hea"),
                          "--annotations", str(tmp_path / "r9.csv"),
                          "--out", str(tmp_path / "beats.csv")])
    err = capsys.readouterr().err
    assert status == 2 and "ParseError" in err, err
    assert not (tmp_path / "beats.csv").exists()


def test_read_wfdb_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    n = 2000
    ch0 = rng.integers(-2048, 2048, size=n).tolist()
    ch1 = rng.integers(-2048, 2048, size=n).tolist()
    (tmp_path / "r01.dat").write_bytes(encode_212(ch0, ch1))
    (tmp_path / "r01.hea").write_text(
        f"r01 2 360 {n}\nr01.dat 212 200 11 1024 0 0 0 MLII\n"
        "r01.dat 212 200 11 1024 0 0 0 V5\n")
    rec = read_wfdb(tmp_path / "r01.hea")
    assert rec.record_id == "r01"
    assert rec.sampling_rate == 360.0
    assert rec.samples_per_channel == n
    assert list(rec.channels[0]) == ch0
    assert list(rec.channels[1]) == ch1


# --- annotations -------------------------------------------------------------

def test_read_annotations_parse_and_sort():
    anns = read_annotations("450,V\n100,N\n".splitlines())
    assert [(a.sample_index, a.label) for a in anns] == [(100, "N"), (450, "V")]


def test_read_annotations_unknown_label():
    anns = read_annotations("100,Q\n".splitlines())
    assert anns[0].label == "Other"


def test_read_annotations_comments_and_blanks():
    anns = read_annotations("# header\n\n10,N\n  \n20,/\n".splitlines())
    assert [(a.sample_index, a.label) for a in anns] == [(10, "N"), (20, "/")]


def test_read_annotations_parse_error_line_number():
    with pytest.raises(ParseError) as err:
        read_annotations("10,N\nnot-a-number,V\n".splitlines())
    assert err.value.line_no == 2


# --- segmentation -----------------------------------------------------------

def _record(n=3000, fs=360.0):
    rng = np.random.default_rng(0)
    ch = rng.integers(-500, 500, size=n)
    return EcgRecord(record_id="t", sampling_rate=fs,
                     samples_per_channel=n, channels=[ch, ch.copy()])


def test_segment_window_arithmetic():
    rec = _record()
    anns = read_annotations("1000,N\n".splitlines())
    segments, skipped = segment_beats(rec, anns, pre_s=0.25, post_s=0.45)
    assert skipped == 0
    values, label, index = segments[0]
    assert label == "N"
    assert index == 1000
    assert len(values) == 252  # [910, 1162)
    np.testing.assert_array_equal(values, rec.channels[0][910:1162])


def test_segment_skips_out_of_bounds():
    rec = _record()
    anns = read_annotations("10,N\n2995,V\n1000,N\n".splitlines())
    segments, skipped = segment_beats(rec, anns, 0.25, 0.45)
    assert skipped == 2
    assert len(segments) == 1


def test_segment_count_conservation():
    rec = _record()
    anns = read_annotations("500,N\n1000,N\n1500,N\n2000,Other\n".splitlines())
    segments, skipped = segment_beats(rec, anns, 0.25, 0.45)
    # Other is not a target class; the three N beats all fit
    assert skipped == 0
    assert [s[1] for s in segments] == ["N", "N", "N"]


# --- resampling + normalization ----------------------------------------------

def test_resample_identity_at_300():
    x = np.random.default_rng(1).standard_normal(300)
    np.testing.assert_array_equal(resample_to_300(x), x)


def test_resample_constant():
    np.testing.assert_allclose(resample_to_300(np.full(123, 2.5)),
                               np.full(300, 2.5), atol=1e-12)


def test_resample_linear_ramp():
    for n in (100, 252, 471):
        ramp = np.arange(n, dtype=float)
        out = resample_to_300(ramp)
        expect = np.linspace(0, n - 1, BEAT_LENGTH)
        assert np.max(np.abs(out - expect)) < 1e-12
        assert out[0] == 0.0 and out[-1] == n - 1


def test_normalize_constant_to_zeros():
    np.testing.assert_array_equal(normalize_beat(np.ones(300)), np.zeros(300))


def test_normalize_mean_std():
    b = np.random.default_rng(2).standard_normal(300) * 7 + 3
    out = normalize_beat(b)
    assert abs(np.mean(out)) < 1e-9
    assert abs(np.std(out) - 1.0) < 1e-9


def test_normalize_affine_invariance():
    b = np.random.default_rng(3).standard_normal(300)
    np.testing.assert_allclose(normalize_beat(5 * b + 3), normalize_beat(b),
                               atol=1e-9)


def test_normalize_idempotent():
    b = np.random.default_rng(4).standard_normal(300)
    once = normalize_beat(b)
    np.testing.assert_allclose(normalize_beat(once), once, atol=1e-9)


def test_process_record_emits_300_sample_beats():
    rec = _record(n=5000)
    anns = read_annotations("700,N\n1500,V\n2300,A\n3100,Q\n4000,L\n".splitlines())
    beats, skipped = process_record(rec, anns)
    assert skipped == 0
    assert len(beats) == 4  # Q maps to Other and is dropped
    for b in beats:
        assert len(b.values) == BEAT_LENGTH
        assert abs(np.mean(b.values)) < 1e-9
        assert b.source[0] == "t"


# --- beats CSV fallback -------------------------------------------------------

def test_beats_csv_roundtrip():
    rng = np.random.default_rng(6)
    rows = []
    for label in ("N", "V", "/"):
        vals = rng.standard_normal(300)
        rows.append(label + "," + ",".join(f"{v:.9g}" for v in vals))
    beats = read_beats_csv("\n".join(rows).splitlines())
    assert [b.label for b in beats] == ["N", "V", "/"]
    again = read_beats_csv(format_beats_csv(beats).splitlines())
    for a, b in zip(beats, again):
        assert a.label == b.label
        np.testing.assert_allclose(a.values, b.values, atol=1e-7)


def test_beats_csv_wrong_column_count():
    with pytest.raises(ParseError):
        read_beats_csv("N,1.0,2.0\n".splitlines())


def test_beats_csv_rejects_non_finite():
    good = "N," + ",".join(["0.5"] * 300)
    for bad in ("nan", "inf", "-inf"):
        cells = ["V"] + ["0.25"] * 300
        cells[17] = bad
        with pytest.raises(ParseError, match="^line 3: "):
            read_beats_csv("\n".join([good, "# comment", ",".join(cells)]).splitlines())
