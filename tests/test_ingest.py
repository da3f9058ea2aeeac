"""Record decoding, annotation parsing, segmentation, and normalization."""

import hashlib
import json

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
)


# --- format 212 ------------------------------------------------------------

def _samples(blob, count):
    return decode_212(blob, count).tolist()


def test_decode_212_worked_examples():
    assert _samples(bytes([0x01, 0x00, 0x02]), 2) == [1, 2]
    assert _samples(bytes([0x00, 0xF0, 0xFF]), 2) == [0, -1]
    assert _samples(bytes([0xFF, 0x07, 0x00]), 2) == [2047, 0]


def test_decode_212_sign_extension_extremes():
    # 0x800 is the most negative 12-bit value
    assert _samples(bytes([0x00, 0x08, 0x00]), 2) == [-2048, 0]


def test_decode_212_odd_sample_count():
    # samples come in file order; the fourth sample is ignored
    assert _samples(bytes([0x01, 0x00, 0x02, 0x03, 0x00, 0x04]), 3) == [1, 2, 3]


def test_decode_212_truncated():
    with pytest.raises(TruncatedInputError):
        decode_212(bytes([0x01, 0x00]), 2)


def test_encode_decode_bijection():
    rng = np.random.default_rng(8)
    samples = rng.integers(-2048, 2048, size=128).tolist()
    blob = encode_212(samples)
    assert _samples(blob, 128) == samples
    # and back again byte for byte
    assert encode_212(decode_212(blob, 128)) == blob
    # an odd count is padded with one zero sample
    assert encode_212(samples[:3]) == encode_212(samples[:3] + [0])


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
    (tmp_path / "r9.dat").write_bytes(encode_212([0] * 4000))
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
    (tmp_path / "r01.dat").write_bytes(encode_212(np.column_stack([ch0, ch1]).ravel()))
    (tmp_path / "r01.hea").write_text(
        f"r01 2 360 {n}\nr01.dat 212 200 11 1024 0 0 0 MLII\n"
        "r01.dat 212 200 11 1024 0 0 0 V5\n")
    rec = read_wfdb(tmp_path / "r01.hea")
    assert rec.record_id == "r01"
    assert rec.sampling_rate == 360.0
    assert len(rec.channels) == 2
    assert list(rec.channels[0]) == ch0
    assert list(rec.channels[1]) == ch1


# --- ingest --record output, pinned byte for byte ---------------------------

def _pack_212(samples):
    """Format-212 bytes of samples in file order, packed without the
    package: each pair (a, b) of 12-bit two's-complement values becomes
    a & 0xFF, (a >> 8) | (b >> 8) << 4, b & 0xFF; an odd count is padded
    with a zero sample."""
    vals = [s & 0xFFF for s in samples] + [0] * (len(samples) % 2)
    out = bytearray()
    for a, b in zip(vals[0::2], vals[1::2]):
        out += bytes([a & 0xFF, (a >> 8) | (b >> 8) << 4, b & 0xFF])
    return bytes(out)


# SHA-256 of the beats CSV of each (record, --channel) below
RECORD_CSV_SHA256 = {
    ("one", 0): "82189a62b1b7bb0d96c4da86ed2af928e068ced24d9cf3f028fc2555caf4586f",
    ("two", 0): "79607cdd88de9ef63454f71cc8621c88024a8cdc35261ecc7b1476bd1ed3dc7a",
    ("two", 1): "9e104f2a256323222a0b6b1973e9f953810ab19e9bcd0c52199d9413cd49af75",
}


def test_ingest_record_csv_bytes_are_pinned(tmp_path, capsys):
    # a one-channel record with an odd sample count, and a two-channel
    # record whose channels differ; samples span the full 12-bit range
    rng = np.random.default_rng(31)
    t = np.arange(4001)
    wave = 1500 * np.sin(2 * np.pi * t / 288) * np.exp(-((t % 288) - 144) ** 2 / 800.0)
    one = np.clip(np.round(wave + rng.normal(0, 40, t.size)), -2048, 2047).astype(int)
    two = rng.integers(-2048, 2048, size=(3000, 2))
    two[:, 1] = np.clip(two[:, 1] // 3 + one[:3000], -2048, 2047)
    records = {"one": (1, one.tolist()), "two": (2, two.ravel().tolist())}
    anns = tmp_path / "r.csv"
    # 30 is cut off at the start, 3990 (and 2900 in the 3,000-sample record) at the
    # end; Q is folded to Other and dropped
    anns.write_text("# sample,label\n30,N\n500,N\n900,V\n\n1300,A\n1700,Q\n2100,L\n"
                    "2500,/\n2900,R\n3990,N\n")
    got = {}
    for name, (n_sig, samples) in records.items():
        (tmp_path / f"{name}.dat").write_bytes(_pack_212(samples))
        (tmp_path / f"{name}.hea").write_text(
            f"{name} {n_sig} 360 {len(samples) // n_sig}\n"
            + f"{name}.dat 212 200 11 1024 0 0 0 ch\n" * n_sig)
        for channel in range(n_sig):
            out = tmp_path / f"{name}{channel}.csv"
            status = run_command(["ingest", "--record", str(tmp_path / f"{name}.hea"),
                                  "--annotations", str(anns), "--channel", str(channel),
                                  "--out", str(out)])
            assert status == 0, capsys.readouterr().err
            summary = json.loads(capsys.readouterr().out)
            assert (summary["beats"], summary["skipped"]) == {"one": (6, 2),
                                                              "two": (5, 3)}[name]
            got[name, channel] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == RECORD_CSV_SHA256


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
    return EcgRecord(record_id="t", sampling_rate=fs, channels=[ch, ch.copy()])


def test_segment_window_arithmetic():
    rec = _record()
    anns = read_annotations("1000,N\n".splitlines())
    [beat], skipped = process_record(rec, anns, pre_s=0.25, post_s=0.45)
    assert skipped == 0
    assert beat.label == "N"
    assert beat.source == ("t", 1000)
    # the beat is made from the 252 samples of [910, 1162)
    np.testing.assert_array_equal(
        beat.values, normalize_beat(resample_to_300(rec.channels[0][910:1162])))


def test_segment_skips_out_of_bounds():
    rec = _record()
    anns = read_annotations("10,N\n2995,V\n1000,N\n".splitlines())
    beats, skipped = process_record(rec, anns, 0.25, 0.45)
    assert skipped == 2
    assert len(beats) == 1


def test_segment_count_conservation():
    rec = _record()
    anns = read_annotations("500,N\n1000,N\n1500,N\n2000,Other\n".splitlines())
    beats, skipped = process_record(rec, anns, 0.25, 0.45)
    # Other is not a target class; the three N beats all fit
    assert skipped == 0
    assert [b.label for b in beats] == ["N", "N", "N"]


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
