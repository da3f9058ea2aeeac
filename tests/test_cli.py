"""Command-line interface: dispatch, exit codes, artifacts, determinism."""

import json
import os

import numpy as np
import pytest

from ecgsparse.errors import BadConfigError, TooFewPerClassError
from ecgsparse.cli import run_command, split_dataset
from ecgsparse.dictionary import load_dictionary, save_dictionary
from ecgsparse.codec import load_codes
from ecgsparse.fileio import atomic_write_bytes, atomic_write_text
from ecgsparse.ingest import read_beats_csv
from ecgsparse.synthetic import synthetic_beats


def run(capsys, *argv):
    """Invoke the CLI and return (exit status, parsed summary or None, stderr)."""
    status = run_command(list(argv))
    captured = capsys.readouterr()
    summary = None
    for line in captured.out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            summary = json.loads(line)
    return status, summary, captured.err


# --- split_dataset ---------------------------------------------------------------

def test_split_proportional():
    beats = synthetic_beats(100, seed=0)
    train, test = split_dataset(beats, train_total=300, seed=1)
    assert len(train) == 300 and len(test) == 300
    for label in "N/AVRL":
        assert sum(b.label == label for b in train) == 50


def test_split_per_class_too_few():
    beats = synthetic_beats(80, seed=0)
    with pytest.raises(TooFewPerClassError):
        split_dataset(beats, train_per_class=100)


def test_split_deterministic_and_disjoint():
    beats = synthetic_beats(20, seed=0)
    t1, e1 = split_dataset(beats, train_frac=0.6, seed=5)
    t2, e2 = split_dataset(beats, train_frac=0.6, seed=5)
    assert [b.source for b in t1] == [b.source for b in t2]
    assert [b.source for b in e1] == [b.source for b in e2]
    overlap = {b.source for b in t1} & {b.source for b in e1}
    assert not overlap
    assert len(t1) + len(e1) == len(beats)


def test_split_covers_every_class():
    beats = synthetic_beats(10, seed=0)
    train, _ = split_dataset(beats, train_total=6, seed=0)
    assert {b.label for b in train} == {"N", "/", "A", "V", "R", "L"}


def test_split_conflicting_rules():
    beats = synthetic_beats(5, seed=0)
    with pytest.raises(BadConfigError):
        split_dataset(beats, train_total=10, train_per_class=2)


# --- atomic writes -----------------------------------------------------------------

def test_atomic_write_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_failure_leaves_no_partial(tmp_path):
    target = tmp_path / "out.bin"
    with pytest.raises(TypeError):
        atomic_write_bytes(target, object())  # not bytes
    assert os.listdir(tmp_path) == []


# --- dispatch + exit codes -----------------------------------------------------------

def test_unknown_command_exits_1(capsys):
    status, _, _ = run(capsys, "frobnicate")
    assert status == 1


def test_missing_required_flag_exits_1(capsys):
    status, _, _ = run(capsys, "ingest")
    assert status == 1


def test_missing_input_file_exits_2(capsys, tmp_path):
    status, _, err = run(capsys, "encode",
                         "--beats", str(tmp_path / "nope.csv"),
                         "--dict", str(tmp_path / "nope.sbd"),
                         "--out", str(tmp_path / "codes.sbc"))
    assert status == 2


# --- ingest -------------------------------------------------------------------------

def test_ingest_synthetic(capsys, tmp_path):
    out = tmp_path / "beats.csv"
    status, summary, _ = run(capsys, "ingest", "--synthetic", "4",
                             "--seed", "2", "--out", str(out))
    assert status == 0
    assert summary["command"] == "ingest"
    assert summary["beats"] == 24
    assert summary["schema_version"] == 1
    beats = read_beats_csv(out.read_text())
    assert len(beats) == 24
    assert all(len(b.values) == 300 for b in beats)


def test_ingest_from_record(capsys, tmp_path):
    from ecgsparse.ingest import encode_212

    rng = np.random.default_rng(0)
    n = 4000
    ch = rng.integers(-900, 900, size=n).tolist()
    (tmp_path / "r9.dat").write_bytes(encode_212(ch, ch))
    (tmp_path / "r9.hea").write_text(
        f"r9 2 360 {n}\nr9.dat 212 200 11 1024 0 0 0 MLII\n"
        "r9.dat 212 200 11 1024 0 0 0 V5\n")
    (tmp_path / "r9.csv").write_text("500,N\n1500,V\n2500,A\n3500,L\n")
    out = tmp_path / "beats.csv"
    status, summary, _ = run(capsys, "ingest",
                             "--record", str(tmp_path / "r9.hea"),
                             "--annotations", str(tmp_path / "r9.csv"),
                             "--out", str(out))
    assert status == 0
    assert summary["beats"] == 4
    assert summary["skipped"] == 0


# --- the compression chain ------------------------------------------------------------

@pytest.fixture
def small_chain(capsys, tmp_path):
    """beats.csv -> dict.sbd -> codes.sbc with tiny sizes, for reuse."""
    beats_csv = tmp_path / "beats.csv"
    run(capsys, "ingest", "--synthetic", "4", "--seed", "3",
        "--out", str(beats_csv))
    dict_path = tmp_path / "dict.sbd"
    status, _, _ = run(capsys, "train-dict", "--beats", str(beats_csv),
                       "--k", "80", "--epochs", "1", "--seed", "3",
                       "--out", str(dict_path))
    assert status == 0
    codes_path = tmp_path / "codes.sbc"
    status, _, _ = run(capsys, "encode", "--beats", str(beats_csv),
                       "--dict", str(dict_path), "--out", str(codes_path))
    assert status == 0
    return tmp_path, beats_csv, dict_path, codes_path


def test_train_dict_and_encode(capsys, small_chain):
    tmp_path, beats_csv, dict_path, codes_path = small_chain
    D = load_dictionary(dict_path)
    assert D.shape == (75, 80)  # default geometry: bior2.6, w=50, wl=2 -> d=75
    codes = load_codes(codes_path)
    assert len(codes) == 24
    assert all(c.k == 80 and c.omega == 11 for c in codes)
    labels = {c.label for c in codes}
    assert labels == {"N", "/", "A", "V", "R", "L"}


def test_train_dict_vq_method(capsys, tmp_path, small_chain):
    _, beats_csv, _, _ = small_chain
    out = tmp_path / "vq.sbd"
    status, summary, _ = run(capsys, "train-dict", "--beats", str(beats_csv),
                             "--method", "vq", "--k", "40", "--out", str(out))
    assert status == 0
    assert summary["method"] == "vq"
    assert load_dictionary(out).shape == (75, 40)


def test_encode_deterministic_bytes(capsys, small_chain, tmp_path):
    _, beats_csv, dict_path, codes_path = small_chain
    again = tmp_path / "codes2.sbc"
    status, _, _ = run(capsys, "encode", "--beats", str(beats_csv),
                       "--dict", str(dict_path), "--out", str(again))
    assert status == 0
    assert again.read_bytes() == codes_path.read_bytes()


def test_encode_non_finite_dictionary_exits_2(capsys, small_chain, tmp_path):
    _, beats_csv, dict_path, _ = small_chain
    D = load_dictionary(dict_path)
    D[3, 7] = np.nan
    bad = tmp_path / "nan.sbd"
    save_dictionary(bad, D)
    out = tmp_path / "nan.sbc"
    status, _, err = run(capsys, "encode", "--beats", str(beats_csv),
                         "--dict", str(bad), "--out", str(out))
    assert status == 2
    assert "CorruptFileError" in err and not out.exists()


def test_metrics_outputs(capsys, small_chain, tmp_path):
    _, beats_csv, dict_path, codes_path = small_chain
    out_json = tmp_path / "metrics.json"
    out_csv = tmp_path / "metrics.csv"
    status, summary, _ = run(capsys, "metrics", "--beats", str(beats_csv),
                             "--dict", str(dict_path),
                             "--codes", str(codes_path),
                             "--out-json", str(out_json),
                             "--out-csv", str(out_csv))
    assert status == 0
    doc = json.loads(out_json.read_text())
    assert 0.0 <= doc["err_mean"]
    assert doc["cr_mean"] <= 1.0
    assert set(doc["per_class"]) == {"N", "/", "A", "V", "R", "L"}
    header = out_csv.read_text().splitlines()[0]
    assert header == "beat_id,label,nnz,err"


def test_metrics_k_mismatch_exits_2(capsys, small_chain, tmp_path):
    _, beats_csv, _, codes_path = small_chain
    other = tmp_path / "other.sbd"
    status, _, _ = run(capsys, "train-dict", "--beats", str(beats_csv),
                       "--k", "82", "--epochs", "1", "--out", str(other))
    assert status == 0
    status, _, err = run(capsys, "metrics", "--beats", str(beats_csv),
                         "--dict", str(other), "--codes", str(codes_path))
    assert status == 2
    assert "82" in err and "80" in err  # names both sides of the mismatch


def test_reconstruct_waveforms(capsys, small_chain, tmp_path):
    _, beats_csv, dict_path, codes_path = small_chain
    out = tmp_path / "waves.csv"
    status, _, _ = run(capsys, "reconstruct", "--beats", str(beats_csv),
                       "--dict", str(dict_path), "--codes", str(codes_path),
                       "--limit", "3", "--out", str(out))
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beat_id,sample,original,reconstructed"
    assert len(lines) == 1 + 3 * 300


def test_featurize_tpm_and_bow(capsys, small_chain, tmp_path):
    _, _, _, codes_path = small_chain
    for method in ("tpm", "bow"):
        out = tmp_path / f"feat_{method}.csv"
        status, summary, _ = run(capsys, "featurize", "--codes",
                                 str(codes_path), "--method", method,
                                 "--out", str(out))
        assert status == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 24
        assert all(len(r.split(",")) == 81 for r in rows)  # label + k


def test_train_svm_and_evaluate(capsys, small_chain, tmp_path):
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    model = tmp_path / "model.json"
    status, summary, _ = run(capsys, "train-svm", "--features", str(feats),
                             "--C", "8", "--gamma", "2", "--cv", "--folds", "2",
                             "--out", str(model))
    assert status == 0
    assert "cv_accuracy" in summary
    assert summary["unconverged_pairs"] == 0
    report = tmp_path / "report.json"
    confusion = tmp_path / "confusion.csv"
    status, summary, _ = run(capsys, "evaluate", "--model", str(model),
                             "--features", str(feats),
                             "--out-json", str(report),
                             "--out-confusion", str(confusion))
    assert status == 0
    doc = json.loads(report.read_text())
    assert doc["accuracy"] == 1.0  # evaluated on its own training set
    grid = [r.split(",") for r in confusion.read_text().splitlines()]
    assert len(grid) == 7 and len(grid[1]) == 7


def test_evaluate_malformed_model_exits_2(capsys, small_chain, tmp_path):
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    model = tmp_path / "model.json"
    status, _, _ = run(capsys, "train-svm", "--features", str(feats),
                       "--C", "8", "--gamma", "2", "--out", str(model))
    assert status == 0
    text = model.read_text()
    no_pairs = {k: v for k, v in json.loads(text).items() if k != "pairs"}
    for bad in (text[:1000], json.dumps(no_pairs)):
        model.write_text(bad)
        status, _, err = run(capsys, "evaluate", "--model", str(model),
                             "--features", str(feats))
        assert status == 2
        assert "CorruptFileError" in err and "Traceback" not in err


def test_non_finite_features_exit_2(capsys, small_chain, tmp_path):
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    model = tmp_path / "model.json"
    status, _, _ = run(capsys, "train-svm", "--features", str(feats),
                       "--C", "8", "--gamma", "1", "--out", str(model))
    assert status == 0
    rows = feats.read_text().splitlines()
    for bad in ("nan", "inf", "-inf"):
        cells = rows[3].split(",")
        cells[5] = bad
        broken = tmp_path / f"feats_{bad}.csv"
        broken.write_text("\n".join(rows[:3] + [",".join(cells)] + rows[4:]) + "\n")
        out = tmp_path / f"model_{bad}.json"
        status, _, err = run(capsys, "train-svm", "--features", str(broken),
                             "--C", "8", "--gamma", "1", "--out", str(out))
        assert status == 2 and "line 4" in err and "Traceback" not in err
        assert not out.exists()
        status, _, err = run(capsys, "evaluate", "--model", str(model),
                             "--features", str(broken))
        assert status == 2 and "line 4" in err


def test_train_svm_reports_unconverged_pairs(capsys, small_chain, tmp_path, monkeypatch):
    from functools import partial
    from ecgsparse import classify
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    model = tmp_path / "model.json"
    monkeypatch.setattr(classify, "smo_train",
                        partial(classify.smo_train, max_updates=2))
    status, summary, _ = run(capsys, "train-svm", "--features", str(feats),
                             "--C", "8", "--gamma", "1", "--out", str(model))
    assert status == 0
    pairs = json.loads(model.read_text())["pairs"]
    assert summary["unconverged_pairs"] == sum(not p["converged"] for p in pairs) > 0


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 60\nstride = 30\nseed = 4\n")
    out = tmp_path / "d.sbd"
    # config alone: w=60 under bior2.6 -> d = 84
    status, summary, _ = run(capsys, "train-dict", "--synthetic", "3",
                             "--config", str(cfg), "--epochs", "1",
                             "--k", "90", "--out", str(out))
    assert status == 0
    assert summary["d"] == 84
    # flag overrides the config value
    status, summary, _ = run(capsys, "train-dict", "--synthetic", "3",
                             "--config", str(cfg), "--window", "50",
                             "--epochs", "1", "--k", "90", "--out", str(out))
    assert status == 0
    assert summary["d"] == 75


def test_bad_config_file_exits_1(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("window 60\n")  # missing '='
    status, _, _ = run(capsys, "train-dict", "--synthetic", "3",
                       "--config", str(cfg), "--out", str(tmp_path / "d.sbd"))
    assert status == 1


# --- pipeline ------------------------------------------------------------------------

def test_pipeline_end_to_end(capsys, tmp_path):
    out_dir = tmp_path / "run"
    status, summary, _ = run(
        capsys, "pipeline", "--synthetic", "6", "--seed", "1",
        "--k", "80", "--epochs", "1", "--train-frac", "0.5",
        "--out-dir", str(out_dir))
    assert status == 0
    for name in ("beats_train.csv", "beats_test.csv", "dict.sbd",
                 "codes_train.sbc", "codes_test.sbc", "metrics.json",
                 "features_train.csv", "features_test.csv", "model.json",
                 "report.json", "confusion.csv", "waveforms.csv"):
        assert (out_dir / name).exists(), name
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert "err_mean" in metrics and "cr_mean" in metrics
    report = json.loads((out_dir / "report.json").read_text())
    assert "accuracy" in report
    assert summary["err_mean"] == metrics["err_mean"]
    assert summary["train"] == 18 and summary["test"] == 18
    assert summary["unconverged_pairs"] == 0
