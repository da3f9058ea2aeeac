"""Command-line interface: dispatch, exit codes, artifacts, determinism."""

import importlib.util
import json
import os
import resource
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ecgsparse.errors import BadConfigError, TooFewPerClassError
from ecgsparse.cli import build_parser, run_command, split_dataset
from ecgsparse.dictionary import load_dictionary, save_dictionary
from ecgsparse.codec import load_codes
from ecgsparse.fileio import atomic_write_bytes, atomic_write_text
from ecgsparse.ingest import format_beats_csv, read_beats_csv
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


def test_split_refuses_an_empty_side_or_a_bad_fraction():
    beats = synthetic_beats(4, seed=0)
    for rule in ({"train_per_class": 4}, {"train_per_class": 0}, {"train_total": 24},
                 {"train_total": 30}):
        with pytest.raises(TooFewPerClassError):
            split_dataset(beats, **rule)
    for frac in (0.0, 1.0, float("nan"), float("inf"), -0.5):
        with pytest.raises(BadConfigError):
            split_dataset(beats, train_frac=frac)


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
    beats = read_beats_csv(out.read_text().splitlines())
    assert len(beats) == 24
    assert all(len(b.values) == 300 for b in beats)


def test_ingest_non_finite_beat_exits_2(capsys, tmp_path):
    beats_csv = tmp_path / "beats.csv"
    cells = ["N"] + ["0.5"] * 300
    cells[40] = "nan"
    beats_csv.write_text("V," + ",".join(["0.25"] * 300) + "\n" + ",".join(cells) + "\n")
    out = tmp_path / "out.csv"
    status, _, err = run(capsys, "ingest", "--beats", str(beats_csv), "--out", str(out))
    assert status == 2 and "line 2" in err and "Traceback" not in err
    assert not out.exists()


def _two_channel_record(tmp_path):
    """ingest's --record and --annotations flags for a 2-channel record of 4 beats."""
    from ecgsparse.ingest import encode_212

    rng = np.random.default_rng(0)
    n = 4000
    ch = rng.integers(-900, 900, size=n).tolist()
    (tmp_path / "r9.dat").write_bytes(encode_212(np.repeat(ch, 2)))
    (tmp_path / "r9.hea").write_text(
        f"r9 2 360 {n}\nr9.dat 212 200 11 1024 0 0 0 MLII\n"
        "r9.dat 212 200 11 1024 0 0 0 V5\n")
    (tmp_path / "r9.csv").write_text("500,N\n1500,V\n2500,A\n3500,L\n")
    return ["--record", str(tmp_path / "r9.hea"), "--annotations", str(tmp_path / "r9.csv")]


def test_ingest_from_record(capsys, tmp_path):
    out = tmp_path / "beats.csv"
    status, summary, _ = run(capsys, "ingest", *_two_channel_record(tmp_path),
                             "--out", str(out))
    assert status == 0
    assert summary["beats"] == 4
    assert summary["skipped"] == 0


def test_ingest_record_bad_channel_or_window_exits_1(capsys, tmp_path):
    # a channel the record lacks, or a window that is not a positive finite
    # number of samples, is refused without a traceback or an output file
    record = _two_channel_record(tmp_path)
    out = tmp_path / "beats.csv"
    for flags in (["--channel", "2"], ["--channel", "5"], ["--channel", "-1"],
                  ["--pre", "nan"], ["--pre", "inf"], ["--post", "nan"],
                  ["--post", "inf"], ["--post", "1e308"]):
        status, _, err = run(capsys, "ingest", *record, *flags, "--out", str(out))
        assert status == 1, flags
        assert "Traceback" not in err
        assert not out.exists()
    status, summary, _ = run(capsys, "ingest", *record, "--channel", "1", "--out", str(out))
    assert status == 0 and summary["beats"] == 4


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
    # stdout adds the size of the codes read; the JSON file keeps its keys
    size = codes_path.stat().st_size
    assert (summary["sbc_bytes"], summary["sbc_bytes_per_beat"]) == (size, size / doc["beats"])
    assert {k: v for k, v in summary.items() if not k.startswith("sbc_")} == doc
    assert not any(k.startswith("sbc_") for k in doc)


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


def test_window_count_mismatch_exits_2(capsys, small_chain, tmp_path):
    # SBC1 stores no window geometry: codes of 11 windows (stride 25) read at
    # stride 7 (36 windows) would reconstruct wrong beats and a wrong Err
    _, beats_csv, dict_path, codes_path = small_chain
    out = tmp_path / "out"
    inputs = ["--beats", str(beats_csv), "--dict", str(dict_path), "--codes", str(codes_path)]
    for argv in (["reconstruct", *inputs, "--out", str(out)],
                 ["metrics", *inputs, "--out-json", str(out)]):
        status, summary, err = run(capsys, *argv, "--stride", "7")
        assert status == 2 and summary is None, argv
        assert "ShapeMismatchError" in err and "36" in err and "Traceback" not in err
        assert not out.exists()
        status, _, err = run(capsys, *argv, "--stride", "0")
        assert status == 1 and "stride" in err and not out.exists()


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
        # each row carries its beat's label
        assert [r.split(",")[0] for r in rows] == [c.label for c in load_codes(codes_path)]


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
    doc = json.loads(text)
    negative_gamma = {**doc, "pairs": [{**p, "gamma": -p["gamma"]} for p in doc["pairs"]]}
    for bad in (text[:1000], json.dumps(no_pairs), json.dumps(negative_gamma)):
        model.write_text(bad)
        status, _, err = run(capsys, "evaluate", "--model", str(model),
                             "--features", str(feats))
        assert status == 2
        assert "CorruptFileError" in err and "Traceback" not in err


def test_evaluate_duplicate_class_names_exits_2(capsys, tmp_path):
    # a class listed twice would make per_class and the confusion rows
    # disagree; load_model refuses it as a damaged file
    model = tmp_path / "model.json"
    pair = {"a": 0, "b": 1, "support_vectors": [[1.0, 0.0], [0.0, 1.0]],
            "dual_coef": [1.0, -1.0], "bias": 0.0, "gamma": 1.0, "C": 8.0,
            "converged": True}
    feats = tmp_path / "feats.csv"
    feats.write_text("N,1,0\nN,0,1\n")
    report, confusion = tmp_path / "report.json", tmp_path / "confusion.csv"
    for classes, want in ((["N", "V"], 0), (["N", "N"], 2)):
        model.write_text(json.dumps({"classes": classes, "pairs": [pair]}))
        status, _, err = run(capsys, "evaluate", "--model", str(model),
                             "--features", str(feats), "--out-json", str(report),
                             "--out-confusion", str(confusion))
        assert status == want, err
        assert report.exists() == confusion.exists() == (want == 0)
        report.unlink(missing_ok=True)
        confusion.unlink(missing_ok=True)
    assert "CorruptFileError" in err and "duplicate class names" in err
    assert "Traceback" not in err


def test_evaluate_model_without_support_vectors(capsys, small_chain, tmp_path):
    # at a tiny C no pair retains a vector: train-svm writes
    # "support_vectors": [] and evaluate reads it, every pair deciding by its bias
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    model = tmp_path / "model.json"
    status, summary, _ = run(capsys, "train-svm", "--features", str(feats),
                             "--C", "1e-13", "--gamma", "1", "--out", str(model))
    assert status == 0 and summary["unconverged_pairs"] == 0
    assert all(p["support_vectors"] == [] for p in json.loads(model.read_text())["pairs"])
    status, summary, err = run(capsys, "evaluate", "--model", str(model),
                               "--features", str(feats))
    assert status == 0, err
    assert summary["beats"] == 24


def test_features_csv_read_as_lines(capsys, small_chain, tmp_path):
    # only \n, \r and \r\n end a line: a form feed inside a cell is
    # whitespace around its number, and a NEL at a row's end shifts no
    # later line number
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    rows = feats.read_text().splitlines()
    cells = rows[3].split(",")
    cells[5] = "\x0c" + cells[5]
    models = []
    for name, text in (("clean", feats.read_text()),
                       ("form_feed", "\n".join(rows[:3] + [",".join(cells)] + rows[4:]))):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        models.append(tmp_path / f"{name}.json")
        status, _, err = run(capsys, "train-svm", "--features", str(path), "--C", "8",
                             "--gamma", "2", "--out", str(models[-1]))
        assert status == 0, err
    assert models[0].read_bytes() == models[1].read_bytes()
    nel = tmp_path / "nel.csv"
    nel.write_text("\n".join([rows[0] + "\x85"] + rows[1:3] + ["N,oops"] + rows[4:]))
    status, _, err = run(capsys, "evaluate", "--model", str(models[0]),
                         "--features", str(nel))
    assert status == 2 and "line 4" in err, err


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


def test_empty_or_overflowing_features_exit_2(capsys, small_chain, tmp_path):
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    model = tmp_path / "model.json"
    run(capsys, "train-svm", "--features", str(feats), "--C", "8", "--gamma", "1",
        "--out", str(model))
    rows = feats.read_text().splitlines()
    cells = rows[3].split(",")
    cells[5] = "1e200"  # finite, but its squared norm overflows the kernel
    overflow = "\n".join(rows[:3] + [",".join(cells)] + rows[4:]) + "\n"
    for name, text in (("empty", ""), ("comments", "# no rows\n"), ("overflow", overflow)):
        bad = tmp_path / f"{name}.csv"
        bad.write_text(text)
        out = tmp_path / f"model_{name}.json"
        status, _, err = run(capsys, "train-svm", "--features", str(bad),
                             "--C", "8", "--gamma", "1", "--out", str(out))
        assert status == 2 and "Traceback" not in err and not out.exists(), (name, err)
        if name != "overflow":
            status, _, err = run(capsys, "evaluate", "--model", str(model),
                                 "--features", str(bad))
            assert status == 2 and "no feature rows" in err


def test_train_svm_one_class_names_it_plainly(capsys, tmp_path):
    # with or without --pso, the refusal lists the class as the file gives it
    feats = tmp_path / "f.csv"
    feats.write_text("N,1,0\nN,0,1\nN,1,1\nN,0,0\n")
    for extra in ((), ("--pso", "--folds", "2")):
        status, _, err = run(capsys, "train-svm", "--features", str(feats), *extra,
                             "--out", str(tmp_path / "m.json"))
        assert status == 2 and "need >= 2 classes, got ['N']" in err, (extra, err)
        assert not (tmp_path / "m.json").exists()


def test_train_svm_infinite_C_exits_1(capsys, small_chain, tmp_path):
    # load_model refuses a non-finite C, so train-svm must not write one
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    out = tmp_path / "model.json"
    status, _, err = run(capsys, "train-svm", "--features", str(feats),
                         "--C", "inf", "--gamma", "1", "--out", str(out))
    assert status == 1 and "argument --C" in err and not out.exists()


def test_train_svm_reports_unconverged_pairs(capsys, small_chain, tmp_path, monkeypatch):
    from ecgsparse import classify
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    model = tmp_path / "model.json"
    monkeypatch.setattr(classify, "SMO_MAX_UPDATES", 2)  # ovo_train's update cap
    status, summary, _ = run(capsys, "train-svm", "--features", str(feats),
                             "--C", "8", "--gamma", "1", "--out", str(model))
    assert status == 0
    pairs = json.loads(model.read_text())["pairs"]
    assert summary["unconverged_pairs"] == sum(not p["converged"] for p in pairs) > 0


def test_train_svm_pso_reports_evaluations(capsys, small_chain, tmp_path, monkeypatch):
    from ecgsparse import classify
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    points, updates = [], []
    batch_scorer = classify.cross_validate

    def counting_cv(Z, labels, batch, folds, seed):
        points.extend((float(C), float(gamma)) for C, gamma in batch)
        scores, made = batch_scorer(Z, labels, batch, folds, seed)
        updates.append(made)
        return scores, made

    monkeypatch.setattr(classify, "cross_validate", counting_cv)
    status, summary, _ = run(capsys, "train-svm", "--features", str(feats), "--pso",
                             "--swarm", "4", "--iters", "3", "--folds", "2",
                             "--out", str(tmp_path / "model.json"))
    assert status == 0
    assert summary["pso_evaluations"] == len(set(points)) == len(points) > 0
    assert summary["smo_updates"] == sum(updates) > 0
    assert "pso_evaluations" not in (tmp_path / "model.json").read_text()


def _bench_tracing():
    """perfbench/tracing.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_tracer_sees_cross_validation(capsys, small_chain, tmp_path):
    # perfbench's tracer wraps its TRACED functions by name: each must exist
    # but the two that moved to tests/verification.py, which it reports
    # absent, and PSO must score through the wrapped classify.cross_validate
    tracing = _bench_tracing()
    moved = ["codec.serialize_codes", "classify.smo_train"]
    for module, func in tracing.TRACED:
        if f"{module}.{func}" not in moved:
            assert callable(getattr(importlib.import_module(f"ecgsparse.{module}"), func))
    _, _, _, codes_path = small_chain
    feats = tmp_path / "feats.csv"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        status, summary, _ = run(capsys, "train-svm", "--features", str(feats), "--pso",
                                 "--swarm", "3", "--iters", "2", "--folds", "2",
                                 "--out", str(tmp_path / "model.json"))
    finally:
        tracer.restore()
    assert status == 0 and tracer.absent == moved
    calls = tracer.per_layer(0.0)["classify.cross_validate.calls"]
    assert 0 < calls <= summary["pso_evaluations"]
    from ecgsparse import classify
    assert not hasattr(classify.cross_validate, "__wrapped__")


def test_encode_counters_match_bench_tracer(capsys, small_chain, tmp_path):
    # the encode summary's solve count is the figure the bench reads by
    # counting np.linalg.solve calls inside encode_all
    _, beats_csv, dict_path, codes_path = small_chain
    out = tmp_path / "codes2.sbc"
    tracer = _bench_tracing().Tracer()
    tracer.install()
    try:
        status, summary, _ = run(capsys, "encode", "--beats", str(beats_csv),
                                 "--dict", str(dict_path), "--out", str(out))
    finally:
        tracer.restore()
    assert status == 0 and out.read_bytes() == codes_path.read_bytes()
    assert tracer.self_times()["codec.compress"][0] == 1  # every beat in one call
    counters = summary["counters"]
    assert sorted(counters) == ["cap_hits", "iterations", "line_search_groups",
                                "solves", "steps"]
    assert counters["solves"] == tracer.per_layer(0.0)["sparse_coding.solves"] > 0
    assert 0 < counters["steps"] <= counters["iterations"]
    assert counters["steps"] <= counters["solves"]
    assert counters["line_search_groups"] > 0 and counters["cap_hits"] == 0


def test_train_dict_counters_match_bench_tracer(capsys, small_chain, tmp_path):
    # dictionary training reports the solver tallies of every encode_all call
    # it makes, which the bench counts the same way as encode's
    _, beats_csv, dict_path, _ = small_chain
    out = tmp_path / "dict2.sbd"
    tracer = _bench_tracing().Tracer()
    tracer.install()
    try:
        status, summary, _ = run(capsys, "train-dict", "--beats", str(beats_csv),
                                 "--k", "80", "--epochs", "1", "--seed", "3",
                                 "--out", str(out))
    finally:
        tracer.restore()
    assert status == 0 and out.read_bytes() == dict_path.read_bytes()
    counters = summary["counters"]
    assert sorted(counters) == ["cap_hits", "iterations", "line_search_groups",
                                "reseeds", "solves", "steps"]
    assert counters["solves"] == tracer.per_layer(0.0)["sparse_coding.solves"] > 0
    assert 0 < counters["steps"] <= counters["iterations"]
    status, summary, _ = run(capsys, "train-dict", "--beats", str(beats_csv), "--method",
                             "vq", "--k", "20", "--out", str(tmp_path / "vq.sbd"))
    assert status == 0 and summary["counters"] == {}  # k-means codes no LASSO


def test_encode_reports_sbc_bytes(capsys, small_chain, tmp_path):
    # sbc_bytes is the byte size of the written code file, for either method
    _, beats_csv, dict_path, codes_path = small_chain
    for method in ("sparse", "vq"):
        out = tmp_path / f"{method}.sbc"
        status, summary, _ = run(capsys, "encode", "--beats", str(beats_csv), "--dict",
                                 str(dict_path), "--method", method, "--out", str(out))
        assert status == 0
        assert summary["sbc_bytes"] == out.stat().st_size > 12
    assert (tmp_path / "sparse.sbc").read_bytes() == codes_path.read_bytes()


def _small_dictionary(path, k=16, d=75):
    rng = np.random.default_rng(k)
    D = rng.standard_normal((d, k))
    save_dictionary(path, D / np.linalg.norm(D, axis=0))


def test_encode_memory_flat_in_beat_count(capsys, tmp_path, monkeypatch):
    # beats load whole; past that, encode holds one chunk of windows, codes
    # and SBC1 records whatever the beat count.  Holding every beat's, at
    # k = 16, would add about 15 KB per beat: 6.3 MB from 60 to 480 beats
    from ecgsparse import cli
    _small_dictionary(tmp_path / "dict.sbd")
    load = cli._load_beats
    loaded = []

    def load_then_reset_peak(args):
        beats = load(args)
        loaded.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return beats

    monkeypatch.setattr(cli, "_load_beats", load_then_reset_peak)
    peaks = []
    for per_class in (10, 80):  # 60 and 480 beats, 660 and 5,280 columns
        tracemalloc.start()
        try:
            status = run_command(["encode", "--synthetic", str(per_class), "--dict",
                                  str(tmp_path / "dict.sbd"), "--out",
                                  str(tmp_path / "codes.sbc")])
            peaks.append(tracemalloc.get_traced_memory()[1] - loaded[-1])
        finally:
            tracemalloc.stop()
        assert status == 0
    capsys.readouterr()
    assert peaks[1] - peaks[0] < 1e6, peaks


def test_encode_error_after_first_chunk_leaves_no_file(capsys, tmp_path, monkeypatch):
    # the first chunk's records are on disk, in the temp file, when the
    # second chunk fails: the run exits 2 and leaves no file behind
    from ecgsparse import codec
    from ecgsparse.errors import MaxIterationsError
    _small_dictionary(tmp_path / "dict.sbd")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    encode_all = codec.encode_all
    on_disk = []  # bytes in out_dir as each chunk's coding starts

    def fail_second_chunk(D, Y, lam, counts=None):
        on_disk.append(sum(p.stat().st_size for p in out_dir.iterdir()))
        if len(on_disk) == 2:
            raise MaxIterationsError("second chunk")
        return encode_all(D, Y, lam, counts=counts)

    monkeypatch.setattr(codec, "encode_all", fail_second_chunk)
    status, _, err = run(capsys, "encode", "--synthetic", "10", "--dict",
                         str(tmp_path / "dict.sbd"), "--out", str(out_dir / "codes.sbc"))
    assert status == 2 and "MaxIterationsError: second chunk" in err
    assert on_disk[1] > 0  # records of the first chunk's beats
    assert list(out_dir.iterdir()) == []


def test_written_files_honour_the_umask(capsys, tmp_path):
    # mode 0666 less the umask, as open(path, "w") gives
    _small_dictionary(tmp_path / "dict.sbd")
    source = ["--synthetic", "2", "--dict", str(tmp_path / "dict.sbd")]
    umask = os.umask(0o022)
    try:
        status, _, _ = run(capsys, "encode", *source, "--out", str(tmp_path / "codes.sbc"))
        assert status == 0
        status, _, _ = run(capsys, "metrics", *source, "--codes", str(tmp_path / "codes.sbc"),
                           "--out-json", str(tmp_path / "metrics.json"))
        assert status == 0
    finally:
        os.umask(umask)
    for name in ("codes.sbc", "metrics.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name


def test_load_beats_peak_near_the_beats(tmp_path):
    # --beats is read line by line: the CSV's text is not held beside the
    # beats (holding it put the peak at 2.9 times the beats)
    from ecgsparse import cli
    beats_csv = tmp_path / "beats.csv"
    atomic_write_text(beats_csv, format_beats_csv(synthetic_beats(30, seed=0)))
    args = build_parser().parse_args(["ingest", "--beats", str(beats_csv), "--out", "-"])
    tracemalloc.start()
    try:
        beats, _ = cli._load_beats(args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(beats) == 180
    assert peak < 1.5 * kept, (peak, kept)


def _mutants(rng, blob, count):
    """count seeded damaged copies of blob: a truncation or 1-3 byte flips."""
    for _ in range(count):
        if rng.random() < 0.3:
            yield blob[:int(rng.integers(len(blob)))]
        else:
            damaged = bytearray(blob)
            for pos in rng.integers(len(blob), size=int(rng.integers(1, 4))):
                damaged[pos] ^= int(rng.integers(1, 256))
            yield bytes(damaged)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_damaged_inputs_exit_0_or_2(capsys, small_chain, tmp_path):
    # truncated and byte-flipped SBC1, SBD1, beats CSV, features CSV, model
    # JSON and WFDB files: every command exits 0 or 2, raises nothing past
    # run_command (no traceback, no NumPy warning) and leaves no output file
    # when it exits 2
    _, beats_csv, dict_path, codes_path = small_chain
    rng = np.random.default_rng(7)
    calls = []
    for i, blob in enumerate(_mutants(rng, codes_path.read_bytes(), 10)):
        bad = tmp_path / f"bad{i}.sbc"
        bad.write_bytes(blob)
        calls.append(("metrics", "--beats", str(beats_csv), "--dict", str(dict_path),
                      "--codes", str(bad), "--out-json"))
        calls.append(("featurize", "--codes", str(bad), "--out"))
    for i, blob in enumerate(_mutants(rng, beats_csv.read_bytes(), 10)):
        bad = tmp_path / f"bad{i}.csv"
        bad.write_bytes(blob)
        calls.append(("ingest", "--beats", str(bad), "--out"))
        calls.append(("encode", "--beats", str(bad), "--dict", str(dict_path), "--out"))
    feats, model = tmp_path / "feats.csv", tmp_path / "model.json"
    run(capsys, "featurize", "--codes", str(codes_path), "--out", str(feats))
    run(capsys, "train-svm", "--features", str(feats), "--C", "8", "--gamma", "2",
        "--out", str(model))
    for i, blob in enumerate(_mutants(rng, feats.read_bytes(), 10)):
        bad = tmp_path / f"bad{i}_feats.csv"
        bad.write_bytes(blob)
        calls.append(("train-svm", "--features", str(bad), "--C", "8", "--gamma", "2",
                      "--out"))
        calls.append(("evaluate", "--model", str(model), "--features", str(bad),
                      "--out-json"))
    for i, blob in enumerate(_mutants(rng, model.read_bytes(), 10)):
        bad = tmp_path / f"bad{i}_model.json"
        bad.write_bytes(blob)
        calls.append(("evaluate", "--model", str(bad), "--features", str(feats),
                      "--out-json"))
    for i, blob in enumerate(_mutants(rng, dict_path.read_bytes(), 8)):
        bad = tmp_path / f"bad{i}.sbd"
        bad.write_bytes(blob)
        calls += _dictionary_calls(beats_csv, bad, codes_path)
    calls += _damaged_record_calls(rng, tmp_path)
    for n, argv in enumerate(calls):
        out = tmp_path / f"out{n}"
        status, _, err = run(capsys, *argv, str(out))
        assert status in (0, 2), (argv, err)
        assert "Traceback" not in err
        assert out.exists() == (status == 0), (argv, err)

    # one entry read as 6.4e305 (an exponent-bit flip): Err would be
    # Infinity; one atom of norm 1.5: encode's unit ball is broken, while
    # reconstruction from it is still well defined
    D = load_dictionary(dict_path)
    huge, wide = D.copy(), D.copy()
    huge[63, 32] = 6.4e305
    wide[:, 5] *= 1.5 / np.linalg.norm(wide[:, 5])
    for name, D_bad, refused_by in (("huge", huge, ("encode", "metrics", "reconstruct")),
                                    ("wide", wide, ("encode",))):
        bad = tmp_path / f"{name}.sbd"
        save_dictionary(bad, D_bad)
        for argv in _dictionary_calls(beats_csv, bad, codes_path):
            out = tmp_path / f"out_{name}_{argv[0]}"
            status, _, err = run(capsys, *argv, str(out))
            assert status == (2 if argv[0] in refused_by else 0), (name, argv[0], err)
            assert "Traceback" not in err
            assert out.exists() == (status == 0)
    # VQ centroids may leave the unit ball, but not overflow their squared norm
    vq_path = tmp_path / "vq.sbd"
    run(capsys, "train-dict", "--beats", str(beats_csv), "--method", "vq", "--k", "40",
        "--out", str(vq_path))
    D = load_dictionary(vq_path)
    D[63, 32] = 6.4e305
    save_dictionary(vq_path, D)
    out = tmp_path / "out_vq_encode"
    status, _, err = run(capsys, "encode", "--beats", str(beats_csv), "--dict",
                         str(vq_path), "--method", "vq", "--out", str(out))
    assert status == 2, err
    assert "CorruptFileError" in err and "Traceback" not in err
    assert not out.exists()
    # a hand-built file whose one beat has no windows is damaged data for
    # either featurizer
    empty = tmp_path / "no_windows.sbc"
    empty.write_bytes(b"SBC1" + struct.pack("<II", 4, 1) + struct.pack("<IBI", 0, 0, 0))
    for method in ("tpm", "bow"):
        out = tmp_path / f"out_no_windows_{method}"
        status, _, err = run(capsys, "featurize", "--codes", str(empty), "--method", method,
                             "--out", str(out))
        assert status == 2, (method, err)
        assert "CorruptFileError" in err and "Traceback" not in err
        assert not out.exists()


def _dictionary_calls(beats_csv, dict_path, codes_path):
    """Every command that reads a dictionary, each missing its output path."""
    return [("encode", "--beats", str(beats_csv), "--dict", str(dict_path), "--out"),
            ("metrics", "--beats", str(beats_csv), "--dict", str(dict_path),
             "--codes", str(codes_path), "--out-json"),
            ("reconstruct", "--beats", str(beats_csv), "--dict", str(dict_path),
             "--codes", str(codes_path), "--out")]


def _damaged_record_calls(rng, tmp_path):
    """ingest calls on 5 damaged .hea and 5 damaged .dat copies of one record."""
    from ecgsparse.ingest import encode_212

    n = 4000
    ch = np.random.default_rng(0).integers(-900, 900, size=n).tolist()
    dat = encode_212(np.repeat(ch, 2))
    hea = (f"r9 2 360 {n}\nr9.dat 212 200 11 1024 0 0 0 MLII\n"
           "r9.dat 212 200 11 1024 0 0 0 V5\n").encode()
    anns = tmp_path / "r9.csv"
    anns.write_text("500,N\n1500,V\n2500,A\n3500,L\n")
    calls = []
    for part in ("hea", "dat"):
        for i, blob in enumerate(_mutants(rng, hea if part == "hea" else dat, 5)):
            rec = tmp_path / f"wfdb_{part}{i}"
            rec.mkdir()
            (rec / "r9.hea").write_bytes(blob if part == "hea" else hea)
            (rec / "r9.dat").write_bytes(blob if part == "dat" else dat)
            calls.append(("ingest", "--record", str(rec / "r9.hea"),
                          "--annotations", str(anns), "--out"))
    return calls


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
    # a value option's config value is converted by its own type; store-true
    # flags (pso) and unknown keys are ignored
    cfg.write_text("method = vq\nepochs = 2\npso = 1\nno-such-key = 5\n")
    status, summary, _ = run(capsys, "train-dict", "--synthetic", "3", "--k", "40",
                             "--config", str(cfg), "--out", str(out))
    assert status == 0
    assert summary["method"] == "vq"
    feats = tmp_path / "f.csv"
    codes = tmp_path / "c.sbc"
    run(capsys, "encode", "--synthetic", "3", "--dict", str(out), "--method", "vq",
        "--out", str(codes))
    run(capsys, "featurize", "--codes", str(codes), "--out", str(feats))
    cfg.write_text("C = 4\npso = 1\n")
    status, summary, _ = run(capsys, "train-svm", "--features", str(feats),
                             "--config", str(cfg), "--out", str(tmp_path / "m.json"))
    assert status == 0
    assert summary["C"] == 4.0 and isinstance(summary["C"], float)
    assert summary["pso_evaluations"] is None
    # a config beat source counts like its flag
    cfg.write_text("synthetic = 3\n")
    beats = tmp_path / "beats.csv"
    status, summary, _ = run(capsys, "ingest", "--config", str(cfg), "--out", str(beats))
    assert status == 0
    assert summary["beats"] == 18
    # two beat sources, by config or by flags, are refused
    for source in (("--config", str(cfg)), ("--synthetic", "3")):
        again = tmp_path / "again.csv"
        status, _, err = run(capsys, "ingest", *source, "--beats", str(beats),
                             "--out", str(again))
        assert status == 1 and "BadConfigError" in err and not again.exists(), source
    # and so are two synthetic sets
    status, _, err = run(capsys, "ingest", "--synthetic", "1", "--trio", "--amp-vary",
                         "--out", str(again))
    assert status == 1 and "BadConfigError" in err and not again.exists()


def test_bad_config_file_exits_1(capsys, tmp_path, small_chain):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("window 60\n")  # missing '='
    status, _, _ = run(capsys, "train-dict", "--synthetic", "3",
                       "--config", str(cfg), "--out", str(tmp_path / "d.sbd"))
    assert status == 1
    status, _, _ = run(capsys, "evaluate", "--config", str(cfg), "--model",
                       str(tmp_path / "m.json"), "--features", str(tmp_path / "f.csv"))
    assert status == 1
    cfg.write_text("window = abc\n")
    status, _, err = run(capsys, "train-dict", "--synthetic", "3",
                         "--config", str(cfg), "--out", str(tmp_path / "d.sbd"))
    assert status == 1
    assert "Traceback" not in err
    assert not (tmp_path / "d.sbd").exists()
    _, beats_csv, dict_path, codes_path = small_chain
    for text, argv in (
            ("max-cols = -1\n", ["train-dict", "--beats", str(beats_csv)]),
            ("method = xyz\n", ["train-dict", "--beats", str(beats_csv)]),
            ("method = xyz\n", ["encode", "--beats", str(beats_csv),
                                "--dict", str(dict_path)]),
            ("mode = foo\n", ["featurize", "--codes", str(codes_path)])):
        cfg.write_text(text)
        out = tmp_path / "out.bin"
        status, _, err = run(capsys, *argv, "--config", str(cfg), "--out", str(out))
        assert status == 1, (text, argv)
        assert "Traceback" not in err
        assert not out.exists()
    # a flag still wins over the file
    cfg.write_text("method = xyz\n")
    status, summary, _ = run(capsys, "train-dict", "--beats", str(beats_csv), "--k", "20",
                             "--config", str(cfg), "--method", "vq", "--out", str(out))
    assert status == 0 and summary["method"] == "vq"


def test_negative_counts_exit_1(capsys, small_chain):
    tmp_path, beats_csv, dict_path, codes_path = small_chain
    out = tmp_path / "out.bin"
    for argv in (["train-dict", "--beats", str(beats_csv), "--max-cols", "-5"],
                 ["reconstruct", "--beats", str(beats_csv), "--dict", str(dict_path),
                  "--codes", str(codes_path), "--limit", "-3"],
                 ["ingest", "--synthetic", "-2"],
                 ["ingest", "--synthetic", "2", "--seed", "-1"],
                 ["train-dict", "--beats", str(beats_csv), "--seed", "-1"],
                 ["featurize", "--codes", str(codes_path), "--mode", "stochastic",
                  "--seed", "-1"]):
        status, _, err = run(capsys, *argv, "--out", str(out))
        assert status == 1, argv
        assert "Traceback" not in err and ">= 0" in err
        assert not out.exists()
    cfg = tmp_path / "counts.cfg"
    cfg.write_text("synthetic = -2\n")
    status, _, _ = run(capsys, "ingest", "--config", str(cfg), "--out", str(out))
    assert status == 1 and not out.exists()


def test_parser_refuses_every_numeric_option_out_of_range(capsys, tmp_path):
    # every input of every command is a missing file under tmp_path, and
    # every output goes there too: a value that got past the parser would
    # exit 2 on the first file read instead of 1
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    refused = set()
    refuse_0 = {"--window", "--stride", "--wl", "--batch-size", "--epochs", "--swarm",
                "--iters", "--k", "--folds", "--lam", "--C", "--pre", "--post", "--train-frac"}
    for name, sp in sub.choices.items():
        argv = [name]
        for action in sp._actions:
            if action.required or action.option_strings == ["--beats"]:
                flag = action.option_strings[0]
                argv += [flag, str(tmp_path / flag[2:])]
        status, _, _ = run(capsys, *argv)
        assert status == 2, argv
        for action in sp._actions:
            if action.type is None:
                continue
            flag = action.option_strings[0]
            for value in ("-1", "nan", "inf") if action.type.__name__ == "float" else ("-1",):
                status, _, err = run(capsys, *argv, flag, value)
                assert status == 1 and f"argument {flag}: must be" in err, (name, flag, value)
                assert "Traceback" not in err
            refused.add(flag)
            # 0 is refused by the parser or gets past it to the missing input
            status, _, err = run(capsys, *argv, flag, "0")
            assert "Traceback" not in err
            if flag in refuse_0:
                assert status == 1 and f"argument {flag}: must be" in err, (name, flag)
            else:
                assert status == 2 and "missing file" in err, (name, flag, status, err)
    assert refused == {"--synthetic", "--max-cols", "--limit", "--train-total",
                       "--train-per-class", "--seed", "--channel", "--window", "--stride",
                       "--wl", "--batch-size", "--epochs", "--swarm", "--iters", "--k",
                       "--levels", "--folds", "--lam", "--C", "--pre", "--post", "--gamma",
                       "--train-frac"}
    assert refuse_0 < refused
    assert list(tmp_path.iterdir()) == []


# --- bounded work: each call runs in a child process under an address-space cap,
# so a call that asks for unbounded memory fails there instead of in the suite

CHILD_AS_BYTES = 2 * 1024 ** 3
CHILD_SECONDS = 60
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """An 18-beat VQ code file, a copy whose header k reads 2^22 + 80, a
    config file with a non-finite training fraction and one with a negative
    lambda."""
    root = tmp_path_factory.mktemp("contract")
    dict_path, codes = root / "dict.sbd", root / "codes.sbc"
    for argv in (["train-dict", "--k", "20", "--out", str(dict_path)],
                 ["encode", "--dict", str(dict_path), "--out", str(codes)]):
        assert run_command([*argv, "--synthetic", "3", "--method", "vq"]) == 0
    blob = bytearray(codes.read_bytes())
    blob[4:8] = struct.pack("<I", 2 ** 22 + 80)
    (root / "big_k.sbc").write_bytes(bytes(blob))
    (root / "split.cfg").write_text("train-frac = nan\n")
    (root / "lam.cfg").write_text("lam = -1\n")
    return root


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


CONTRACT_CALLS = {  # id: (argv, output flag, exit code)
    "featurize --levels 40": (["featurize", "--codes", "{inputs}/codes.sbc",
                               "--levels", "40"], "--out", 0),
    "featurize --levels 65": (["featurize", "--codes", "{inputs}/codes.sbc",
                               "--levels", "65"], "--out", 1),
    "featurize header k 2^22+80": (["featurize", "--codes", "{inputs}/big_k.sbc"],
                                   "--out", 2),
    "vq --epochs 0": (["train-dict", "--synthetic", "2", "--method", "vq", "--k", "5",
                       "--epochs", "0"], "--out", 1),
    "vq --k 0": (["train-dict", "--synthetic", "2", "--method", "vq", "--k", "0"],
                 "--out", 1),
    "odl --k 65537": (["train-dict", "--synthetic", "2", "--k", "65537"], "--out", 1),
    "odl --batch-size 0": (["train-dict", "--synthetic", "2", "--batch-size", "0"],
                           "--out", 1),
    "odl --epochs 0": (["train-dict", "--synthetic", "2", "--epochs", "0"], "--out", 1),
    "--train-per-class -1": (["pipeline", "--synthetic", "4", "--train-per-class", "-1"],
                             "--out-dir", 1),
    "--train-total -3": (["pipeline", "--synthetic", "4", "--train-total", "-3"],
                         "--out-dir", 1),
    "--train-frac nan": (["pipeline", "--synthetic", "4", "--train-frac", "nan"],
                         "--out-dir", 1),
    "--train-frac inf": (["pipeline", "--synthetic", "4", "--train-frac", "inf"],
                         "--out-dir", 1),
    "config train-frac = nan": (["pipeline", "--synthetic", "4",
                                 "--config", "{inputs}/split.cfg"], "--out-dir", 1),
    "empty test split": (["pipeline", "--synthetic", "4", "--train-per-class", "4"],
                         "--out-dir", 2),
    "--wl 100000000": (["train-dict", "--synthetic", "2", "--wl", "100000000"], "--out", 1),
    "--window 10^12": (["train-dict", "--synthetic", "2", "--window", "1000000000000"],
                       "--out", 1),
    "--lam inf": (["train-dict", "--synthetic", "2", "--lam", "inf"], "--out", 1),
    "pipeline --seed -1": (["pipeline", "--synthetic", "4", "--seed", "-1"], "--out-dir", 1),
    # later stages' options, refused before pipeline writes anything
    "pipeline --levels 65": (["pipeline", "--synthetic", "4", "--levels", "65"],
                             "--out-dir", 1),
    "pipeline --pso --folds 0": (["pipeline", "--synthetic", "4", "--pso", "--folds", "0"],
                                 "--out-dir", 1),
    "pipeline --pso --swarm 0": (["pipeline", "--synthetic", "4", "--pso", "--swarm", "0"],
                                 "--out-dir", 1),
    "pipeline --lam -1": (["pipeline", "--synthetic", "4", "--lam", "-1"], "--out-dir", 1),
    "pipeline --k 70000": (["pipeline", "--synthetic", "4", "--k", "70000"], "--out-dir", 1),
    "pipeline --batch-size 0": (["pipeline", "--synthetic", "4", "--batch-size", "0"],
                                "--out-dir", 1),
    "pipeline --epochs 0": (["pipeline", "--synthetic", "4", "--epochs", "0"], "--out-dir", 1),
    "pipeline --stride 0": (["pipeline", "--synthetic", "4", "--stride", "0"], "--out-dir", 1),
    "pipeline --C -1": (["pipeline", "--synthetic", "4", "--C", "-1"], "--out-dir", 1),
    "pipeline --gamma nan": (["pipeline", "--synthetic", "4", "--gamma", "nan"],
                             "--out-dir", 1),
    "config lam = -1": (["pipeline", "--synthetic", "4", "--config", "{inputs}/lam.cfg"],
                        "--out-dir", 1),
    # rules that depend on d, refused by the dictionary trainer before the
    # directory is made: k <= d = 75, and fewer columns than k = 150
    "pipeline --k 5": (["pipeline", "--synthetic", "4", "--k", "5"], "--out-dir", 1),
    "pipeline --max-cols 3": (["pipeline", "--synthetic", "4", "--max-cols", "3"],
                              "--out-dir", 2),
    # a rule on the training split, refused by the SVM stage after the dictionary,
    # codes and features are made: 3 training beats per class for 5 folds
    "pipeline --pso --folds 5": (["pipeline", "--synthetic", "4", "--pso", "--folds", "5"],
                                 "--out-dir", 2),
}


@pytest.mark.parametrize("argv, out_flag, expected", CONTRACT_CALLS.values(),
                         ids=CONTRACT_CALLS.keys())
def test_bounded_work_contract(contract_inputs, tmp_path, argv, out_flag, expected):
    # exit code as given, within the time limit, no traceback; a refused call
    # leaves no output, not even pipeline's directory
    out = tmp_path / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_DIR),
                                                       os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "ecgsparse.cli",
           *(a.format(inputs=contract_inputs) for a in argv), out_flag, str(out)]
    proc = subprocess.run(cmd, env=env, preexec_fn=_limit_address_space,
                          capture_output=True, text=True, timeout=CHILD_SECONDS)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert out.exists() == (expected == 0)


def test_train_dict_without_beats_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    status, _, err = run(capsys, "train-dict", "--beats", str(empty),
                         "--out", str(tmp_path / "d.sbd"))
    assert status == 2
    assert "NotEnoughDataError" in err and "Traceback" not in err
    assert not (tmp_path / "d.sbd").exists()


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


PIPELINE_ARTIFACTS = ("beats_train.csv", "beats_test.csv", "dict.sbd", "codes_train.sbc",
                      "codes_test.sbc", "metrics.json", "features_train.csv",
                      "features_test.csv", "model.json", "report.json", "confusion.csv",
                      "waveforms.csv")


def test_pipeline_defaults_and_pso_counts(capsys, tmp_path):
    # pipeline's own defaults (epochs 3, max-cols 1500, swarm/iters/folds
    # 10/10/3) differ from train-dict's and train-svm's: spelled out, they
    # give the same bytes; the summary carries the PSO counts as train-svm's does,
    # encode's solver counters summed over the train and test codes, and
    # train-dict's under dict_counters
    argv = ["pipeline", "--synthetic", "6", "--seed", "1", "--k", "80",
            "--train-frac", "0.5", "--pso"]
    spelled = ["--epochs", "3", "--max-cols", "1500", "--swarm", "10", "--iters", "10",
               "--folds", "3"]
    summaries = []
    for name, extra in (("default", []), ("spelled", spelled)):
        status, summary, _ = run(capsys, *argv, *extra, "--out-dir", str(tmp_path / name))
        assert status == 0
        summaries.append(summary)
    for name in PIPELINE_ARTIFACTS:
        assert ((tmp_path / "default" / name).read_bytes()
                == (tmp_path / "spelled" / name).read_bytes()), name
    a, b = summaries
    assert a["pso_evaluations"] == b["pso_evaluations"] > 0
    assert a["smo_updates"] == b["smo_updates"] > 0
    assert a["counters"] == b["counters"]
    assert a["counters"]["solves"] > 0
    assert a["counters"]["steps"] <= a["counters"]["iterations"]
    # train-dict's tallies travel apart from the codes' counters
    assert a["dict_counters"] == b["dict_counters"]
    assert a["dict_counters"]["solves"] > 0


def test_subcommand_flag_sets():
    source = {"--beats", "--record", "--annotations", "--synthetic", "--trio",
              "--amp-vary", "--pre", "--post", "--channel"}
    geometry = {"--fb", "--window", "--stride", "--wl", "--lam"}
    dict_flags = {"--k", "--batch-size", "--epochs", "--max-cols"}
    svm = {"--C", "--gamma", "--pso", "--folds", "--swarm", "--iters"}
    base = {"--config", "--seed"}
    expected = {
        "ingest": base | source | {"--out"},
        "train-dict": base | source | geometry | dict_flags | {"--out", "--method"},
        "encode": base | source | geometry | {"--dict", "--out", "--method"},
        "reconstruct": base | source | geometry | {"--dict", "--codes", "--out", "--limit"},
        "metrics": base | source | geometry | {"--dict", "--codes", "--out-json",
                                               "--out-csv"},
        "featurize": base | {"--codes", "--out", "--method", "--levels", "--mode",
                             "--no-normalize"},
        "train-svm": base | svm | {"--features", "--out", "--cv"},
        "evaluate": {"--config", "--model", "--features", "--out-json", "--out-confusion"},
        "pipeline": base | source | geometry | dict_flags | svm | {
            "--out-dir", "--train-total", "--train-per-class", "--train-frac",
            "--levels", "--mode"},
    }
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    got = {name: {flag for action in sp._actions for flag in action.option_strings}
           - {"-h", "--help"} for name, sp in sub.choices.items()}
    assert got == expected
