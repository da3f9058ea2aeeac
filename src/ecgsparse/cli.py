"""Command-line pipeline orchestration.

Subcommands: ingest, train-dict, encode, reconstruct, metrics, featurize,
train-svm, evaluate, pipeline.  Every command writes its outputs atomically
and prints a one-line JSON summary to stdout.  Exit codes: 0 success,
1 validation/usage error, 2 data error.

Options may come from a `key = value` config file (--config); explicit
flags win over the file, which wins over built-in defaults.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import classify, codec, dictionary, features, ingest, synthetic, wavelet
from .errors import (BadConfigError, DataError, EcgSparseError,
                     ShapeMismatchError, TooFewPerClassError, ValidationError)
from .fileio import atomic_write_text
from .sparse_coding import default_lambda, encode_all

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# config file + parameter resolution


def load_config(path):
    cfg = {}
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BadConfigError(f"{path}:{i}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _cast(value, kind, key):
    try:
        if kind is bool:
            if isinstance(value, bool):
                return value
            if str(value).lower() in ("1", "true", "yes", "on"):
                return True
            if str(value).lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return kind(value)
    except ValueError as e:
        raise BadConfigError(f"bad value for {key}: {e}")


class Params:
    """Flag > config-file > default resolution for one command invocation."""

    def __init__(self, args):
        self.args = args
        self.config = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key, kind, default=None):
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            return _cast(flag, kind, key)
        if key in self.config:
            return _cast(self.config[key], kind, key)
        return default


def _geometry(p):
    fb_name = p.get("fb", str, "bior2.6")
    fb = wavelet.filter_bank(fb_name)
    w = p.get("window", int, 50)
    s = p.get("stride", int, 25)
    wl = p.get("wl", int, 2)
    d = wavelet.feature_dimension(fb, w, wl)
    lam = p.get("lam", float, None)
    if lam is None:
        lam = default_lambda(d)
    return fb, w, s, wl, d, lam


def _beat_source_id(beat):
    return f"{beat.source[0]}:{beat.source[1]}"


def _beat_features(beats, fb, w, s, wl):
    return [wavelet.extract_windows(b, fb, w, s, wl, beat_index=i)
            for i, b in enumerate(beats)]


def _emit(summary):
    print(json.dumps(summary))


# ---------------------------------------------------------------------------
# dataset splitting


def split_dataset(beats, train_total=None, train_per_class=None,
                  train_frac=None, seed=0):
    """Seeded stratified split; exactly one sizing rule applies.

    train_total spreads proportionally over classes (largest remainder,
    at least one beat per class); train_per_class takes a fixed count from
    every class; train_frac is the proportional shortcut.
    """
    rules = [v is not None for v in (train_total, train_per_class, train_frac)]
    if sum(rules) > 1:
        raise BadConfigError("give only one of train_total/train_per_class/train_frac")
    if sum(rules) == 0:
        train_frac = 0.7

    by_class = {}
    for i, b in enumerate(beats):
        by_class.setdefault(b.label, []).append(i)
    classes = sorted(by_class)
    rng = np.random.default_rng(seed)
    for c in classes:
        order = np.array(by_class[c])
        rng.shuffle(order)
        by_class[c] = order.tolist()

    if train_per_class is not None:
        quotas = {}
        for c in classes:
            if len(by_class[c]) < train_per_class:
                raise TooFewPerClassError(
                    f"class {c!r} has {len(by_class[c])} beats, "
                    f"need {train_per_class}")
            quotas[c] = train_per_class
    else:
        n = len(beats)
        total = train_total if train_total is not None else int(round(train_frac * n))
        if total < len(classes):
            raise TooFewPerClassError(
                f"train size {total} cannot cover {len(classes)} classes")
        if total > n:
            raise TooFewPerClassError(f"train size {total} exceeds {n} beats")
        exact = {c: total * len(by_class[c]) / n for c in classes}
        quotas = {c: int(exact[c]) for c in classes}
        remainder = total - sum(quotas.values())
        for c in sorted(classes, key=lambda c: exact[c] - quotas[c], reverse=True):
            if remainder <= 0:
                break
            quotas[c] += 1
            remainder -= 1
        for c in classes:  # class coverage in train is mandatory
            if quotas[c] == 0:
                donor = max(classes, key=lambda x: quotas[x])
                if quotas[donor] <= 1:
                    raise TooFewPerClassError("cannot cover every class in train")
                quotas[donor] -= 1
                quotas[c] = 1
            quotas[c] = min(quotas[c], len(by_class[c]))

    train_idx, test_idx = [], []
    for c in classes:
        picks = by_class[c]
        train_idx.extend(picks[:quotas[c]])
        test_idx.extend(picks[quotas[c]:])
    train_idx.sort()
    test_idx.sort()
    return [beats[i] for i in train_idx], [beats[i] for i in test_idx]


# ---------------------------------------------------------------------------
# beat loading shared by several commands


def _load_beats(p, require=True):
    args = p.args
    beats = []
    if getattr(args, "synthetic", None):
        n = p.get("synthetic", int)
        seed = p.get("seed", int, 0)
        if getattr(args, "trio", False):
            beats = synthetic.shifted_trio_beats(n, seed=seed)
        elif getattr(args, "amp_vary", False):
            beats = synthetic.amplitude_varying_beats(n, seed=seed)
        else:
            beats = synthetic.synthetic_beats(n, seed=seed)
    elif getattr(args, "beats", None):
        beats = ingest.read_beats_csv(
            Path(args.beats).read_text(), source_id=Path(args.beats).name)
    elif getattr(args, "record", None):
        if not getattr(args, "annotations", None):
            raise BadConfigError("--record requires --annotations")
        record = ingest.read_wfdb(args.record)
        anns = ingest.read_annotations(Path(args.annotations).read_text())
        beats, skipped = ingest.process_record(
            record, anns,
            pre_s=p.get("pre", float, 0.25),
            post_s=p.get("post", float, 0.45),
            channel=p.get("channel", int, 0))
        return beats, skipped
    elif require:
        raise BadConfigError("no beat source given (--beats / --record / --synthetic)")
    return beats, 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args):
    p = Params(args)
    beats, skipped = _load_beats(p)
    atomic_write_text(args.out, ingest.format_beats_csv(beats))
    _emit({"schema_version": SCHEMA_VERSION, "command": "ingest",
           "beats": len(beats), "skipped": skipped, "out": args.out})


def _train_columns(beats, fb, w, s, wl, max_cols, seed):
    mats = _beat_features(beats, fb, w, s, wl)
    Y = np.hstack([fm.columns for fm in mats])
    if max_cols and Y.shape[1] > max_cols:
        rng = np.random.default_rng(seed)
        Y = Y[:, rng.choice(Y.shape[1], size=max_cols, replace=False)]
    return Y


def cmd_train_dict(args):
    p = Params(args)
    beats, _ = _load_beats(p)
    fb, w, s, wl, d, lam = _geometry(p)
    seed = p.get("seed", int, 0)
    method = p.get("method", str, "odl")
    k = p.get("k", int, 2 * d)
    max_cols = p.get("max-cols", int, 0)
    Y = _train_columns(beats, fb, w, s, wl, max_cols, seed)
    if method == "odl":
        cfg = dictionary.TrainConfig(
            k=k, lam=lam,
            batch_size=p.get("batch-size", int, 64),
            epochs=p.get("epochs", int, 10),
            seed=seed)
        result = dictionary.train_online(Y, cfg)
        D = result.dictionary
        final_obj = result.objective_log[-1] if result.objective_log else None
    elif method == "vq":
        D, _ = dictionary.kmeans_vq(Y, k, seed=seed,
                                    iters=p.get("epochs", int, 50))
        final_obj = None
    else:
        raise BadConfigError(f"unknown training method {method!r}")
    dictionary.save_dictionary(args.out, D)
    _emit({"schema_version": SCHEMA_VERSION, "command": "train-dict",
           "method": method, "d": int(D.shape[0]), "k": int(D.shape[1]),
           "columns": int(Y.shape[1]), "lam": lam,
           "final_objective": final_obj, "out": args.out})


def _encode_beats(beats, D, fb, w, s, wl, lam, method):
    mats = _beat_features(beats, fb, w, s, wl)
    if not mats:
        return []
    if mats[0].d != D.shape[0]:
        raise ShapeMismatchError(
            f"features have d={mats[0].d} but dictionary d={D.shape[0]}")
    if method == "sparse":
        # one encode_all call over every beat's windows, split back per beat
        X = encode_all(D, np.hstack([fm.columns for fm in mats]), lam)
        ends = np.cumsum([fm.omega for fm in mats])[:-1]
        return [codec.SparseCode.from_dense(Xb, label=beat.label,
                                            source_id=_beat_source_id(beat))
                for beat, Xb in zip(beats, np.split(X, ends, axis=1))]
    codes = []
    for beat, fm in zip(beats, mats):  # vq: cardinality-1 codes, coefficient 1
        d2 = (np.sum(fm.columns ** 2, axis=0)[:, None]
              - 2.0 * fm.columns.T @ D + np.sum(D * D, axis=0)[None, :])
        assign = np.argmin(d2, axis=1)
        X = np.zeros((D.shape[1], fm.omega))
        X[assign, np.arange(fm.omega)] = 1.0
        codes.append(codec.SparseCode.from_dense(X, label=beat.label,
                                                 source_id=_beat_source_id(beat)))
    return codes


def cmd_encode(args):
    p = Params(args)
    beats, _ = _load_beats(p)
    fb, w, s, wl, d, lam = _geometry(p)
    method = p.get("method", str, "sparse")
    if method not in ("sparse", "vq"):
        raise BadConfigError(f"unknown encode method {method!r}")
    D = dictionary.load_dictionary(args.dict)
    codes = _encode_beats(beats, D, fb, w, s, wl, lam, method)
    codec.save_codes(args.out, codes)
    nnz = [c.nnz for c in codes]
    _emit({"schema_version": SCHEMA_VERSION, "command": "encode",
           "method": method, "beats": len(codes), "lam": lam,
           "mean_nnz": float(np.mean(nnz)) if nnz else 0.0, "out": args.out})


def _reconstruct_all(D, codes, geometry):
    w, s, fb, wl = geometry
    recons = []
    for code in codes:
        Y_hat = codec.decompress(D, code)
        recons.append(codec.reconstruct_beat(Y_hat, (w, s, fb, wl)))
    return recons


def cmd_reconstruct(args):
    p = Params(args)
    fb, w, s, wl, _, _ = _geometry(p)
    D = dictionary.load_dictionary(args.dict)
    codes = codec.load_codes(args.codes)
    beats, _ = _load_beats(p)
    if len(beats) != len(codes):
        raise ShapeMismatchError(
            f"{len(beats)} beats but {len(codes)} codes")
    limit = p.get("limit", int, 10)
    picked = list(range(len(codes)))[:limit] if limit else range(len(codes))
    rows = ["beat_id,sample,original,reconstructed"]
    for bi in picked:
        recon = _reconstruct_all(D, [codes[bi]], (w, s, fb, wl))[0]
        orig = beats[bi].values
        for t in range(len(recon)):
            rows.append(f"{bi},{t},{orig[t]:.9g},{recon[t]:.9g}")
    atomic_write_text(args.out, "\n".join(rows) + "\n")
    _emit({"schema_version": SCHEMA_VERSION, "command": "reconstruct",
           "beats": len(list(picked)), "out": args.out})


def cmd_metrics(args):
    p = Params(args)
    fb, w, s, wl, _, _ = _geometry(p)
    D = dictionary.load_dictionary(args.dict)
    codes = codec.load_codes(args.codes)
    if codes and codes[0].k != D.shape[1]:
        raise ShapeMismatchError(
            f"dictionary has k={D.shape[1]} but codes expect k={codes[0].k}")
    beats, _ = _load_beats(p)
    if len(beats) != len(codes):
        raise ShapeMismatchError(f"{len(beats)} beats but {len(codes)} codes")
    recons = _reconstruct_all(D, codes, (w, s, fb, wl))
    originals = [b.values for b in beats]
    err_mean = codec.err_metric(recons, originals)
    cr_mean = codec.cr_metric(codes)
    per_beat = []
    per_class = {}
    for i, (code, m, n) in enumerate(zip(codes, recons, originals)):
        err = float(np.linalg.norm(m - n) / np.linalg.norm(n))
        per_beat.append((i, code.label, code.nnz, err))
        bucket = per_class.setdefault(code.label, {"count": 0, "err": 0.0, "nnz": 0})
        bucket["count"] += 1
        bucket["err"] += err
        bucket["nnz"] += code.nnz
    breakdown = {
        label: {
            "count": v["count"],
            "err_mean": v["err"] / v["count"],
            "cr_mean": (ingest.BEAT_LENGTH - v["nnz"] / v["count"]) / ingest.BEAT_LENGTH,
        }
        for label, v in sorted(per_class.items())
    }
    doc = {"schema_version": SCHEMA_VERSION, "command": "metrics",
           "beats": len(codes), "err_mean": err_mean, "cr_mean": cr_mean,
           "per_class": breakdown}
    if args.out_json:
        atomic_write_text(args.out_json, json.dumps(doc, indent=2) + "\n")
    if args.out_csv:
        rows = ["beat_id,label,nnz,err"]
        rows += [f"{i},{lab},{nnz},{err:.9g}" for i, lab, nnz, err in per_beat]
        atomic_write_text(args.out_csv, "\n".join(rows) + "\n")
    _emit(doc)


def cmd_featurize(args):
    p = Params(args)
    codes = codec.load_codes(args.codes)
    method = p.get("method", str, "tpm")
    normalize = not getattr(args, "no_normalize", False)
    if method == "tpm":
        cfg = features.PyramidConfig(
            levels=p.get("levels", int, 2),
            mode=p.get("mode", str, "expectation"),
            seed=p.get("seed", int, 0),
            normalize_output=normalize)
        hists = [features.tpm_feature(c, cfg) for c in codes]
    elif method == "bow":
        hists = [features.bow_feature(c, normalize) for c in codes]
    else:
        raise BadConfigError(f"unknown featurize method {method!r}")
    atomic_write_text(args.out, features.format_features_csv(hists))
    _emit({"schema_version": SCHEMA_VERSION, "command": "featurize",
           "method": method, "beats": len(hists),
           "k": int(hists[0].z.shape[0]) if hists else 0, "out": args.out})


def _read_features(path):
    hists = features.parse_features_csv(Path(path).read_text())
    if not hists:
        raise DataError(f"{path}: no feature rows")
    return hists


def cmd_train_svm(args):
    p = Params(args)
    hists = _read_features(args.features)
    Z = np.vstack([h.z for h in hists])
    labels = [h.label for h in hists]
    seed = p.get("seed", int, 0)
    folds = p.get("folds", int, 5)
    cv_acc = None
    counts = {"pso_evaluations": None, "smo_updates": None}
    if getattr(args, "pso", False):
        cfg = classify.PsoConfig(
            swarm_size=p.get("swarm", int, 20),
            iterations=p.get("iters", int, 30),
            folds=folds, seed=seed)
        C, gamma, cv_acc, counts = classify.pso_search(Z, labels, cfg)
    else:
        C = p.get("C", float, 8.0)
        gamma = p.get("gamma", float, 1.0)
        if getattr(args, "cv", False):
            cv_acc = classify.cross_validate(Z, labels, C, gamma,
                                             folds=folds, seed=seed)
    model = classify.ovo_train(Z, labels, C, gamma)
    classify.save_model(args.out, model)
    _emit({"schema_version": SCHEMA_VERSION, "command": "train-svm",
           "classes": model.classes, "pairs": len(model.models),
           "unconverged_pairs": _unconverged_pairs(model),
           "C": C, "gamma": gamma, "cv_accuracy": cv_acc, **counts,
           "out": args.out})


def _unconverged_pairs(model):
    """Pairs whose SMO hit its update cap or a stuck pair before the KKT gap closed."""
    return sum(not m.converged for m in model.models.values())


def _evaluate(model, hists):
    Z = np.vstack([h.z for h in hists])
    truth = [h.label for h in hists]
    pred = classify.ovo_predict_batch(model, Z)
    classes = model.classes
    idx = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    for t, q in zip(truth, pred):
        if t in idx:
            confusion[idx[t], idx[q]] += 1
    accuracy = float(np.mean([t == q for t, q in zip(truth, pred)]))
    per_class = {}
    for c in classes:
        members = [i for i, t in enumerate(truth) if t == c]
        if members:
            per_class[c] = float(np.mean([pred[i] == c for i in members]))
    return accuracy, per_class, confusion


def _confusion_csv(classes, confusion):
    rows = ["true\\pred," + ",".join(classes)]
    for i, c in enumerate(classes):
        rows.append(c + "," + ",".join(str(v) for v in confusion[i]))
    return "\n".join(rows) + "\n"


def cmd_evaluate(args):
    model = classify.load_model(args.model)
    hists = _read_features(args.features)
    if hists[0].z.shape[0] != model.models[min(model.models)].support_vectors.shape[1]:
        raise ShapeMismatchError(
            f"features have dim {hists[0].z.shape[0]} but model expects "
            f"{model.models[min(model.models)].support_vectors.shape[1]}")
    accuracy, per_class, confusion = _evaluate(model, hists)
    doc = {"schema_version": SCHEMA_VERSION, "command": "evaluate",
           "beats": len(hists), "accuracy": accuracy, "per_class": per_class}
    if args.out_json:
        atomic_write_text(args.out_json, json.dumps(doc, indent=2) + "\n")
    if args.out_confusion:
        atomic_write_text(args.out_confusion,
                          _confusion_csv(model.classes, confusion))
    _emit(doc)


def cmd_pipeline(args):
    p = Params(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    beats, _ = _load_beats(p)
    if not beats:
        raise DataError("no beats to process")
    seed = p.get("seed", int, 0)
    train, test = split_dataset(
        beats,
        train_total=p.get("train-total", int, None),
        train_per_class=p.get("train-per-class", int, None),
        train_frac=p.get("train-frac", float, None),
        seed=seed)
    fb, w, s, wl, d, lam = _geometry(p)
    paths = {name: str(out_dir / name) for name in (
        "beats_train.csv", "beats_test.csv", "dict.sbd", "codes_train.sbc",
        "codes_test.sbc", "metrics.json", "features_train.csv",
        "features_test.csv", "model.json", "report.json", "confusion.csv",
        "waveforms.csv")}
    atomic_write_text(paths["beats_train.csv"], ingest.format_beats_csv(train))
    atomic_write_text(paths["beats_test.csv"], ingest.format_beats_csv(test))

    # dictionary
    k = p.get("k", int, 2 * d)
    Y = _train_columns(train, fb, w, s, wl, p.get("max-cols", int, 1500), seed)
    cfg = dictionary.TrainConfig(
        k=k, lam=lam, batch_size=p.get("batch-size", int, 64),
        epochs=p.get("epochs", int, 3), seed=seed)
    D = dictionary.train_online(Y, cfg).dictionary
    dictionary.save_dictionary(paths["dict.sbd"], D)

    # compress
    codes_train = _encode_beats(train, D, fb, w, s, wl, lam, "sparse")
    codes_test = _encode_beats(test, D, fb, w, s, wl, lam, "sparse")
    codec.save_codes(paths["codes_train.sbc"], codes_train)
    codec.save_codes(paths["codes_test.sbc"], codes_test)

    # metrics + a small waveform dump on the test set
    recons = _reconstruct_all(D, codes_test, (w, s, fb, wl))
    originals = [b.values for b in test]
    err_mean = codec.err_metric(recons, originals)
    cr_mean = codec.cr_metric(codes_test)
    atomic_write_text(paths["metrics.json"], json.dumps(
        {"schema_version": SCHEMA_VERSION, "err_mean": err_mean,
         "cr_mean": cr_mean, "beats": len(codes_test)}, indent=2) + "\n")
    rows = ["beat_id,sample,original,reconstructed"]
    for bi in range(min(5, len(test))):
        for t in range(ingest.BEAT_LENGTH):
            rows.append(f"{bi},{t},{originals[bi][t]:.9g},{recons[bi][t]:.9g}")
    atomic_write_text(paths["waveforms.csv"], "\n".join(rows) + "\n")

    # featurize
    pyr = features.PyramidConfig(
        levels=p.get("levels", int, 2), mode=p.get("mode", str, "expectation"),
        seed=seed)
    hists_train = [features.tpm_feature(c, pyr) for c in codes_train]
    hists_test = [features.tpm_feature(c, pyr) for c in codes_test]
    atomic_write_text(paths["features_train.csv"],
                      features.format_features_csv(hists_train))
    atomic_write_text(paths["features_test.csv"],
                      features.format_features_csv(hists_test))

    # classify
    Z = np.vstack([h.z for h in hists_train])
    labels = [h.label for h in hists_train]
    if getattr(args, "pso", False):
        pso_cfg = classify.PsoConfig(
            swarm_size=p.get("swarm", int, 10),
            iterations=p.get("iters", int, 10),
            folds=p.get("folds", int, 3), seed=seed)
        C, gamma, _, _ = classify.pso_search(Z, labels, pso_cfg)
    else:
        C = p.get("C", float, 8.0)
        gamma = p.get("gamma", float, 1.0)
    model = classify.ovo_train(Z, labels, C, gamma)
    classify.save_model(paths["model.json"], model)
    accuracy, per_class, confusion = _evaluate(model, hists_test)
    atomic_write_text(paths["report.json"], json.dumps(
        {"schema_version": SCHEMA_VERSION, "accuracy": accuracy,
         "per_class": per_class}, indent=2) + "\n")
    atomic_write_text(paths["confusion.csv"],
                      _confusion_csv(model.classes, confusion))

    _emit({"schema_version": SCHEMA_VERSION, "command": "pipeline",
           "beats": len(beats), "train": len(train), "test": len(test),
           "err_mean": err_mean, "cr_mean": cr_mean, "accuracy": accuracy,
           "C": C, "gamma": gamma, "unconverged_pairs": _unconverged_pairs(model),
           "out_dir": str(out_dir)})


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, *groups):
    sp.add_argument("--config", help="key = value config file")
    if "geometry" in groups:
        sp.add_argument("--fb", help="filter bank: haar, db4, bior2.6")
        sp.add_argument("--window", type=int, help="window length w")
        sp.add_argument("--stride", type=int, help="window stride s")
        sp.add_argument("--wl", type=int, help="per-window DWT levels")
        sp.add_argument("--lam", type=float, help="sparsity weight lambda")
    if "source" in groups:
        sp.add_argument("--beats", help="beats CSV (label, v1..v300)")
        sp.add_argument("--record", help="WFDB .hea path (format 212)")
        sp.add_argument("--annotations", help="annotation CSV for --record")
        sp.add_argument("--synthetic", type=int,
                        help="generate N synthetic beats per class")
        sp.add_argument("--trio", action="store_true",
                        help="use the 3-class time-shift synthetic set")
        sp.add_argument("--amp-vary", action="store_true",
                        help="use the amplitude-varying compression set")
        sp.add_argument("--pre", type=float, help="seconds before R (default 0.25)")
        sp.add_argument("--post", type=float, help="seconds after R (default 0.45)")
        sp.add_argument("--channel", type=int, help="record channel (default 0)")
    sp.add_argument("--seed", type=int, help="RNG seed (default 0)")


def build_parser():
    ap = _Parser(prog="ecgsparse",
                 description="ECG beat compression and classification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="read records/CSV, emit normalized beats")
    _add_common(sp, "source")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("train-dict", help="learn the dictionary (ODL or VQ)")
    _add_common(sp, "source", "geometry")
    sp.add_argument("--out", required=True)
    sp.add_argument("--method", choices=("odl", "vq"))
    sp.add_argument("--k", type=int, help="atom count (default 2d)")
    sp.add_argument("--batch-size", type=int)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--max-cols", type=int, help="subsample training columns")
    sp.set_defaults(func=cmd_train_dict)

    sp = sub.add_parser("encode", help="compress beats to sparse codes")
    _add_common(sp, "source", "geometry")
    sp.add_argument("--dict", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--method", choices=("sparse", "vq"))
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("reconstruct", help="dump original vs reconstructed CSV")
    _add_common(sp, "source", "geometry")
    sp.add_argument("--dict", required=True)
    sp.add_argument("--codes", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--limit", type=int, help="beats to dump (default 10)")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("metrics", help="Err/Cr metrics for a code file")
    _add_common(sp, "source", "geometry")
    sp.add_argument("--dict", required=True)
    sp.add_argument("--codes", required=True)
    sp.add_argument("--out-json")
    sp.add_argument("--out-csv")
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("featurize", help="pyramid (or BOW) features from codes")
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--codes", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--method", choices=("tpm", "bow"))
    sp.add_argument("--levels", type=int)
    sp.add_argument("--mode", choices=("expectation", "stochastic"))
    sp.add_argument("--no-normalize", action="store_true")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_featurize)

    sp = sub.add_parser("train-svm", help="train the OVO RBF SVM")
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--features", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--C", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--pso", action="store_true", help="PSO over (C, gamma)")
    sp.add_argument("--cv", action="store_true", help="report CV accuracy")
    sp.add_argument("--folds", type=int)
    sp.add_argument("--swarm", type=int)
    sp.add_argument("--iters", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_train_svm)

    sp = sub.add_parser("evaluate", help="accuracy report + confusion matrix")
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--model", required=True)
    sp.add_argument("--features", required=True)
    sp.add_argument("--out-json")
    sp.add_argument("--out-confusion")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("pipeline", help="full chain: pretreat -> dict -> "
                        "compress -> featurize -> classify")
    _add_common(sp, "source", "geometry")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--k", type=int)
    sp.add_argument("--batch-size", type=int)
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--max-cols", type=int)
    sp.add_argument("--train-total", type=int)
    sp.add_argument("--train-per-class", type=int)
    sp.add_argument("--train-frac", type=float)
    sp.add_argument("--levels", type=int)
    sp.add_argument("--mode", choices=("expectation", "stochastic"))
    sp.add_argument("--C", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--pso", action="store_true")
    sp.add_argument("--folds", type=int)
    sp.add_argument("--swarm", type=int)
    sp.add_argument("--iters", type=int)
    sp.set_defaults(func=cmd_pipeline)

    return ap


def run_command(argv):
    """Dispatch one CLI invocation; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        args.func(args)
        return 0
    except ValidationError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: missing file: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # data errors, solver caps, input that is not UTF-8 text, and input
    # that asks for more memory than there is (an SBC1 header may claim
    # billions of atoms)
    except (EcgSparseError, UnicodeDecodeError, MemoryError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
