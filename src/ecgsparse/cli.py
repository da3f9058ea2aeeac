"""Command-line pipeline orchestration.

Subcommands: ingest, train-dict, encode, reconstruct, metrics, featurize,
train-svm, evaluate, pipeline.  Every command writes its outputs atomically
and prints a one-line JSON summary to stdout.  Exit codes: 0 success,
1 validation/usage error, 2 data error.

The parser holds each option's type, range and default.  A `key = value`
config file (--config) replaces the defaults, its values checked as flags
are, before any input is read; explicit flags win over the file.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import classify, codec, dictionary, features, ingest, synthetic, wavelet
from .errors import (BadConfigError, CorruptFileError, DataError, EcgSparseError,
                     NotEnoughDataError, ShapeMismatchError, TooFewPerClassError,
                     ValidationError)
from .fileio import atomic_write_text
from .sparse_coding import default_lambda

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# config file and the options derived from others


def load_config(path):
    cfg = {}
    with open(path) as lines:
        for i, line in ingest.data_lines(lines):
            if "=" not in line:
                raise BadConfigError(f"{path}:{i}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _ranged(cast, rule, holds):
    """argparse type of a number cast(text), refused unless holds(value)."""
    def parse(text):
        if not holds(value := cast(text)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names it on an unparsable value
    return parse


_COUNT = _ranged(int, ">= 0", lambda n: n >= 0)
_POS_INT = _ranged(int, ">= 1", lambda n: n >= 1)
_POS_REAL = _ranged(float, "finite and > 0", lambda x: 0 < x < np.inf)


def _geometry(args):
    """(filter bank, feature dimension d, lambda), lambda by default from d."""
    fb = wavelet.filter_bank(args.fb)
    d = wavelet.feature_dimension(fb, args.window, args.wl)
    return fb, d, default_lambda(d) if args.lam is None else args.lam


def _beat_windows(args, beats, fb):
    """Each beat's d x Omega window feature matrix, made as it is read."""
    return (wavelet.extract_windows(b, fb, args.window, args.stride, args.wl).columns
            for b in beats)


def _emit(summary):
    print(json.dumps(summary))


# ---------------------------------------------------------------------------
# dataset splitting


def split_dataset(beats, train_total=None, train_per_class=None,
                  train_frac=None, seed=0):
    """Seeded stratified split; exactly one sizing rule applies.

    train_total spreads proportionally over classes (largest remainder,
    at least one beat per class); train_per_class takes a fixed count from
    every class; train_frac is the proportional shortcut.  Neither side of
    the split may come out empty.
    """
    rules = [v is not None for v in (train_total, train_per_class, train_frac)]
    if sum(rules) > 1:
        raise BadConfigError("give only one of train_total/train_per_class/train_frac")
    if sum(rules) == 0:
        train_frac = 0.7
    if train_frac is not None and not 0.0 < train_frac < 1.0:  # NaN fails too
        raise BadConfigError(f"train_frac must be in (0, 1), got {train_frac}")

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
    if not train_idx or not test_idx:
        raise TooFewPerClassError(f"split leaves {len(train_idx)} train and "
                                  f"{len(test_idx)} test beats")
    train_idx.sort()
    test_idx.sort()
    return [beats[i] for i in train_idx], [beats[i] for i in test_idx]


# ---------------------------------------------------------------------------
# beat loading shared by several commands


def _load_beats(args):
    """(beats, skipped) from the one beat source given."""
    if sum(bool(s) for s in (args.synthetic, args.beats, args.record)) > 1:
        raise BadConfigError("give only one of --synthetic / --beats / --record")
    if args.trio and args.amp_vary:
        raise BadConfigError("give only one of --trio / --amp-vary")
    if args.synthetic:
        make = (synthetic.shifted_trio_beats if args.trio
                else synthetic.amplitude_varying_beats if args.amp_vary
                else synthetic.synthetic_beats)
        return make(args.synthetic, seed=args.seed), 0
    if args.beats:  # read line by line: the text is not held beside the beats
        with open(args.beats) as lines:
            return ingest.read_beats_csv(lines, source_id=Path(args.beats).name), 0
    if args.record:
        if not args.annotations:
            raise BadConfigError("--record requires --annotations")
        record = ingest.read_wfdb(args.record)
        with open(args.annotations) as lines:
            anns = ingest.read_annotations(lines)
        return ingest.process_record(record, anns, pre_s=args.pre, post_s=args.post,
                                     channel=args.channel)
    raise BadConfigError("no beat source given (--beats / --record / --synthetic)")


# ---------------------------------------------------------------------------
# stages: each runs in memory and is shared by its subcommand and `pipeline`;
# options come from `args`, whose defaults the parser sets per command


def _train_dictionary(args, windows, geometry, method, counts):
    """ODL or VQ dictionary on the beats' window matrices; returns (D,
    training columns, final objective).  counts gets ODL's encode_all
    solver tallies."""
    _, d, lam = geometry
    k = 2 * d if args.k is None else args.k
    if not windows:
        raise NotEnoughDataError("no beats to train a dictionary on")
    Y = np.hstack(windows)
    if args.max_cols and Y.shape[1] > args.max_cols:
        rng = np.random.default_rng(args.seed)
        Y = Y[:, rng.choice(Y.shape[1], size=args.max_cols, replace=False)]
    if method == "odl":
        D, log = dictionary.train_online(Y, k, lam, args.batch_size,
                                         10 if args.epochs is None else args.epochs,
                                         args.seed, counts)
        return D, Y, log[-1] if log else None
    D, _ = dictionary.kmeans_vq(Y, k, seed=args.seed,
                                iters=50 if args.epochs is None else args.epochs)
    return D, Y, None


def _encode_beats(beats, windows, D, geometry, method, counts=None):
    """Iterator of the beats' SparseCodes, made as the iterable of their
    window matrices is read; counts gets encode_all's solver tallies."""
    _, d, lam = geometry
    if beats and d != D.shape[0]:
        raise ShapeMismatchError(f"features have d={d} but dictionary d={D.shape[0]}")
    labels = (beat.label for beat in beats)
    ids = (f"{beat.source[0]}:{beat.source[1]}" for beat in beats)
    if method == "sparse":
        return codec.compress(D, windows, lam, labels, ids, counts)
    return (codec.SparseCode.from_dense(_vq_code(D, Y), label=label, source_id=sid)
            for Y, label, sid in zip(windows, labels, ids, strict=True))


def _vq_code(D, Y):
    """1-of-k codes with coefficient 1: each window's nearest atom."""
    X = np.zeros((D.shape[1], Y.shape[1]))
    X[dictionary.nearest_atoms(D, Y)[0], np.arange(Y.shape[1])] = 1.0
    return X


def _reconstruct_all(args, D, codes, fb):
    return [codec.reconstruct_beat(codec.decompress(D, code),
                                   (args.window, args.stride, fb, args.wl))
            for code in codes]


def _waveforms_csv(beats, recons):
    rows = ["beat_id,sample,original,reconstructed"]
    for bi, (beat, recon) in enumerate(zip(beats, recons)):
        rows += [f"{bi},{t},{orig:.9g},{rec:.9g}"
                 for t, (orig, rec) in enumerate(zip(beat.values, recon))]
    return "\n".join(rows) + "\n"


def _featurize(args, codes, method, normalize):
    """(labels, N x k feature matrix) of the codes."""
    if method == "tpm":
        rows = [features.tpm_feature(c, args.levels, args.mode, args.seed) for c in codes]
    else:
        rows = [features.bow_feature(c) for c in codes]
    if normalize:
        rows = [features.unit(z) for z in rows]
    return [c.label for c in codes], np.vstack(rows) if rows else np.zeros((0, 0))


def _train_svm(args, labels, Z):
    """PSO, --cv or fixed (C, gamma) -> (model, C, gamma, CV accuracy, PSO counts)."""
    C, gamma, cv_acc = args.C, args.gamma, None
    counts = {"pso_evaluations": None, "smo_updates": None}
    if args.pso:
        C, gamma, cv_acc, counts = classify.pso_search(Z, labels, args.swarm, args.iters,
                                                       args.folds, args.seed)
    elif getattr(args, "cv", False):  # pipeline has no --cv
        (cv_acc,), _ = classify.cross_validate(Z, labels, [(C, gamma)], args.folds,
                                               args.seed)
    return classify.ovo_train(Z, labels, C, gamma), C, gamma, cv_acc, counts


def _unconverged_pairs(model):
    """Pairs whose SMO hit its update cap or a stuck pair before the KKT gap closed."""
    return sum(not m.converged for m in model.models.values())


def _evaluate(model, truth, Z):
    """Returns (accuracy, per-class accuracy, confusion matrix as CSV text)."""
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
    rows = ["true\\pred," + ",".join(classes)]
    rows += [c + "," + ",".join(str(v) for v in confusion[i])
             for i, c in enumerate(classes)]
    return accuracy, per_class, "\n".join(rows) + "\n"


def _write_json(path, doc):
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands: load inputs, run the stage, write and emit


def cmd_ingest(args):
    beats, skipped = _load_beats(args)
    atomic_write_text(args.out, ingest.format_beats_csv(beats))
    _emit({"schema_version": SCHEMA_VERSION, "command": "ingest",
           "beats": len(beats), "skipped": skipped, "out": args.out})


def cmd_train_dict(args):
    beats, _ = _load_beats(args)
    geometry = _geometry(args)
    counters = {}
    D, Y, final_obj = _train_dictionary(args, list(_beat_windows(args, beats, geometry[0])),
                                        geometry, args.method, counters)
    dictionary.save_dictionary(args.out, D)
    _emit({"schema_version": SCHEMA_VERSION, "command": "train-dict",
           "method": args.method, "d": int(D.shape[0]), "k": int(D.shape[1]),
           "columns": int(Y.shape[1]), "lam": geometry[2],
           "final_objective": final_obj, "out": args.out, "counters": counters})


def cmd_encode(args):
    beats, _ = _load_beats(args)
    geometry = _geometry(args)
    D = dictionary.load_dictionary(args.dict)
    # encode_all's unit-ball rule, and finite VQ distances: a file that breaks
    # them is damaged data
    with np.errstate(over="ignore"):  # an overflowing norm reads inf
        norm = np.sqrt(np.sum(D * D, axis=0).max(initial=0.0))
    if norm == np.inf or (args.method == "sparse" and norm > 1.0 + 1e-9):
        raise CorruptFileError(f"{args.dict}: atom norm {norm:.6g} too large for "
                               f"--method {args.method}")
    counters, nnz = {}, 0

    def coded():  # codes as they are made, beat by beat, their nnz summed
        nonlocal nnz
        for code in _encode_beats(beats, _beat_windows(args, beats, geometry[0]), D,
                                  geometry, args.method, counters):
            nnz += code.nnz
            yield code

    sbc_bytes = codec.save_codes(args.out, coded(), len(beats))
    _emit({"schema_version": SCHEMA_VERSION, "command": "encode",
           "method": args.method, "beats": len(beats), "lam": geometry[2],
           "mean_nnz": nnz / len(beats) if beats else 0.0, "out": args.out,
           "counters": counters, "sbc_bytes": sbc_bytes})


def _load_coded_beats(args):
    """Filter bank, dictionary, codes and the beats they code, checked to agree.

    SBC1 stores no window geometry, so only the window count is checked
    against --window/--stride: a stride with the same count goes unnoticed.
    """
    fb = _geometry(args)[0]
    omega = len(wavelet.window_starts(ingest.BEAT_LENGTH, args.window, args.stride))
    D = dictionary.load_dictionary(args.dict)
    codes = codec.load_codes(args.codes)
    if codes and codes[0].k != D.shape[1]:
        raise ShapeMismatchError(
            f"dictionary has k={D.shape[1]} but codes expect k={codes[0].k}")
    for i, code in enumerate(codes):
        if code.omega != omega:
            raise ShapeMismatchError(
                f"code {i} has {code.omega} windows but --window {args.window} "
                f"--stride {args.stride} give {omega}")
    beats, _ = _load_beats(args)
    if len(beats) != len(codes):
        raise ShapeMismatchError(f"{len(beats)} beats but {len(codes)} codes")
    return fb, D, codes, beats


def cmd_reconstruct(args):
    fb, D, codes, beats = _load_coded_beats(args)
    picked = codes[:args.limit] if args.limit else codes
    recons = _reconstruct_all(args, D, picked, fb)
    atomic_write_text(args.out, _waveforms_csv(beats[:len(picked)], recons))
    _emit({"schema_version": SCHEMA_VERSION, "command": "reconstruct",
           "beats": len(picked), "out": args.out})


def cmd_metrics(args):
    fb, D, codes, beats = _load_coded_beats(args)
    recons = _reconstruct_all(args, D, codes, fb)
    errs, err_mean = codec.beat_errs(recons, [b.values for b in beats])
    cr_mean = codec.cr_metric(codes)
    per_class = {}
    for code, err in zip(codes, errs):
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
    head = {"schema_version": SCHEMA_VERSION, "command": "metrics",
            "beats": len(codes), "err_mean": err_mean, "cr_mean": cr_mean}
    if args.out_json:
        _write_json(args.out_json, {**head, "per_class": breakdown})
    if args.out_csv:
        rows = ["beat_id,label,nnz,err"]
        rows += [f"{i},{code.label},{code.nnz},{err:.9g}"
                 for i, (code, err) in enumerate(zip(codes, errs))]
        atomic_write_text(args.out_csv, "\n".join(rows) + "\n")
    # the real size of the codes read, next to Eq. 10's Cr
    sbc_bytes = Path(args.codes).stat().st_size
    _emit({**head, "sbc_bytes": sbc_bytes,
           "sbc_bytes_per_beat": sbc_bytes / len(codes) if codes else 0.0,
           "per_class": breakdown})


def cmd_featurize(args):
    codes = codec.load_codes(args.codes)
    labels, Z = _featurize(args, codes, args.method, normalize=not args.no_normalize)
    atomic_write_text(args.out, features.format_features_csv(labels, Z))
    _emit({"schema_version": SCHEMA_VERSION, "command": "featurize",
           "method": args.method, "beats": len(labels), "k": Z.shape[1],
           "out": args.out})


def cmd_train_svm(args):
    with open(args.features) as lines:
        feats = features.parse_features_csv(lines)
    model, C, gamma, cv_acc, counts = _train_svm(args, *feats)
    classify.save_model(args.out, model)
    _emit({"schema_version": SCHEMA_VERSION, "command": "train-svm",
           "classes": model.classes, "pairs": len(model.models),
           "unconverged_pairs": _unconverged_pairs(model),
           "C": C, "gamma": gamma, "cv_accuracy": cv_acc, **counts,
           "out": args.out})


def cmd_evaluate(args):
    model = classify.load_model(args.model)
    with open(args.features) as lines:
        labels, Z = features.parse_features_csv(lines)
    # a pair that retained no vector predicts its bias at any width
    dims = {m.support_vectors.shape[1] for m in model.models.values()
            if len(m.support_vectors)}
    if dims and Z.shape[1] not in dims:
        raise ShapeMismatchError(f"features have dim {Z.shape[1]} but model expects "
                                 f"{min(dims)}")
    accuracy, per_class, confusion = _evaluate(model, labels, Z)
    doc = {"schema_version": SCHEMA_VERSION, "command": "evaluate",
           "beats": len(labels), "accuracy": accuracy, "per_class": per_class}
    if args.out_json:
        _write_json(args.out_json, doc)
    if args.out_confusion:
        atomic_write_text(args.out_confusion, confusion)
    _emit(doc)


def cmd_pipeline(args):
    """Split, then every stage in memory with pipeline's own defaults; the
    out-dir is made and written only once every stage has run, so a stage
    that refuses the data leaves no file."""
    beats, _ = _load_beats(args)
    if not beats:
        raise DataError("no beats to process")
    train, test = split_dataset(beats, train_total=args.train_total,
                                train_per_class=args.train_per_class,
                                train_frac=args.train_frac, seed=args.seed)
    geometry = _geometry(args)
    windows_train = list(_beat_windows(args, train, geometry[0]))
    dict_counters = {}
    D, _, _ = _train_dictionary(args, windows_train, geometry, "odl", dict_counters)
    counters = {}
    codes_train = list(_encode_beats(train, windows_train, D, geometry, "sparse", counters))
    del windows_train  # not needed again; held, it would raise the later peaks
    codes_test = list(_encode_beats(test, _beat_windows(args, test, geometry[0]), D,
                                    geometry, "sparse", counters))
    recons = _reconstruct_all(args, D, codes_test, geometry[0])
    err_mean = codec.err_metric(recons, [b.values for b in test])
    cr_mean = codec.cr_metric(codes_test)
    feats_train = _featurize(args, codes_train, "tpm", normalize=True)
    feats_test = _featurize(args, codes_test, "tpm", normalize=True)
    model, C, gamma, _, counts = _train_svm(args, *feats_train)
    accuracy, per_class, confusion = _evaluate(model, *feats_test)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "beats_train.csv", ingest.format_beats_csv(train))
    atomic_write_text(out_dir / "beats_test.csv", ingest.format_beats_csv(test))
    dictionary.save_dictionary(out_dir / "dict.sbd", D)
    codec.save_codes(out_dir / "codes_train.sbc", codes_train, len(codes_train))
    codec.save_codes(out_dir / "codes_test.sbc", codes_test, len(codes_test))
    _write_json(out_dir / "metrics.json", {"schema_version": SCHEMA_VERSION,
                                           "err_mean": err_mean, "cr_mean": cr_mean,
                                           "beats": len(codes_test)})
    atomic_write_text(out_dir / "waveforms.csv", _waveforms_csv(test[:5], recons))
    for part, feats in (("train", feats_train), ("test", feats_test)):
        atomic_write_text(out_dir / f"features_{part}.csv",
                          features.format_features_csv(*feats))
    classify.save_model(out_dir / "model.json", model)
    _write_json(out_dir / "report.json", {"schema_version": SCHEMA_VERSION,
                                          "accuracy": accuracy, "per_class": per_class})
    atomic_write_text(out_dir / "confusion.csv", confusion)
    _emit({"schema_version": SCHEMA_VERSION, "command": "pipeline",
           "beats": len(beats), "train": len(train), "test": len(test),
           "err_mean": err_mean, "cr_mean": cr_mean, "accuracy": accuracy,
           "C": C, "gamma": gamma, "unconverged_pairs": _unconverged_pairs(model),
           **counts, "counters": counters, "dict_counters": dict_counters,
           "out_dir": str(out_dir)})


# ---------------------------------------------------------------------------
# parser: each option's type, range and default are declared once, here, in
# groups; a command takes the groups whose stages it runs


def _add_common(sp, *groups, methods=()):
    add = sp.add_argument
    w_max, k_max, l_max = ingest.BEAT_LENGTH, dictionary.MAX_K, features.MAX_LEVELS
    add("--config", help="key = value file of option defaults")
    if "geometry" in groups:
        add("--fb", default="bior2.6", help="haar, db4, bior2.6 (default %(default)s)")
        add("--window", type=_ranged(int, f"in [2, {w_max}]", lambda n: 2 <= n <= w_max),
            default=50, help="window length (default %(default)s)")
        add("--stride", type=_POS_INT, default=25, help="window stride (default %(default)s)")
        add("--wl", type=_POS_INT, default=2, help="window DWT levels (default %(default)s)")
        add("--lam", type=_POS_REAL, help="sparsity weight lambda (default from d)")
    if "source" in groups:
        add("--beats", help="beats CSV (label, v1..v300)")
        add("--record", help="WFDB .hea path (format 212)")
        add("--annotations", help="annotation CSV for --record")
        add("--synthetic", type=_COUNT, help="generate N synthetic beats per class")
        add("--trio", action="store_true",
            help="use the 3-class time-shift synthetic set")
        add("--amp-vary", action="store_true",
            help="use the amplitude-varying compression set")
        add("--pre", type=_POS_REAL, default=0.25, help="sec before R (default %(default)s)")
        add("--post", type=_POS_REAL, default=0.45, help="sec after R (default %(default)s)")
        add("--channel", type=_COUNT, default=0, help="record channel (default %(default)s)")
    if "dict" in groups:
        add("--k", type=_ranged(int, f"in [1, {k_max}]", lambda n: 1 <= n <= k_max),
            help="atom count (default 2d)")
        add("--batch-size", type=_POS_INT, default=64, help="ODL batch (default %(default)s)")
        add("--epochs", type=_POS_INT, help="ODL epochs or VQ iterations "
            "(default %(default)s; train-dict: 10 for odl, 50 for vq)")
        add("--max-cols", type=_COUNT, help="subsample training columns, 0 keeps all "
            "(default %(default)s)")
    if "pyramid" in groups:
        add("--levels", type=_ranged(int, f"in [0, {l_max}]", lambda n: 0 <= n <= l_max),
            default=2, help="TPM levels (default %(default)s)")
        add("--mode", choices=("expectation", "stochastic"), default="expectation",
            help="pooling (default %(default)s)")
    if "svm" in groups:
        add("--C", type=_POS_REAL, default=8.0, help="SVM cost C (default %(default)s)")
        add("--gamma", type=_ranged(float, "finite and >= 0", lambda x: 0 <= x < np.inf),
            default=1.0, help="RBF width (default %(default)s)")
        add("--pso", action="store_true", help="PSO over (C, gamma)")
        add("--folds", type=_ranged(int, ">= 2", lambda n: n >= 2),
            help="CV folds (default %(default)s)")
        add("--swarm", type=_POS_INT, help="PSO particles (default %(default)s)")
        add("--iters", type=_POS_INT, help="PSO iterations (default %(default)s)")
    if methods:
        add("--method", choices=methods, default=methods[0], help="(default %(default)s)")
    add("--seed", type=_COUNT, default=0, help="RNG seed (default %(default)s)")


def build_parser():
    ap = _Parser(prog="ecgsparse",
                 description="ECG beat compression and classification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ingest", help="read records/CSV, emit normalized beats")
    _add_common(sp, "source")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_ingest)

    sp = sub.add_parser("train-dict", help="learn the dictionary (ODL or VQ)")
    _add_common(sp, "source", "geometry", "dict", methods=("odl", "vq"))
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_train_dict, max_cols=0)

    sp = sub.add_parser("encode", help="compress beats to sparse codes")
    _add_common(sp, "source", "geometry", methods=("sparse", "vq"))
    sp.add_argument("--dict", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("reconstruct", help="dump original vs reconstructed CSV")
    _add_common(sp, "source", "geometry")
    sp.add_argument("--dict", required=True)
    sp.add_argument("--codes", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--limit", type=_COUNT, default=10,
                    help="beats to dump, 0 for all (default %(default)s)")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("metrics", help="Err/Cr metrics for a code file")
    _add_common(sp, "source", "geometry")
    sp.add_argument("--dict", required=True)
    sp.add_argument("--codes", required=True)
    sp.add_argument("--out-json")
    sp.add_argument("--out-csv")
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("featurize", help="pyramid (or BOW) features from codes")
    _add_common(sp, "pyramid", methods=("tpm", "bow"))
    sp.add_argument("--codes", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--no-normalize", action="store_true")
    sp.set_defaults(func=cmd_featurize)

    sp = sub.add_parser("train-svm", help="train the OVO RBF SVM")
    _add_common(sp, "svm")
    sp.add_argument("--features", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--cv", action="store_true", help="report CV accuracy")
    sp.set_defaults(func=cmd_train_svm, swarm=20, iters=30, folds=5)

    sp = sub.add_parser("evaluate", help="accuracy report + confusion matrix")
    sp.add_argument("--config", help="key = value file of option defaults")
    sp.add_argument("--model", required=True)
    sp.add_argument("--features", required=True)
    sp.add_argument("--out-json")
    sp.add_argument("--out-confusion")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("pipeline", help="full chain: pretreat -> dict -> "
                        "compress -> featurize -> classify")
    _add_common(sp, "source", "geometry", "dict", "pyramid", "svm")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--train-total", type=_COUNT)
    sp.add_argument("--train-per-class", type=_COUNT)
    sp.add_argument("--train-frac", type=_ranged(float, "in (0, 1)", lambda x: 0 < x < 1))
    sp.set_defaults(func=cmd_pipeline, epochs=3, max_cols=1500, swarm=10, iters=10,
                    folds=3)

    return ap


def run_command(argv):
    """Dispatch one CLI invocation; returns the process exit status.

    A --config file's values become the defaults of the command's options
    that take a value, and the arguments are parsed again: argparse converts
    each value with the option's type, and an explicit flag still wins.
    argparse checks `choices` only on flags; config values are checked here.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            cfg = load_config(args.config)
            sub = next(a for a in parser._actions if a.dest == "command")
            sp = sub.choices[args.command]
            sp.set_defaults(**{a.dest: cfg[a.option_strings[0][2:]] for a in sp._actions
                               if a.nargs != 0 and a.option_strings[0][2:] in cfg})
            args = parser.parse_args(argv)
            for a in sp._actions:
                if a.choices is not None and getattr(args, a.dest) not in a.choices:
                    raise BadConfigError(f"{args.config}: {a.dest} must be one of "
                                         f"{a.choices}, got {getattr(args, a.dest)!r}")
        args.func(args)
        return 0
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
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
