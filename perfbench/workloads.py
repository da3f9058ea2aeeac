"""The benchmark's three workloads, each a sequence of `ecgsparse` CLI calls.

A workload makes its inputs with the CLI calls of `setup_calls`, then runs
`round` as often as the run length allows; every round repeats the same
calls on the same inputs, so their artifacts must be byte-identical.  `check` looks
at the artifacts of the last round and returns the check results, the
quality figures and the two end-to-end figures that come from artifacts
(`sbc_bytes_per_beat`, `recon_snr_db`).

Sizes come in two scales: "full" for measuring and "tiny" for the self-test.
"""

import math

import numpy as np

import checks

# model-select trains on one pinned trio draw (see README: PSO over SMO costs
# 7 to 22 s on training sets drawn from different seeds); the test draw and
# everything evaluated on it follow --seed
TRIO_TRAIN_SEED = 3
TRIO_TEST_SEED_OFFSET = 1000

SIZES = {
    "full": {
        "pipeline": {"per_class": 30},
        "archive": {"per_class": 30, "max_cols": 600},
        "model-select": {"train_per_class": 30, "test_per_class": 25,
                         "max_cols": 600, "swarm": 6, "iters": 5},
    },
    "tiny": {
        "pipeline": {"per_class": 6},
        "archive": {"per_class": 3, "max_cols": 160},
        "model-select": {"train_per_class": 12, "test_per_class": 10,
                         "max_cols": 120, "swarm": 3, "iters": 2},
    },
}


def snr_db(err):
    return -20.0 * math.log10(err)


class Workload:
    """A workload names the CLI calls that make its inputs in directory d
    (`setup_calls`), the calls of one timed round (`round`), the files a
    round writes (`artifacts`), and checks them (`check`)."""

    name = ""
    setup_reps = 3

    def __init__(self, scale, seed):
        self.size = SIZES[scale][self.name]
        self.seed = seed

    def setup_calls(self, d):
        return []


class Pipeline(Workload):
    """`ecgsparse pipeline --synthetic 30 --seed <seed> --k 80`."""

    name = "pipeline"
    setup_reps = 5
    FILES = ("beats_train.csv", "beats_test.csv", "dict.sbd", "codes_train.sbc",
             "codes_test.sbc", "metrics.json", "features_train.csv",
             "features_test.csv", "model.json", "report.json", "confusion.csv",
             "waveforms.csv")

    @property
    def beats(self):
        return 6 * self.size["per_class"]

    def round(self, d):
        return [["pipeline", "--synthetic", str(self.size["per_class"]),
                 "--seed", str(self.seed), "--k", "80", "--out-dir", str(d / "run")]]

    def artifacts(self, d):
        return [d / "run" / name for name in self.FILES]

    def check(self, d, summaries, cli):
        run = d / "run"
        results = {}
        try:
            parsed = {
                "beats": [checks.read_beats(run / n) for n in ("beats_train.csv", "beats_test.csv")],
                "D": checks.read_sbd1((run / "dict.sbd").read_bytes()),
                "codes": [checks.read_sbc1((run / n).read_bytes())
                          for n in ("codes_train.sbc", "codes_test.sbc")],
                "metrics": checks.read_json(run / "metrics.json"),
                "features": [checks.read_rows((run / n).read_text())
                             for n in ("features_train.csv", "features_test.csv")],
                "model": checks.read_json(run / "model.json"),
                "report": checks.read_json(run / "report.json"),
                "confusion": checks.read_confusion((run / "confusion.csv").read_text()),
                "waveforms": checks.read_rows((run / "waveforms.csv").read_text()
                                              .split("\n", 1)[1]),
            }
            err = float(parsed["metrics"]["err_mean"])
            cr = float(parsed["metrics"]["cr_mean"])
            accuracy = float(parsed["report"]["accuracy"])
            pairs = len(parsed["model"]["pairs"])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            results["artifacts_parse"] = (False, f"{type(e).__name__}: {e}")
            return results, {}, {}
        results["artifacts_parse"] = (True, f"{len(self.FILES)} artifacts parsed, {pairs} pair models")
        D = parsed["D"]
        results["unit_ball"] = checks.check_unit_ball(D)
        results["accuracy_is_confusion_diagonal"] = checks.check_accuracy(
            parsed["report"], parsed["confusion"])
        labels, Z = parsed["features"][0]
        results["svm_kkt"] = checks.check_kkt(parsed["model"], labels, Z)
        _, test_values = parsed["beats"][1]
        blob = (run / "codes_test.sbc").read_bytes()
        # pipeline computes Err before its codes are stored as float32 and
        # its beats as 9-digit CSV text, so the files reproduce it to ~1e-7
        results["err_matches_eq9"] = checks.check_err(D, test_values, blob, err, tol=1e-6)
        sbc = sum((run / n).stat().st_size for n in ("codes_train.sbc", "codes_test.sbc"))
        coded = sum(len(records) for _, records in parsed["codes"])
        summary = summaries[-1]
        quality = {"err": err, "cr": cr, "test_accuracy": accuracy, "cv_accuracy": None,
                   "C": summary["C"], "gamma": summary["gamma"]}
        return results, quality, {"sbc_bytes_per_beat": sbc / coded,
                                  "recon_snr_db": snr_db(err)}


class Archive(Workload):
    """Holter archiving: encode fresh beats against one fixed dictionary,
    then read the codes back and measure Err."""

    name = "archive"
    OPT_SAMPLE = 200

    @property
    def beats(self):
        return 6 * self.size["per_class"]

    def setup_calls(self, d):
        return [
            ["ingest", "--synthetic", str(self.size["per_class"]), "--seed", str(self.seed),
             "--out", str(d / "beats.csv")],
            ["train-dict", "--beats", str(d / "beats.csv"), "--max-cols",
             str(self.size["max_cols"]), "--epochs", "1", "--seed", str(self.seed),
             "--out", str(d / "dict.sbd")],
        ]

    def round(self, d):
        return [
            ["encode", "--beats", str(d / "beats.csv"), "--dict", str(d / "dict.sbd"),
             "--out", str(d / "codes.sbc")],
            ["metrics", "--beats", str(d / "beats.csv"), "--dict", str(d / "dict.sbd"),
             "--codes", str(d / "codes.sbc"), "--out-json", str(d / "metrics.json")],
        ]

    def artifacts(self, d):
        return [d / "codes.sbc", d / "metrics.json"]

    def check(self, d, summaries, cli):
        D = checks.read_sbd1((d / "dict.sbd").read_bytes())
        _, values = checks.read_beats(d / "beats.csv")
        blob = (d / "codes.sbc").read_bytes()
        metrics = checks.read_json(d / "metrics.json")
        lam = summaries[-2]["lam"]
        results = {
            "lasso_optimality": checks.check_lasso_optimality(
                D, values, blob, lam, self.OPT_SAMPLE, self.seed),
            "sbc1_size": checks.check_sbc1_size(blob),
            "uncoded_reconstruction": checks.check_uncoded_reconstruction(values),
            "err_matches_eq9": checks.check_err(D, values, blob, metrics["err_mean"]),
        }
        quality = {"err": metrics["err_mean"], "cr": metrics["cr_mean"],
                   "test_accuracy": None, "cv_accuracy": None, "C": None, "gamma": None}
        return results, quality, {"sbc_bytes_per_beat": len(blob) / len(values),
                                  "recon_snr_db": snr_db(metrics["err_mean"])}


class ModelSelect(Workload):
    """PSO model selection on shifted-trio pyramid features."""

    name = "model-select"
    MIN_GAP = 0.10

    @property
    def beats(self):
        return 3 * (self.size["train_per_class"] + self.size["test_per_class"])

    def setup_calls(self, d):
        s = self.size
        test_seed = TRIO_TEST_SEED_OFFSET + self.seed
        calls = [
            ["ingest", "--synthetic", str(s["train_per_class"]), "--trio",
             "--seed", str(TRIO_TRAIN_SEED), "--out", str(d / "beats_train.csv")],
            ["ingest", "--synthetic", str(s["test_per_class"]), "--trio",
             "--seed", str(test_seed), "--out", str(d / "beats_test.csv")],
            ["train-dict", "--beats", str(d / "beats_train.csv"), "--k", "80",
             "--max-cols", str(s["max_cols"]), "--epochs", "1", "--seed", "0",
             "--out", str(d / "dict.sbd")],
        ]
        for part in ("train", "test"):
            calls.append(["encode", "--beats", str(d / f"beats_{part}.csv"),
                          "--dict", str(d / "dict.sbd"), "--out", str(d / f"codes_{part}.sbc")])
        return calls

    def round(self, d):
        s = self.size
        return [
            ["featurize", "--codes", str(d / "codes_train.sbc"), "--out", str(d / "features_train.csv")],
            ["featurize", "--codes", str(d / "codes_test.sbc"), "--out", str(d / "features_test.csv")],
            ["train-svm", "--features", str(d / "features_train.csv"), "--pso",
             "--swarm", str(s["swarm"]), "--iters", str(s["iters"]), "--folds", "3",
             "--seed", "0", "--out", str(d / "model.json")],
            ["evaluate", "--model", str(d / "model.json"), "--features", str(d / "features_test.csv"),
             "--out-json", str(d / "report.json"), "--out-confusion", str(d / "confusion.csv")],
        ]

    def artifacts(self, d):
        return [d / "features_train.csv", d / "features_test.csv", d / "model.json",
                d / "report.json", d / "confusion.csv"]

    def check(self, d, summaries, cli):
        train_svm = summaries[2]
        C, gamma = train_svm["C"], train_svm["gamma"]
        model = checks.read_json(d / "model.json")
        labels, Z = checks.read_rows((d / "features_train.csv").read_text())
        results = {"svm_kkt": checks.check_kkt(model, labels, Z)}

        # bag-of-words rows from the same codes, trained and scored by the CLI
        # at the chosen (C, gamma)
        for part in ("train", "test"):
            bl, rows = checks.bow_rows((d / f"codes_{part}.sbc").read_bytes())
            (d / f"bow_{part}.csv").write_text(checks.format_rows(bl, rows))
        cli(["train-svm", "--features", str(d / "bow_train.csv"), "--C", repr(C),
             "--gamma", repr(gamma), "--out", str(d / "bow_model.json")])
        bow = cli(["evaluate", "--model", str(d / "bow_model.json"),
                   "--features", str(d / "bow_test.csv")])
        tpm_acc = checks.read_json(d / "report.json")["accuracy"]
        gap = tpm_acc - bow["accuracy"]
        results["pyramid_beats_bow"] = (
            gap >= self.MIN_GAP,
            f"pyramid {tpm_acc:.4f} vs bag-of-words {bow['accuracy']:.4f}, "
            f"gap {100 * gap:.1f} points (need >= {100 * self.MIN_GAP:.0f})")

        # Err and Cr of the codes the workload reads, by the benchmark's own
        # Eq. 9 and Eq. 10 (archive checks Eq. 9 against `ecgsparse metrics`)
        D = checks.read_sbd1((d / "dict.sbd").read_bytes())
        errs, nnz, sbc = [], [], 0
        for part in ("train", "test"):
            _, values = checks.read_beats(d / f"beats_{part}.csv")
            blob = (d / f"codes_{part}.sbc").read_bytes()
            errs += checks.eq9_errs(D, values, blob)
            nnz += [len(trip) for _, _, trip in checks.read_sbc1(blob)[1]]
            sbc += len(blob)
        coded = len(errs)
        err = float(np.mean(errs))
        cr = float(np.mean([(300 - m) / 300 for m in nnz]))
        quality = {"err": err, "cr": cr, "test_accuracy": tpm_acc,
                   "cv_accuracy": train_svm["cv_accuracy"], "C": C, "gamma": gamma,
                   "bow_test_accuracy": bow["accuracy"]}
        return results, quality, {"sbc_bytes_per_beat": sbc / coded,
                                  "recon_snr_db": snr_db(err)}


WORKLOADS = {w.name: w for w in (Pipeline, Archive, ModelSelect)}
