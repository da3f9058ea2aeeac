"""Correctness checks on the artifacts a workload leaves behind.

Each check returns (ok, detail).  The file formats are parsed here by the
benchmark's own code, and the figures are recomputed with plain NumPy from
the parsed numbers, so a check does not trust the program's own parsers
or reports.  Two program functions are used where a property of the method
is tested instead: `wavelet.extract_windows` turns beats into the window
columns the codes approximate, and `codec.reconstruct_beat` is used for Err
only after `check_uncoded_reconstruction` has shown it returns uncoded
windows to the beat.
"""

import json
import struct
from pathlib import Path

import numpy as np

GEOMETRY = ("bior2.6", 50, 25, 2)   # the CLI's default fb, w, s, wl
OPT_TOL = 1e-7                      # the solver's documented optimality tolerance
F32_REL = 2.0 ** -23                # twice float32's unit roundoff
KKT_TOL = 1e-3
# features CSVs hold 12 significant digits; `pipeline` trains on the unrounded
# rows, so its support vectors match their CSV rows only to this
ROW_MATCH_TOL = 1e-10
LABEL_OF_CODE = {0: "N", 1: "/", 2: "A", 3: "V", 4: "R", 5: "L", 6: "Other"}


class FormatError(ValueError):
    """An artifact does not follow its documented layout."""


# ---------------------------------------------------------------------------
# independent parsers


def read_sbd1(blob):
    """SBD1: magic, u32 d, u32 k, d*k float64 column-major -> d x k array."""
    if blob[:4] != b"SBD1" or len(blob) < 12:
        raise FormatError("SBD1 magic or header")
    d, k = struct.unpack_from("<II", blob, 4)
    if len(blob) != 12 + 8 * d * k:
        raise FormatError(f"SBD1 size {len(blob)} != {12 + 8 * d * k}")
    return np.frombuffer(blob, dtype="<f8", offset=12).reshape((d, k), order="F")


TRIPLET = np.dtype([("row", "<u4"), ("col", "<u4"), ("val", "<f4")])


def read_sbc1(blob):
    """SBC1 -> (k, [(omega, label, triplets)]); raises FormatError."""
    if blob[:4] != b"SBC1" or len(blob) < 12:
        raise FormatError("SBC1 magic or header")
    k, count = struct.unpack_from("<II", blob, 4)
    pos, records = 12, []
    for i in range(count):
        if pos + 9 > len(blob):
            raise FormatError(f"SBC1 record {i} header past end of file")
        omega, label, nnz = struct.unpack_from("<IBI", blob, pos)
        pos += 9
        if pos + 12 * nnz > len(blob):
            raise FormatError(f"SBC1 record {i}: {nnz} triplets past end of file")
        trip = np.frombuffer(blob, dtype=TRIPLET, count=nnz, offset=pos)
        pos += 12 * nnz
        if label not in LABEL_OF_CODE:
            raise FormatError(f"SBC1 record {i}: label code {label}")
        if nnz and (trip["row"].max() >= k or trip["col"].max() >= omega):
            raise FormatError(f"SBC1 record {i}: triplet index out of range")
        key = trip["col"].astype(np.int64) * k + trip["row"]
        if np.any(np.diff(key) <= 0) or np.any(trip["val"] == 0):
            raise FormatError(f"SBC1 record {i}: triplets not canonical")
        records.append((omega, LABEL_OF_CODE[label], trip))
    if pos != len(blob):
        raise FormatError(f"SBC1 has {len(blob) - pos} bytes after the last record")
    return k, records


def dense_code(k, omega, trip):
    X = np.zeros((k, omega))
    X[trip["row"], trip["col"]] = trip["val"].astype(np.float64)
    return X


def read_rows(text, width=None):
    """'label,v1,...' lines -> (labels, float matrix); raises FormatError."""
    labels, rows = [], []
    for n, line in enumerate(text.splitlines(), start=1):
        parts = line.split(",")
        if width is not None and len(parts) != width + 1:
            raise FormatError(f"line {n}: {len(parts) - 1} values, expected {width}")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as e:
            raise FormatError(f"line {n}: {e}") from e
        labels.append(parts[0])
    if not rows or len({len(r) for r in rows}) != 1:
        raise FormatError("empty or ragged rows")
    return labels, np.array(rows)


def zscore(values):
    """The population z-score the CLI applies to every beat it reads."""
    mu = values.mean(axis=1, keepdims=True)
    sd = values.std(axis=1, keepdims=True)
    return np.where(sd == 0.0, 0.0, (values - mu) / np.where(sd == 0.0, 1.0, sd))


def read_beats(path):
    labels, values = read_rows(Path(path).read_text(), width=300)
    return labels, zscore(values)


def read_confusion(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("true\\pred,"):
        raise FormatError("confusion header")
    return np.array([[int(v) for v in line.split(",")[1:]] for line in lines[1:]])


# ---------------------------------------------------------------------------
# checks


def window_columns(values):
    from ecgsparse import wavelet
    fb_name, w, s, wl = GEOMETRY
    fb = wavelet.filter_bank(fb_name)
    return [wavelet.extract_windows(v, fb, w, s, wl).columns for v in values]


def _reconstruct(columns):
    from ecgsparse import codec, wavelet
    fb_name, w, s, wl = GEOMETRY
    return codec.reconstruct_beat(columns, (w, s, wavelet.filter_bank(fb_name), wl))


def check_sbc1_size(blob):
    """File size equals 12 + sum(9 + 12 nnz), walking only the record headers."""
    if blob[:4] != b"SBC1" or len(blob) < 12:
        return False, "bad SBC1 magic or header"
    _, count = struct.unpack_from("<II", blob, 4)
    expected, pos = 12, 12
    for _ in range(count):
        if pos + 9 > len(blob):
            return False, f"record headers run past the {len(blob)}-byte file"
        nnz = struct.unpack_from("<I", blob, pos + 5)[0]
        expected += 9 + 12 * nnz
        pos += 9 + 12 * nnz
    return expected == len(blob), f"size {len(blob)} B, 12 + sum(9 + 12 nnz) = {expected} B"


def check_lasso_optimality(D, values, blob, lam, sample, seed):
    """Subgradient conditions on a seeded sample of (beat, window) columns.

    For code x of column y: |g_j + lam sign(x_j)| <= tol_j where x_j != 0 and
    |g_j| <= lam + tol_j elsewhere, with g = D'(Dx - y).  tol_j adds to the
    solver's 1e-7 the largest change float32 storage of x can make to g_j.
    """
    try:
        k, records = read_sbc1(blob)
    except FormatError as e:
        return False, str(e)
    if k != D.shape[1] or len(records) != len(values):
        return False, f"{len(records)} codes of k={k} for {len(values)} beats, k={D.shape[1]}"
    omega = records[0][0]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(values) * omega, size=min(sample, len(values) * omega),
                       replace=False)
    G = np.abs(D.T @ D)
    worst = -np.inf
    windows = {}
    for p in sorted(picks):
        beat, col = divmod(int(p), omega)
        if beat not in windows:
            windows[beat] = window_columns([values[beat]])[0]
        y = windows[beat][:, col]
        om, _, trip = records[beat]
        x = dense_code(k, om, trip)[:, col]
        g = D.T @ (D @ x - y)
        tol = OPT_TOL + F32_REL * (G @ np.abs(x))
        on = x != 0
        slack = np.where(on, np.abs(g + lam * np.sign(x)), np.abs(g) - lam) - tol
        worst = max(worst, float(slack.max()))
    return worst <= 0.0, f"{len(picks)} columns, worst slack {worst:.3g} (must be <= 0)"


def check_uncoded_reconstruction(values, windows=None, tol=1e-8):
    """Overlap-adding the uncoded window columns returns every beat."""
    if windows is None:
        windows = window_columns(values)
    worst = max(float(np.max(np.abs(_reconstruct(Y) - v)))
                for Y, v in zip(windows, values))
    return worst <= tol, f"{len(values)} beats, max error {worst:.3g} (tol {tol:g})"


def eq9_errs(D, values, blob):
    """Per-beat terms of Eq. 9, ||M - N|| / ||N||, recomputed from the files."""
    k, records = read_sbc1(blob)
    if k != D.shape[1] or len(records) != len(values):
        raise FormatError(f"{len(records)} codes of k={k} for {len(values)} beats")
    return [float(np.linalg.norm(_reconstruct(D @ dense_code(k, om, trip)) - v)
                  / np.linalg.norm(v))
            for (om, _, trip), v in zip(records, values)]


def check_err(D, values, blob, reported, tol=1e-12):
    try:
        err = float(np.mean(eq9_errs(D, values, blob)))
    except FormatError as e:
        return False, str(e)
    return abs(err - reported) <= tol, f"Err {err:.15g} vs reported {reported:.15g}"


def check_unit_ball(D, tol=1e-9):
    worst = float(np.linalg.norm(D, axis=0).max())
    return worst <= 1.0 + tol, f"{D.shape[1]} atoms, max norm {worst:.15g}"


def check_accuracy(report, confusion):
    acc = np.trace(confusion) / confusion.sum()
    return abs(acc - report["accuracy"]) <= 1e-12, \
        f"report {report['accuracy']:.6g}, confusion diagonal/total {acc:.6g}"


def check_kkt(model, labels, Z, tol=KKT_TOL):
    """Every pair model satisfies the SVM dual's KKT conditions on its rows.

    alpha is read back by matching each support vector to the nearest unused
    training row (within ROW_MATCH_TOL); margins
    y f(z) come from an RBF kernel computed here.  Conditions, at tol:
    alpha = 0 -> m >= 1 - tol, alpha = C -> m <= 1 + tol, else |m - 1| <= tol,
    each support vector's coefficient sign equals its label, and
    |sum alpha y| <= 1e-9 max(C, 1) * rows.
    """
    labels = np.array(labels)
    classes = model["classes"]
    worst, worst_bal, problems = -np.inf, 0.0, []
    for pair in model["pairs"]:
        a, b = classes[pair["a"]], classes[pair["b"]]
        rows = np.flatnonzero((labels == a) | (labels == b))
        Zp, y = Z[rows], np.where(labels[rows] == a, 1.0, -1.0)
        sv = np.array(pair["support_vectors"], dtype=float).reshape(-1, Z.shape[1])
        coef = np.array(pair["dual_coef"], dtype=float)
        C, gamma = float(pair["C"]), float(pair["gamma"])
        alpha = np.zeros(len(rows))
        for v, c in zip(sv, coef):
            dist = np.abs(Zp - v).max(axis=1) + np.where(alpha == 0, 0.0, np.inf)
            row = int(np.argmin(dist))
            if dist[row] > ROW_MATCH_TOL:
                problems.append(f"{a}/{b}: support vector not among the training rows")
                continue
            if np.sign(c) != y[row]:
                problems.append(f"{a}/{b}: coefficient sign disagrees with the label")
            alpha[row] = abs(c)
        sq = ((Zp * Zp).sum(1)[:, None] - 2.0 * Zp @ sv.T + (sv * sv).sum(1)[None, :])
        m = y * (np.exp(-gamma * np.maximum(sq, 0.0)) @ coef + float(pair["bias"]))
        at_zero, at_c = alpha <= 1e-9 * max(C, 1.0), alpha >= C * (1 - 1e-9)
        slack = np.where(at_zero, (1 - tol) - m,
                         np.where(at_c, m - (1 + tol), np.abs(m - 1) - tol))
        worst = max(worst, float(slack.max()))
        bal = abs(float(coef.sum()))
        worst_bal = max(worst_bal, bal)
        if bal > 1e-9 * max(C, 1.0) * len(rows):
            problems.append(f"{a}/{b}: |sum alpha y| = {bal:.3g}")
    ok = worst <= 0.0 and not problems
    return ok, (f"{len(model['pairs'])} pairs, worst KKT slack {worst:.3g} (<= 0 at "
                f"tol {tol:g}), max |sum alpha y| {worst_bal:.3g}"
                + ("; " + "; ".join(problems[:3]) if problems else ""))


def bow_rows(blob):
    """Bag-of-words histograms from SBC1 codes: per window, the atom with the
    largest |coefficient|; windows without a coefficient are skipped; rows
    are L2-normalized."""
    k, records = read_sbc1(blob)
    labels, rows = [], []
    for omega, label, trip in records:
        X = np.abs(dense_code(k, omega, trip))
        filled = X.sum(axis=0) > 0
        h = np.bincount(np.argmax(X[:, filled], axis=0), minlength=k).astype(float)
        norm = np.linalg.norm(h)
        rows.append(h / norm if norm > 0 else h)
        labels.append(label)
    return labels, np.array(rows)


def format_rows(labels, rows):
    return "".join(",".join([lab] + [repr(float(v)) for v in r]) + "\n"
                   for lab, r in zip(labels, rows))


def read_json(path):
    return json.loads(Path(path).read_text())
