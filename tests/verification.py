"""Reference code the tests check the package against.

A one-column coding problem and feature_sign, which codes it through
encode_all; an independent LASSO solver (cyclic coordinate descent), the
objective and subgradient optimality measures it is compared by; the
surrogate the atom update descends; the ground-truth sparse synthesis
model used for dictionary recovery; one binary SVM by SMO; SBC1 bytes in
memory; equality of sparse codes; and the wavelet transforms one signal
and one window at a time, which the row transforms must match bit for bit.
Nothing in the package calls these; the file name keeps pytest from
collecting it.
"""

from collections import namedtuple
from operator import mul

import numpy as np

from ecgsparse import codec
from ecgsparse.classify import _check_problem, _smo_lockstep
from ecgsparse.errors import ShapeMismatchError
from ecgsparse.ingest import BEAT_LENGTH
from ecgsparse.sparse_coding import OPT_TOL, encode_all
from ecgsparse.wavelet import window_starts

CodingProblem = namedtuple("CodingProblem", "dictionary target lam")


def feature_sign(problem, max_iter=None):
    """The dense length-k code of one target: encode_all on it as a
    one-column matrix, with encode_all's checks and iteration cap."""
    D, y, lam = problem
    return encode_all(D, np.asarray(y, dtype=float)[:, None], lam, max_iter)[:, 0]


def _as_dense(x, k):
    x = np.asarray(x, dtype=float)
    if x.shape != (k,):
        raise ShapeMismatchError(f"code shape {x.shape} != ({k},)")
    return x


def lasso_objective(problem, x):
    """0.5*||y - Dx||^2 + lambda*||x||_1, exactly as defined."""
    D, y = problem.dictionary, problem.target
    xd = _as_dense(x, D.shape[1])
    r = y - D @ xd
    return 0.5 * float(r @ r) + problem.lam * float(np.abs(xd).sum())


def oracle_solve(problem, max_sweeps=10000, tol=1e-12):
    """Coordinate-descent LASSO, used only to cross-check feature_sign.

    Exact per-coordinate soft-threshold updates, swept cyclically until the
    largest coordinate change in a sweep is below tol.  Returns the final
    iterate, a dense length-k vector, even if the sweep cap is reached.
    """
    D, y, lam = problem.dictionary, problem.target, problem.lam
    k = D.shape[1]
    # Python floats: NumPy scalar steps made this sweep about 3x slower
    G = (D.T @ D).tolist()
    b = (D.T @ y).tolist()
    x = [0.0] * k
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(k):
            gj = G[j]
            gjj = gj[j]
            if gjj < 1e-15:
                continue
            cj = b[j] - sum(map(mul, gj, x)) + gjj * x[j]
            new = (cj - lam if cj > lam else cj + lam if cj < -lam else 0.0) / gjj
            delta = max(delta, abs(new - x[j]))
            x[j] = new
        if delta < tol:
            break
    return np.array(x)


def check_optimality(problem, x, tol=OPT_TOL):
    """Max violation of the LASSO subgradient conditions (0 when optimal)."""
    D, y, lam = problem.dictionary, problem.target, problem.lam
    xd = _as_dense(x, D.shape[1])
    grad = D.T @ (D @ xd - y)
    act = xd != 0
    viol_a = np.abs(grad[act] + lam * np.sign(xd[act]))
    viol_b = np.abs(grad[~act]) - lam
    worst = 0.0
    if viol_a.size:
        worst = max(worst, float(viol_a.max()))
    if viol_b.size:
        worst = max(worst, float(max(viol_b.max(), 0.0)))
    return worst


def surrogate(D, A, B):
    """0.5*Tr(D'DA) - Tr(D'B): the quantity update_atoms descends."""
    return 0.5 * float(np.sum((D.T @ D) * A)) - float(np.sum(D * B))


def make_sparse_synthesis(d, k, n, sparsity, seed=0, noise=0.0):
    """Ground-truth model Y = D* X* (+ noise) for recovery experiments.

    D* has unit-norm Gaussian atoms; each column of X* has `sparsity`
    nonzeros at seeded positions with magnitudes bounded away from zero.
    Returns (D, X, Y).
    """
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((d, k))
    D /= np.linalg.norm(D, axis=0, keepdims=True)
    X = np.zeros((k, n))
    for i in range(n):
        rows = rng.choice(k, size=sparsity, replace=False)
        mags = rng.uniform(0.5, 1.5, size=sparsity) * rng.choice([-1.0, 1.0], size=sparsity)
        X[rows, i] = mags
    Y = D @ X
    if noise > 0:
        Y = Y + rng.normal(0.0, noise, Y.shape)
    return D, X, Y


def smo_train(Z, y, C, gamma):
    """One binary SVM by the package's SMO, alone in its lockstep batch.

    Working pairs are chosen by maximal KKT violation (largest b_low - b_up
    gap); convergence is declared when the gap drops to KKT_TOL, at which
    point every KKT condition holds within KKT_TOL.  Hitting the update
    cap classify.SMO_MAX_UPDATES returns the best iterate with
    converged=False rather than raising.
    """
    Z, y = _check_problem(Z, y, C, gamma)
    [model] = _smo_lockstep([(Z, y, C, gamma)], {"smo_updates": 0})
    return model


def serialize_codes(codes):
    """The SBC1 bytes save_codes writes for a list of codes."""
    return b"".join(codec._sbc1_chunks(codes, len(codes)))


def same_code(a, b):
    """Whether two SparseCodes store the same beat: k, Omega, label and
    triplets (the source id is not stored)."""
    return (a.k == b.k and a.omega == b.omega and a.label == b.label
            and np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
            and np.array_equal(a.vals, b.vals))


# --- wavelet transforms, one signal and one window at a time ------------------


def _analyze_one(x, fb):
    p = fb.length - 1
    ext = np.concatenate([x[:p][::-1], x, x[-p:][::-1]])
    a = np.convolve(ext, fb.dec_lo, mode="valid")[1::2]
    d = np.convolve(ext, fb.dec_hi, mode="valid")[1::2]
    return a, d


def _synthesize_one(a, d, n, fb):
    L = fb.length
    ua = np.zeros(2 * len(a))
    ua[0::2] = a
    ud = np.zeros(2 * len(d))
    ud[0::2] = d
    r = np.convolve(ua, fb.rec_lo) + np.convolve(ud, fb.rec_hi)
    return r[L - 2:L - 2 + n]


def dwt_one(x, fb, levels):
    """dwt of one 1-D signal, with np.convolve on that signal alone (no
    length checks): approximation, then details coarse to fine, in one
    vector."""
    x = np.asarray(x, dtype=float)
    details = []
    for _ in range(levels):
        x, d = _analyze_one(x, fb)
        details.insert(0, d)
    return np.concatenate([x] + details)


def idwt_one(coeffs, fb, n, levels):
    """idwt of one coefficient vector of a length-n signal, with np.convolve
    on that signal alone; the band sizes and stage lengths are read off
    _analyze_one run on a length-n zero signal."""
    x, sizes, lengths = np.zeros(n), [], []
    for _ in range(levels):
        lengths.insert(0, len(x))
        x, d = _analyze_one(x, fb)
        sizes.insert(0, len(d))
    bands = np.split(np.asarray(coeffs, dtype=float), np.cumsum([len(x)] + sizes)[:-1])
    x = bands[0]
    for d, m in zip(bands[1:], lengths):
        x = _synthesize_one(x, d, m, fb)
    return x


def extract_windows_one(x, fb, w, s, wl):
    """The d x Omega feature matrix of a beat, one dwt_one per window."""
    x = np.asarray(x, dtype=float)
    return np.column_stack([dwt_one(x[p:p + w], fb, wl)
                            for p in window_starts(len(x), w, s)])


def reconstruct_beat_one(Y_hat, geometry):
    """reconstruct_beat with one idwt_one per window, overlap-added window
    by window."""
    w, s, fb, wl = geometry
    acc = np.zeros(BEAT_LENGTH)
    cover = np.zeros(BEAT_LENGTH)
    for i, column in enumerate(np.asarray(Y_hat, dtype=float).T):
        win = idwt_one(column, fb, w, wl)
        acc[i * s:i * s + w] += win
        cover[i * s:i * s + w] += 1.0
    out = np.zeros(BEAT_LENGTH)
    hit = cover > 0
    out[hit] = acc[hit] / cover[hit]
    return out
