"""Multi-class SVM on pyramid histograms.

From-scratch RBF-kernel SVM trained by SMO with maximal-violating-pair
working set selection, wrapped in one-vs-one voting for multi-class, with
stratified k-fold cross-validation and PSO search over (log2 C, log2 gamma).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadConfigError, CorruptFileError, DegenerateInputError,
                     ShapeMismatchError, SingleClassError, TooFewPerClassError)
from .fileio import atomic_write_text

KKT_TOL = 1e-3


def kernel_matrix(A, B, gamma):
    """Pairwise RBF kernel between the rows of A and rows of B."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ShapeMismatchError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    sq = (np.sum(A * A, axis=1)[:, None] - 2.0 * (A @ B.T)
          + np.sum(B * B, axis=1)[None, :])
    return np.exp(-gamma * np.maximum(sq, 0.0))


# ---------------------------------------------------------------------------
# binary SVM via SMO


@dataclass
class BinarySvmModel:
    support_vectors: np.ndarray  # m x dim
    dual_coef: np.ndarray        # alpha_i * y_i for the retained vectors
    b: float
    gamma: float
    C: float
    converged: bool = True


def smo_train(Z, y, C, gamma, tol=KKT_TOL, max_updates=1_000_000):
    """Solve the SVM dual by sequential minimal optimization.

    Working pairs are chosen by maximal KKT violation (largest b_low - b_up
    gap); convergence is declared when the gap drops to tol, at which point
    every KKT condition holds within tol.  Hitting the update cap returns
    the best iterate with converged=False rather than raising.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    if Z.ndim != 2 or len(y) != Z.shape[0]:
        raise ShapeMismatchError(f"features {Z.shape} vs {len(y)} labels")
    if not (np.all(np.abs(y) == 1.0)):
        raise BadConfigError("labels must be +1/-1")
    if np.all(y == y[0]):
        raise SingleClassError("both classes must be present")
    if not C > 0:
        raise BadConfigError("C must be positive")
    if not (np.isfinite(gamma) and gamma >= 0):
        raise BadConfigError(f"gamma must be finite and >= 0, got {gamma}")
    if not np.isfinite(Z).all():
        raise DegenerateInputError("features hold NaN or inf")

    n = len(y)
    K = kernel_matrix(Z, Z, gamma)
    alpha = np.zeros(n)
    F = -y.copy()  # F_t = f_raw(z_t) - y_t with f_raw = sum alpha_j y_j K_jt
    converged = False

    # An update changes alpha only at i and j, so the working sets are held
    # as masks and re-tested at those two indices alone.  The pair step runs
    # on Python floats (alpha mirrored as a list) with the same operations in
    # the same order as an array version, so every iterate is bit-identical.
    c = float(C)
    top = c - 1e-12
    up = ((y > 0) & (alpha < top)) | ((y < 0) & (alpha > 1e-12))
    low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < top))
    a, ys, kd = alpha.tolist(), y.tolist(), K.diagonal().tolist()
    step, step_j = np.empty(n), np.empty(n)

    for _ in range(max_updates):
        # F is finite, so the masked argmin/argmax pick the first index of
        # the extreme F within the set; a pick outside it means the set is empty
        i = int(np.where(up, F, np.inf).argmin())
        j = int(np.where(low, F, -np.inf).argmax())
        if not (up[i] and low[j]):
            converged = True
            break
        b_up, b_low = F.item(i), F.item(j)
        if b_low - b_up <= tol:
            converged = True
            break

        ai_old, aj_old, yi, yj = a[i], a[j], ys[i], ys[j]
        if yi != yj:
            L = max(0.0, aj_old - ai_old)
            H = min(c, c + aj_old - ai_old)
        else:
            L = max(0.0, ai_old + aj_old - c)
            H = min(c, ai_old + aj_old)
        eta = max(kd[i] + kd[j] - 2.0 * K.item(i, j), 1e-12)
        aj = min(max(aj_old + yj * (b_up - b_low) / eta, L), H)
        dj = aj - aj_old
        if abs(dj) < 1e-14:
            # numerically stuck pair; no progress possible from here
            break
        ai = ai_old + yi * yj * (-dj)
        di = ai - ai_old
        a[i], a[j] = ai, aj
        for t in (i, j):
            if ys[t] > 0:
                up[t], low[t] = a[t] < top, a[t] > 1e-12
            else:
                up[t], low[t] = a[t] > 1e-12, a[t] < top
        np.multiply(K[i], yi * di, out=step)
        np.multiply(K[j], yj * dj, out=step_j)
        step += step_j
        F += step

    alpha = np.array(a)
    up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
    low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < C - 1e-12))
    b_up = float(np.min(F[up])) if np.any(up) else 0.0
    b_low = float(np.max(F[low])) if np.any(low) else 0.0
    b = -(b_up + b_low) / 2.0

    keep = alpha > 1e-12
    return BinarySvmModel(
        support_vectors=Z[keep].copy(),
        dual_coef=(alpha * y)[keep],
        b=b,
        gamma=gamma,
        C=C,
        converged=converged,
    )


def svm_decision(model, Z):
    """Decision values f(z) = sum_i alpha_i y_i K(z_i, z) + b for rows of Z."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if model.support_vectors.size == 0:
        return np.full(Z.shape[0], model.b)
    K = kernel_matrix(Z, model.support_vectors, model.gamma)
    return K @ model.dual_coef + model.b


# ---------------------------------------------------------------------------
# one-vs-one multi-class


@dataclass
class OvoModel:
    classes: list
    models: dict = field(default_factory=dict)  # (ia, ib) -> BinarySvmModel


def ovo_train(Z, labels, C, gamma, tol=KKT_TOL):
    Z = np.asarray(Z, dtype=float)
    labels = list(labels)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise SingleClassError(f"need >= 2 classes, got {classes}")
    lab = np.array(labels)
    models = {}
    for ia in range(len(classes)):
        for ib in range(ia + 1, len(classes)):
            mask = (lab == classes[ia]) | (lab == classes[ib])
            y = np.where(lab[mask] == classes[ia], 1.0, -1.0)
            models[(ia, ib)] = smo_train(Z[mask], y, C, gamma, tol=tol)
    return OvoModel(classes=classes, models=models)


def ovo_decision_table(model, Z):
    """Per-pair decision values for rows of Z: dict (ia, ib) -> vector."""
    return {pair: svm_decision(m, Z) for pair, m in model.models.items()}


def ovo_predict_batch(model, Z):
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    nc = len(model.classes)
    votes = np.zeros((Z.shape[0], nc))
    magnitude = np.zeros((Z.shape[0], nc))
    for (ia, ib), f in ovo_decision_table(model, Z).items():
        wins_a = f >= 0.0
        votes[wins_a, ia] += 1
        votes[~wins_a, ib] += 1
        magnitude[wins_a, ia] += np.abs(f[wins_a])
        magnitude[~wins_a, ib] += np.abs(f[~wins_a])
    out = []
    for r in range(Z.shape[0]):
        best = np.max(votes[r])
        tied = np.flatnonzero(votes[r] == best)
        if len(tied) > 1:
            mags = magnitude[r, tied]
            tied = tied[mags == mags.max()]
        out.append(model.classes[int(tied[0])])
    return out


# ---------------------------------------------------------------------------
# stratified k-fold cross-validation


def stratified_folds(labels, folds, seed):
    """fold id per sample; each class is dealt round-robin after a shuffle."""
    labels = np.array(list(labels))
    if folds < 2:
        raise BadConfigError("folds must be >= 2")
    rng = np.random.default_rng(seed)
    fold_of = np.full(len(labels), -1)
    for cls in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < folds:
            raise TooFewPerClassError(
                f"class {cls!r} has {len(idx)} members, needs >= {folds}")
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % folds
    return fold_of


def cross_validate(Z, labels, C, gamma, folds=5, seed=0):
    """Mean held-out accuracy over stratified seeded folds."""
    Z = np.asarray(Z, dtype=float)
    labels = np.array(list(labels))
    fold_of = stratified_folds(labels, folds, seed)
    accs = []
    for f in range(folds):
        test = fold_of == f
        model = ovo_train(Z[~test], labels[~test], C, gamma)
        pred = ovo_predict_batch(model, Z[test])
        accs.append(float(np.mean(pred == labels[test])))
    return float(np.mean(accs))


# ---------------------------------------------------------------------------
# particle swarm search


@dataclass
class PsoConfig:
    swarm_size: int = 20
    iterations: int = 30
    w: float = 0.72
    c1: float = 1.49
    c2: float = 1.49
    log2c_bounds: tuple = (-5.0, 15.0)
    log2g_bounds: tuple = (-15.0, 3.0)
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        for lo, hi in (self.log2c_bounds, self.log2g_bounds):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise BadConfigError(f"bad bounds ({lo}, {hi})")
        if self.folds < 2:
            raise BadConfigError("folds must be >= 2")
        if self.swarm_size < 1 or self.iterations < 1:
            raise BadConfigError("swarm_size and iterations must be >= 1")


def pso_optimize(fitness, bounds, swarm_size=20, iterations=30, w=0.72,
                 c1=1.49, c2=1.49, seed=0, init_positions=None):
    """Global-best PSO maximizing `fitness` over box `bounds`.

    Returns (best_x, best_fit, history) with history the incumbent fitness
    after each iteration (non-decreasing by construction).
    """
    bounds = np.asarray(bounds, dtype=float)
    dim = bounds.shape[0]
    lo, hi = bounds[:, 0], bounds[:, 1]
    rng = np.random.default_rng(seed)
    if init_positions is not None:
        X = np.array(init_positions, dtype=float)
    else:
        X = lo + rng.random((swarm_size, dim)) * (hi - lo)
    V = np.zeros_like(X)
    pbest = X.copy()
    pfit = np.array([fitness(x) for x in X], dtype=float)
    g = int(np.argmax(pfit))
    gbest, gfit = pbest[g].copy(), float(pfit[g])
    history = []
    for _ in range(iterations):
        r1 = rng.random((X.shape[0], dim))
        r2 = rng.random((X.shape[0], dim))
        V = w * V + c1 * r1 * (pbest - X) + c2 * r2 * (gbest - X)
        X = np.clip(X + V, lo, hi)
        for p in range(X.shape[0]):
            fit = fitness(X[p])
            if fit > pfit[p]:
                pfit[p] = fit
                pbest[p] = X[p].copy()
                if fit > gfit:
                    gfit = float(fit)
                    gbest = X[p].copy()
        history.append(gfit)
    return gbest, gfit, history


def pso_search(Z, labels, cfg):
    """PSO over (log2 C, log2 gamma) with CV accuracy as fitness.

    Returns (C, gamma, best cv accuracy).
    """
    Z = np.asarray(Z, dtype=float)
    scores = {}  # clipped position -> CV accuracy

    def fitness(x):
        # the swarm revisits points (the global-best particle never moves
        # until another particle beats it), and cross-validation is
        # deterministic, so each distinct point is scored once
        key = tuple(x.tolist())
        if key not in scores:
            scores[key] = cross_validate(Z, labels, 2.0 ** x[0], 2.0 ** x[1],
                                         folds=cfg.folds, seed=cfg.seed)
        return scores[key]

    best, fit, _ = pso_optimize(
        fitness, [cfg.log2c_bounds, cfg.log2g_bounds],
        swarm_size=cfg.swarm_size, iterations=cfg.iterations,
        w=cfg.w, c1=cfg.c1, c2=cfg.c2, seed=cfg.seed)
    return 2.0 ** best[0], 2.0 ** best[1], fit


# ---------------------------------------------------------------------------
# model persistence (JSON)


def save_model(path, model):
    doc = {
        "classes": model.classes,
        "pairs": [
            {
                "a": ia,
                "b": ib,
                "support_vectors": m.support_vectors.tolist(),
                "dual_coef": m.dual_coef.tolist(),
                "bias": m.b,
                "gamma": m.gamma,
                "C": m.C,
                "converged": m.converged,
            }
            for (ia, ib), m in sorted(model.models.items())
        ],
    }
    atomic_write_text(path, json.dumps(doc))


def load_model(path):
    """Read a model written by save_model.

    Raises CorruptFileError for anything else: malformed JSON, a missing
    key, class indices outside the class list, arrays of the wrong shape or
    non-finite parameters.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        classes = doc["classes"]
        if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)):
            raise ValueError("classes must be a list of strings")
        models, dim = {}, None
        for p in doc["pairs"]:
            key = (p["a"], p["b"])
            if (not all(type(i) is int for i in key)
                    or not 0 <= key[0] < key[1] < len(classes) or key in models):
                raise ValueError(f"bad class pair {key}")
            m = BinarySvmModel(
                support_vectors=np.array(p["support_vectors"], dtype=float),
                dual_coef=np.array(p["dual_coef"], dtype=float),
                b=float(p["bias"]),
                gamma=float(p["gamma"]),
                C=float(p["C"]),
                converged=bool(p["converged"]),
            )
            sv, coef = m.support_vectors, m.dual_coef
            if sv.ndim != 2 or coef.shape != (len(sv),) or dim not in (None, sv.shape[1]):
                raise ValueError(f"pair {key}: support vectors {sv.shape} "
                                 f"with coefficients {coef.shape}")
            dim = sv.shape[1]
            if not (np.isfinite(sv).all() and np.isfinite(coef).all()
                    and np.isfinite([m.b, m.gamma, m.C]).all()):
                raise ValueError(f"pair {key}: non-finite value")
            models[key] = m
        if not models:
            raise ValueError("no class pairs")
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptFileError(
            f"{path}: malformed model ({type(e).__name__}: {e})") from e
    return OvoModel(classes=list(classes), models=models)
