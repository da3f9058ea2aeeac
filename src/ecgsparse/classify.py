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
from .fileio import atomic_write_chunks

KKT_TOL = 1e-3
# bytes of padded kernel matrices one lockstep SMO chunk holds; bounds the
# working memory of a cross-validation batch
SMO_CHUNK_BYTES = 4 << 20
# update cap of one binary SMO problem, in training and cross-validation
SMO_MAX_UPDATES = 1_000_000


def kernel_matrix(A, B, gamma):
    """Pairwise RBF kernel between the rows of A and rows of B."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ShapeMismatchError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (np.sum(A * A, axis=1)[:, None] - 2.0 * (A @ B.T)
              + np.sum(B * B, axis=1)[None, :])
        K = np.exp(-gamma * np.maximum(sq, 0.0))
    if not np.isfinite(K).all():
        # squared norms overflowed (inf - inf): SMO would spin on NaN to its
        # update cap and prediction would vote on NaN
        raise DegenerateInputError("RBF kernel is not finite: feature values too large")
    return K


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


def _smo_lockstep(problems, counts):
    """SMO on many checked problems (Z, y, C, gamma) at once.

    Working pairs are chosen by maximal KKT violation (largest b_low - b_up
    gap); a problem converges when the gap drops to KKT_TOL, and one that
    hits the update cap SMO_MAX_UPDATES ends with converged=False.
    Consecutive problems run together in chunks whose padded kernel stack
    stays within SMO_CHUNK_BYTES.  Yields one BinarySvmModel per problem,
    in order, each chunk's as the chunk finishes, and adds the pair updates
    made into counts["smo_updates"].
    """
    start = 0
    while start < len(problems):
        stop, n = start + 1, len(problems[start][1])
        while stop < len(problems):
            wider = max(n, len(problems[stop][1]))
            if (stop + 1 - start) * wider * wider * 8 > SMO_CHUNK_BYTES:
                break
            stop, n = stop + 1, wider
        models, updates = _smo_chunk(problems[start:stop])
        counts["smo_updates"] += updates
        start = stop
        yield from models
        del models  # let the caller's dropped models go before the next chunk


def _smo_chunk(problems):
    """Lockstep SMO: every live problem takes one pair update per step.

    S stacks, per problem, F_t = f_raw(z_t) - y_t restricted to the up and
    low sets (+inf and -inf outside them), so one argmin and one argmax
    pick every problem's maximal violating pair; an empty set reads as
    b_up = +inf or b_low = -inf, which passes the convergence test.  Padding
    lies outside both sets and its kernel entries are zero.  The pair step
    runs on Python floats with every expression of the one-problem loop in
    its order, and F takes the same two kernel-row products, so each
    problem's iterates are bit-identical to solving it alone.  A problem
    leaves on convergence, on a stuck pair and on its update cap, and its
    bias is b = -(b_up + b_low)/2 (Keerthi et al., Neural Computation 2001)
    of the step it leaves at, an empty set's bound read as 0.
    """
    P, cap = len(problems), SMO_MAX_UPDATES
    width = max(len(y) for _, y, _, _ in problems)
    K = np.zeros((P, width, width))
    S = np.empty((P, 2, width))
    S[:, 0], S[:, 1] = np.inf, -np.inf
    alphas, consts = [], []
    for p, (Z, y, C, gamma) in enumerate(problems):
        n = len(y)
        K[p, :n, :n] = kernel_matrix(Z, Z, gamma)
        c = float(C)
        top = c - 1e-12
        # at alpha = 0 the up set is y > 0 and the low set y < 0, both
        # empty when C <= 1e-12
        S[p, 0, :n] = np.where((y > 0) & (0.0 < top), -y, np.inf)
        S[p, 1, :n] = np.where((y < 0) & (0.0 < top), -y, -np.inf)
        alphas.append([0.0] * n)
        consts.append((y.tolist(), K[p].diagonal()[:n].tolist(), c, top, p * width))

    updates, exits = [0] * P, [None] * P  # exits: b_up, b_low, converged
    K_rows = K.reshape(P * width, width)
    live = list(range(P))  # problem of each row pair of S
    while live:
        S_flat = S.reshape(-1)
        pick_i = S[:, 0].argmin(axis=1).tolist()
        pick_j = S[:, 1].argmax(axis=1).tolist()
        stay, rows, coefs, at, values = [], [], [], [], []
        for q, (p, i, j) in enumerate(zip(live, pick_i, pick_j)):
            a = alphas[p]
            ys, kd, c, top, row = consts[p]
            b_up = S_flat.item(2 * width * q + i)
            b_low = S_flat.item(2 * width * q + width + j)
            if updates[p] == cap or b_low - b_up <= KKT_TOL:
                exits[p] = b_up, b_low, updates[p] != cap
                continue
            # max() and min() spelled out as the comparisons they make
            # (max(a, b) is b if b > a else a), which saves the calls
            ai_old, aj_old, yi, yj = a[i], a[j], ys[i], ys[j]
            if yi != yj:
                L = aj_old - ai_old
                H = c + aj_old - ai_old
            else:
                L = ai_old + aj_old - c
                H = ai_old + aj_old
            L = L if L > 0.0 else 0.0
            H = H if H < c else c
            eta = kd[i] + kd[j] - 2.0 * K.item(p, i, j)
            eta = 1e-12 if 1e-12 > eta else eta
            aj = aj_old + yj * (b_up - b_low) / eta
            aj = L if L > aj else aj
            aj = H if H < aj else aj
            dj = aj - aj_old
            if abs(dj) < 1e-14:
                # numerically stuck pair; no progress possible from here
                exits[p] = b_up, b_low, False
                continue
            ai = ai_old + yi * yj * (-dj)
            di = ai - ai_old
            a[i], a[j] = ai, aj
            updates[p] += 1
            rows += (row + i, row + j)
            coefs += (yi * di, yj * dj)
            # the up and low rows at i and j before F moves: F there is b_up
            # and b_low, or +-inf where the index has left the set
            up_i, low_i = (ai < top, ai > 1e-12) if yi > 0 else (ai > 1e-12, ai < top)
            up_j, low_j = (aj < top, aj > 1e-12) if yj > 0 else (aj > 1e-12, aj < top)
            base = 2 * width * len(stay)
            at += (base + i, base + j, base + width + i, base + width + j)
            values += (b_up if up_i else np.inf, b_low if up_j else np.inf,
                       b_up if low_i else -np.inf, b_low if low_j else -np.inf)
            stay.append(q)
        if len(stay) < len(live):
            S, live = S[stay], [live[q] for q in stay]
        S.reshape(-1)[at] = values
        step = K_rows[rows]
        step *= np.array(coefs)[:, None]
        S += (step[0::2] + step[1::2])[:, None, :]

    models = []
    for (Z, y, C, gamma), a, (b_up, b_low, done) in zip(problems, alphas, exits):
        alpha = np.array(a)
        keep = alpha > 1e-12
        b = -((b_up if b_up < np.inf else 0.0) + (b_low if b_low > -np.inf else 0.0)) / 2.0
        models.append(BinarySvmModel(support_vectors=Z[keep], dual_coef=(alpha * y)[keep],
                                     b=b, gamma=gamma, C=C, converged=done))
    return models, sum(updates)


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


def _ovo_pairs(Z, labels):
    """Sorted classes, and per one-vs-one pair (ia, ib) its rows of Z and
    its labels (+1 for class ia, -1 for class ib)."""
    lab = np.asarray(labels)
    classes = sorted(set(lab.tolist()))  # Python values, not NumPy scalars
    if len(classes) < 2:
        raise SingleClassError(f"need >= 2 classes, got {classes}")
    pairs = []
    for ia in range(len(classes)):
        for ib in range(ia + 1, len(classes)):
            mask = (lab == classes[ia]) | (lab == classes[ib])
            y = np.where(lab[mask] == classes[ia], 1.0, -1.0)
            pairs.append(((ia, ib), Z[mask], y))
    return classes, pairs


def _ovo_batch(splits, points, counts):
    """One-vs-one models at each (C, gamma) of points on each split (Z,
    labels) of checked features, every pair of every split trained in one
    lockstep SMO batch; each pair's model is bit-identical to solving it
    alone.  Every point is checked before any problem is built.  Yields per
    point the models of the splits, in order, as soon as they are trained,
    and adds the SMO pair updates made into counts["smo_updates"].
    """
    pairs_of = [_ovo_pairs(Z, labels) for Z, labels in splits]
    for C, gamma in points:
        if not (np.isfinite(C) and C > 0):
            # load_model refuses a non-finite C, so no model may be trained with one
            raise BadConfigError(f"C must be finite and positive, got {C}")
        if not (np.isfinite(gamma) and gamma >= 0):
            raise BadConfigError(f"gamma must be finite and >= 0, got {gamma}")
    solved = _smo_lockstep([(Zp, y, C, gamma) for C, gamma in points
                            for _, pairs in pairs_of for _, Zp, y in pairs], counts)
    for _ in points:
        yield [OvoModel(classes=classes, models={key: next(solved) for key, _, _ in pairs})
               for classes, pairs in pairs_of]


def _check_features(Z, labels):
    """Z as a float array, refused unless it holds one finite row per label."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or len(labels) != Z.shape[0]:
        raise ShapeMismatchError(f"features {Z.shape} vs {len(labels)} labels")
    if not np.isfinite(Z).all():
        raise DegenerateInputError("features hold NaN or inf")
    return Z


def ovo_train(Z, labels, C, gamma):
    """One-vs-one models at (C, gamma), every pair trained in one lockstep
    SMO batch."""
    [[model]] = _ovo_batch([(_check_features(Z, labels), labels)], [(C, gamma)],
                           {"smo_updates": 0})
    return model


def ovo_predict_batch(model, Z):
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    nc = len(model.classes)
    votes = np.zeros((Z.shape[0], nc))
    magnitude = np.zeros((Z.shape[0], nc))
    for (ia, ib), m in model.models.items():
        f = svm_decision(m, Z)
        wins_a = f >= 0.0
        votes[wins_a, ia] += 1
        votes[~wins_a, ib] += 1
        magnitude[wins_a, ia] += np.abs(f[wins_a])
        magnitude[~wins_a, ib] += np.abs(f[~wins_a])
    # most votes wins; a tie goes to the larger summed |f|, then the lower index
    tied = votes == votes.max(axis=1, keepdims=True)
    mags = np.where(tied, magnitude, -np.inf)
    best = tied & (mags == mags.max(axis=1, keepdims=True))
    return [model.classes[c] for c in best.argmax(axis=1).tolist()]


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


def cross_validate(Z, labels, points, folds=5, seed=0):
    """Mean held-out accuracy at each (C, gamma) of points over the same
    stratified seeded folds.

    Every (point, fold, pair) SVM is trained in one lockstep SMO batch, and
    each point is scored as soon as its models are trained, so only the
    models of one SMO chunk are held at a time.  Returns the accuracies, in
    the order of points, and the number of SMO pair updates made.
    """
    labels = np.array(list(labels))
    fold_of = stratified_folds(labels, folds, seed)
    Z = _check_features(Z, labels)
    tests = [fold_of == f for f in range(folds)]
    counts = {"smo_updates": 0}
    scores = []
    for point_models in _ovo_batch([(Z[~test], labels[~test]) for test in tests], points,
                                   counts):
        accs = [float(np.mean(ovo_predict_batch(model, Z[test]) == labels[test]))
                for model, test in zip(point_models, tests)]
        scores.append(float(np.mean(accs)))
    return scores, counts["smo_updates"]


# ---------------------------------------------------------------------------
# particle swarm search


PSO_BOUNDS = ((-5, 15), (-15, 3))
# Clerc-Kennedy constriction coefficients: inertia, and the acceleration
# towards both the personal and the global best
PSO_INERTIA = 0.72
PSO_ACCELERATION = 1.49


def pso_optimize(fitness, bounds, swarm_size=20, iterations=30, seed=0):
    """Global-best PSO maximizing `fitness` over box `bounds`.

    `fitness(X)` scores a whole swarm: one value per row of X.  Returns
    (best_x, best_fit, history) with history the incumbent fitness after
    each iteration (non-decreasing by construction).
    """
    bounds = np.asarray(bounds, dtype=float)
    dim = bounds.shape[0]
    lo, hi = bounds[:, 0], bounds[:, 1]
    rng = np.random.default_rng(seed)
    X = lo + rng.random((swarm_size, dim)) * (hi - lo)
    V = np.zeros_like(X)
    pbest = X.copy()
    pfit = np.array(fitness(X), dtype=float)
    g = int(np.argmax(pfit))
    gbest, gfit = pbest[g].copy(), float(pfit[g])
    history = []
    for _ in range(iterations):
        r1 = rng.random((X.shape[0], dim))
        r2 = rng.random((X.shape[0], dim))
        V = (PSO_INERTIA * V + PSO_ACCELERATION * r1 * (pbest - X)
             + PSO_ACCELERATION * r2 * (gbest - X))
        X = np.clip(X + V, lo, hi)
        fits = fitness(X)
        for p in range(X.shape[0]):
            fit = fits[p]
            if fit > pfit[p]:
                pfit[p] = fit
                pbest[p] = X[p].copy()
                if fit > gfit:
                    gfit = float(fit)
                    gbest = X[p].copy()
        history.append(gfit)
    return gbest, gfit, history


def pso_search(Z, labels, swarm_size=20, iterations=30, folds=5, seed=0):
    """PSO over PSO_BOUNDS in (log2 C, log2 gamma) with CV accuracy as fitness.

    Returns (C, gamma, best cv accuracy, counts), counts holding
    `pso_evaluations` (distinct points cross-validated) and `smo_updates`
    (SMO pair updates made while scoring them).
    """
    if swarm_size < 1 or iterations < 1:
        raise BadConfigError("swarm_size and iterations must be >= 1")
    scores = {}  # clipped position -> CV accuracy
    counts = {"pso_evaluations": 0, "smo_updates": 0}

    def fitness(X):
        # the swarm revisits points (the global-best particle never moves
        # until another particle beats it), and cross-validation is
        # deterministic, so each distinct point is scored once; an
        # iteration's new points are cross-validated in one batch
        keys = [tuple(x.tolist()) for x in X]
        new = {}
        for key, x in zip(keys, X):
            if key not in scores and key not in new:
                new[key] = (2.0 ** x[0], 2.0 ** x[1])
        if new:
            accs, updates = cross_validate(Z, labels, list(new.values()), folds, seed)
            scores.update(zip(new, accs))
            counts["pso_evaluations"] += len(new)
            counts["smo_updates"] += updates
        return [scores[key] for key in keys]

    best, fit, _ = pso_optimize(fitness, PSO_BOUNDS, swarm_size=swarm_size,
                                iterations=iterations, seed=seed)
    return 2.0 ** best[0], 2.0 ** best[1], fit, counts


# ---------------------------------------------------------------------------
# model persistence (JSON)


def _model_json_chunks(model):
    """The bytes of json.dumps of the model document, made pair by pair."""
    yield f'{{"classes": {json.dumps(model.classes)}, "pairs": ['.encode()
    for i, ((ia, ib), m) in enumerate(sorted(model.models.items())):
        pair = {
            "a": ia,
            "b": ib,
            "support_vectors": m.support_vectors.tolist(),
            "dual_coef": m.dual_coef.tolist(),
            "bias": m.b,
            "gamma": m.gamma,
            "C": m.C,
            "converged": m.converged,
        }
        yield (", " * (i > 0) + json.dumps(pair)).encode()
    yield b"]}"


def save_model(path, model):
    """Write model as the JSON text of {"classes": [...], "pairs": [...]},
    one pair at a time, so the whole text is never held."""
    atomic_write_chunks(path, _model_json_chunks(model))


def load_model(path):
    """Read a model written by save_model.

    Raises CorruptFileError for anything else: malformed JSON, a missing
    key, a class name listed twice, class indices outside the class list,
    arrays of the wrong shape, a parameter of the wrong JSON type,
    non-finite parameters, C <= 0 or gamma < 0.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        classes = doc["classes"]
        if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)):
            raise ValueError("classes must be a list of strings")
        if len(set(classes)) != len(classes):
            raise ValueError(f"duplicate class names in {classes}")
        models, dim = {}, None
        for p in doc["pairs"]:
            key = (p["a"], p["b"])
            if (not all(type(i) is int for i in key)
                    or not 0 <= key[0] < key[1] < len(classes) or key in models):
                raise ValueError(f"bad class pair {key}")
            # float() and bool() would read "1" as 1.0 and "no" as True
            if (not all(type(p[f]) in (int, float) for f in ("bias", "gamma", "C"))
                    or type(p["converged"]) is not bool):
                raise ValueError(f"pair {key}: bias, gamma and C must be JSON numbers "
                                 "and converged a JSON bool")
            sv = np.array(p["support_vectors"], dtype=float)
            m = BinarySvmModel(
                # save_model writes [] for a pair that retained no vector
                support_vectors=sv.reshape(0, 0) if sv.shape == (0,) else sv,
                dual_coef=np.array(p["dual_coef"], dtype=float),
                b=float(p["bias"]),
                gamma=float(p["gamma"]),
                C=float(p["C"]),
                converged=p["converged"],
            )
            sv, coef = m.support_vectors, m.dual_coef
            if (sv.ndim != 2 or coef.shape != (len(sv),)
                    or len(sv) and dim not in (None, sv.shape[1])):
                raise ValueError(f"pair {key}: support vectors {sv.shape} "
                                 f"with coefficients {coef.shape}")
            dim = sv.shape[1] if len(sv) else dim
            if not (np.isfinite(sv).all() and np.isfinite(coef).all()
                    and np.isfinite([m.b, m.gamma, m.C]).all()):
                raise ValueError(f"pair {key}: non-finite value")
            if not (m.C > 0 and m.gamma >= 0):
                # the rules _ovo_batch applies: no trainer writes such a pair
                raise ValueError(f"pair {key}: C = {m.C}, gamma = {m.gamma}")
            models[key] = m
        if not models:
            raise ValueError("no class pairs")
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptFileError(
            f"{path}: malformed model ({type(e).__name__}: {e})") from e
    return OvoModel(classes=list(classes), models=models)
