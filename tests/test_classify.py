"""RBF kernel, SMO dual solver, OVO voting, cross-validation, and PSO."""

import json

import numpy as np
import pytest

from ecgsparse import classify
from ecgsparse.errors import (BadConfigError, CorruptFileError, DegenerateInputError,
                              ShapeMismatchError, SingleClassError, TooFewPerClassError)
from ecgsparse.classify import (
    BinarySvmModel,
    OvoModel,
    PSO_BOUNDS,
    cross_validate,
    kernel_matrix,
    load_model,
    ovo_predict_batch,
    ovo_train,
    pso_optimize,
    pso_search,
    save_model,
    stratified_folds,
    svm_decision,
)
from verification import smo_train


def blobs(rng, centers, n_per, spread=0.15):
    Z, labels = [], []
    for i, c in enumerate(centers):
        Z.append(rng.normal(0, spread, (n_per, len(c))) + np.asarray(c))
        labels += [f"c{i}"] * n_per
    return np.vstack(Z), labels


def dual_objective(alpha, y, K):
    """Eq. 7 minimization form: 0.5 a^T Q a - 1^T a with Q = yy^T * K."""
    Q = np.outer(y, y) * K
    return 0.5 * alpha @ Q @ alpha - alpha.sum()


def model_kkt_violation(model, Z, y, C, tol):
    f = svm_decision(model, Z)
    margins = y * f
    # recover alpha per training point (zero if not retained)
    alpha = np.zeros(len(y))
    for sv, coef in zip(model.support_vectors, model.dual_coef):
        match = np.flatnonzero((Z == sv).all(axis=1))
        alpha[match[0]] += abs(coef)
    worst = 0.0
    for a, m in zip(alpha, margins):
        if a <= 1e-9:
            worst = max(worst, 1.0 - tol - m)       # m >= 1 - tol
        elif a >= C - 1e-9:
            worst = max(worst, m - (1.0 + tol))     # m <= 1 + tol
        else:
            worst = max(worst, abs(m - 1.0) - tol)
    return worst


# --- kernel ------------------------------------------------------------------

def test_rbf_worked_examples():
    a = np.array([0.3, -1.2, 4.0])
    assert kernel_matrix(a, a, 2.5)[0, 0] == pytest.approx(1.0)
    assert kernel_matrix(np.zeros(2), np.array([1.0, 0.0]), 1.0)[0, 0] == \
        pytest.approx(np.exp(-1.0))
    assert kernel_matrix(a, a + 5.0, 0.0)[0, 0] == pytest.approx(1.0)


def test_rbf_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        kernel_matrix(np.zeros(2), np.zeros(3), 1.0)


def test_rbf_overflow_rejected():
    # |z|^2 overflows to inf and inf - inf is NaN: refused, not trained on
    Z = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DegenerateInputError):
        kernel_matrix(Z, Z, 1.0)
    with pytest.raises(DegenerateInputError):
        smo_train(Z, np.array([1.0, -1.0, 1.0]), C=1.0, gamma=1.0)


def test_kernel_matrix_symmetric_unit_diagonal_psd():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((50, 6))
    K = kernel_matrix(Z, Z, 0.7)
    np.testing.assert_allclose(K, K.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(K), np.ones(50), atol=1e-12)
    assert np.min(np.linalg.eigvalsh(K)) >= -1e-8


# --- binary SMO ----------------------------------------------------------------

def test_smo_two_point_symmetry():
    Z = np.array([[0.0, 0.0], [1.0, 0.0]])
    y = np.array([1.0, -1.0])
    model = smo_train(Z, y, C=100.0, gamma=1.0)
    assert model.converged
    assert len(model.dual_coef) == 2
    a1, a2 = np.abs(model.dual_coef)
    assert a1 == pytest.approx(a2, rel=1e-9)
    assert a1 > 0
    for z, label in zip(Z, y):
        f = svm_decision(model, z)[0]
        assert (1 if f >= 0.0 else -1) == label


def test_smo_separable_blobs_train_accuracy():
    rng = np.random.default_rng(1)
    Z, labels = blobs(rng, [(0, 0), (3, 3)], 40)
    y = np.where(np.array(labels) == "c0", 1.0, -1.0)
    model = smo_train(Z, y, C=10.0, gamma=1.0)
    assert model.converged
    f = svm_decision(model, Z)
    assert np.all(np.sign(f) == y)


def test_smo_kkt_and_balance():
    rng = np.random.default_rng(2)
    for C, gamma in ((1.0, 0.5), (10.0, 2.0)):
        Z, labels = blobs(rng, [(0, 0), (1.2, 1.2)], 30, spread=0.5)
        y = np.where(np.array(labels) == "c0", 1.0, -1.0)
        model = smo_train(Z, y, C=C, gamma=gamma)
        assert model.converged
        assert abs(np.sum(model.dual_coef)) <= 1e-6
        assert model_kkt_violation(model, Z, y, C, 1e-3) <= 1e-9


def test_smo_dual_not_beaten_by_random_feasible():
    rng = np.random.default_rng(3)
    Z, labels = blobs(rng, [(0, 0), (1, 1)], 12, spread=0.4)
    y = np.where(np.array(labels) == "c0", 1.0, -1.0)
    C = 5.0
    model = smo_train(Z, y, C=C, gamma=1.0)
    K = kernel_matrix(Z, Z, 1.0)
    alpha = np.zeros(len(y))
    for sv, coef in zip(model.support_vectors, model.dual_coef):
        idx = np.flatnonzero((Z == sv).all(axis=1))[0]
        alpha[idx] = abs(coef)
    smo_obj = dual_objective(alpha, y, K)
    pos, neg = y > 0, y < 0
    best_random = np.inf
    for _ in range(10000):
        a = rng.uniform(0, C, len(y))
        # project onto the balance constraint, then back into the box
        a[pos] *= min(1.0, (a[neg].sum() / max(a[pos].sum(), 1e-12)))
        a[neg] *= min(1.0, (a[pos].sum() / max(a[neg].sum(), 1e-12)))
        if abs(a @ y) > 1e-9:
            continue
        best_random = min(best_random, dual_objective(a, y, K))
    assert smo_obj <= best_random + 1e-6


def test_smo_rejects_bad_inputs():
    Z = np.zeros((4, 2))
    with pytest.raises(SingleClassError):
        smo_train(Z, np.ones(4), C=1.0, gamma=1.0)
    with pytest.raises(BadConfigError):
        smo_train(Z, np.array([1.0, -1.0, 1.0, -1.0]), C=0.0, gamma=1.0)
    with pytest.raises(BadConfigError):
        smo_train(Z, np.array([1.0, 2.0, -1.0, -1.0]), C=1.0, gamma=1.0)
    y = np.array([1.0, -1.0, 1.0, -1.0])
    for C, gamma in ((np.nan, 1.0), (1.0, np.nan), (1.0, np.inf), (1.0, -1.0)):
        with pytest.raises(BadConfigError):
            smo_train(Z, y, C=C, gamma=gamma)
    for bad in (np.nan, np.inf):
        Zb = Z.copy()
        Zb[2, 1] = bad
        with pytest.raises(DegenerateInputError):
            smo_train(Zb, y, C=1.0, gamma=1.0)


def _reference_smo(Z, y, C, gamma, tol=1e-3, max_updates=1_000_000):
    """The SMO loop as it was before its working sets were kept incrementally:
    both masks rebuilt and F fancy-indexed on every update.  smo_train must
    reproduce it bit for bit.  Also returns which of its rare exits ran."""
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    K = kernel_matrix(Z, Z, gamma)
    alpha = np.zeros(n)
    F = -y.copy()
    converged = False
    seen = {"eta_floor": False, "stuck": False}
    for _ in range(max_updates):
        up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < C - 1e-12))
        if not (np.any(up) and np.any(low)):
            converged = True
            break
        i = int(np.flatnonzero(up)[np.argmin(F[up])])
        j = int(np.flatnonzero(low)[np.argmax(F[low])])
        b_up, b_low = F[i], F[j]
        if b_low - b_up <= tol:
            converged = True
            break
        if y[i] != y[j]:
            L = max(0.0, alpha[j] - alpha[i])
            H = min(C, C + alpha[j] - alpha[i])
        else:
            L = max(0.0, alpha[i] + alpha[j] - C)
            H = min(C, alpha[i] + alpha[j])
        seen["eta_floor"] |= K[i, i] + K[j, j] - 2.0 * K[i, j] < 1e-12
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        aj = np.clip(alpha[j] + y[j] * (F[i] - F[j]) / eta, L, H)
        dj = aj - alpha[j]
        if abs(dj) < 1e-14:
            seen["stuck"] = True
            break
        ai = alpha[i] + y[i] * y[j] * (-dj)
        di = ai - alpha[i]
        alpha[i], alpha[j] = ai, aj
        F += y[i] * di * K[i] + y[j] * dj * K[j]
    up = ((y > 0) & (alpha < C - 1e-12)) | ((y < 0) & (alpha > 1e-12))
    low = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < C - 1e-12))
    b_up = float(np.min(F[up])) if np.any(up) else 0.0
    b_low = float(np.max(F[low])) if np.any(low) else 0.0
    keep = alpha > 1e-12
    model = BinarySvmModel(support_vectors=Z[keep].copy(), dual_coef=(alpha * y)[keep],
                           b=-(b_up + b_low) / 2.0, gamma=gamma, C=C,
                           converged=converged)
    return model, seen


def _random_smo_problem(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 40)), int(rng.integers(1, 5))
    Z = rng.standard_normal((n, d))
    if seed % 2:
        Z = np.vstack([Z, Z[: n // 2]])  # duplicate rows
    y = np.where(rng.random(len(Z)) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    return Z, y, float(2.0 ** rng.uniform(-8, 30)), float(2.0 ** rng.uniform(-6, 6))


def _duplicates_with_flipped_labels():
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((10, 2))
    y = np.where(np.arange(14) % 2 == 0, 1.0, -1.0)
    y[10:] = -y[:4]
    return np.vstack([Z, Z[:4]]), y


@pytest.mark.parametrize("case", [
    "tiny_C", "small_C_at_bound", "eta_floor", "update_cap", "stuck_pair", "sweep"])
def test_smo_matches_reference_loop(monkeypatch, case):
    rng = np.random.default_rng(16)
    Zb, lb = blobs(rng, [(0, 0), (1, 1)], 20, spread=0.7)
    yb = np.where(np.array(lb) == "c0", 1.0, -1.0)
    cap = classify.SMO_MAX_UPDATES
    problems = {
        "tiny_C": [(Zb, yb, 1e-13, 1.0, cap)],
        "small_C_at_bound": [(Zb, yb, 0.05, 1.0, cap)],
        "eta_floor": [(*_duplicates_with_flipped_labels(), 4.0, 1.0, cap)],
        "update_cap": [(Zb, yb, 10.0, 2.0, 5)],
        "stuck_pair": [(*_random_smo_problem(184), cap)],
        "sweep": [(*_random_smo_problem(seed), 3000) for seed in range(40)],
    }[case]
    for Z, y, C, gamma, max_updates in problems:
        want, seen = _reference_smo(Z, y, C, gamma, max_updates=max_updates)
        monkeypatch.setattr(classify, "SMO_MAX_UPDATES", max_updates)
        got = smo_train(Z, y, C, gamma)
        np.testing.assert_array_equal(got.support_vectors, want.support_vectors)
        np.testing.assert_array_equal(got.dual_coef, want.dual_coef)
        assert got.b == want.b
        assert got.converged == want.converged
    # each case reaches the branch it is named for
    if case == "tiny_C":
        assert got.converged and got.dual_coef.size == 0
    elif case == "small_C_at_bound":
        assert np.sum(np.abs(got.dual_coef) >= 0.05 - 1e-12) >= 10
    elif case == "eta_floor":
        assert seen["eta_floor"]
    elif case == "update_cap":
        assert not got.converged and not seen["stuck"]
    elif case == "stuck_pair":
        assert seen["stuck"] and not got.converged


def _reference_batch():
    """The problems of test_smo_matches_reference_loop as one list of
    (Z, y, C, gamma, update cap): mixed n, C, gamma and caps."""
    rng = np.random.default_rng(16)
    Zb, lb = blobs(rng, [(0, 0), (1, 1)], 20, spread=0.7)
    yb = np.where(np.array(lb) == "c0", 1.0, -1.0)
    cap = classify.SMO_MAX_UPDATES
    return ([(Zb, yb, 1e-13, 1.0, cap), (Zb, yb, 0.05, 1.0, cap),
             (*_duplicates_with_flipped_labels(), 4.0, 1.0, cap),
             (Zb, yb, 10.0, 2.0, 5), (*_random_smo_problem(184), cap)]
            + [(*_random_smo_problem(seed), 3000) for seed in range(40)])


def _lockstep(batch):
    """_smo_lockstep's models as a list, and the pair updates it counted."""
    counts = {"smo_updates": 0}
    models = list(classify._smo_lockstep(batch, counts))
    return models, counts["smo_updates"]


@pytest.mark.parametrize("chunk_bytes", [None, 4 * 60 * 60 * 8])
def test_smo_lockstep_batch_matches_reference(monkeypatch, chunk_bytes):
    problems = _reference_batch()
    if chunk_bytes is not None:
        monkeypatch.setattr(classify, "SMO_CHUNK_BYTES", chunk_bytes)
    chunks = []
    run_chunk = classify._smo_chunk

    def counting_chunk(batch):
        chunks.append(len(batch))
        return run_chunk(batch)

    monkeypatch.setattr(classify, "_smo_chunk", counting_chunk)
    batched = []  # chunks per batch
    for cap in sorted({p[4] for p in problems}):  # one cap holds for a whole batch
        monkeypatch.setattr(classify, "SMO_MAX_UPDATES", cap)
        capped = [p for p in problems if p[4] == cap]
        batch = [(*classify._check_problem(Z, y, C, gamma), C, gamma)
                 for Z, y, C, gamma, _ in capped]
        chunks.clear()
        models, updates = _lockstep(batch)
        assert sum(chunks) == len(batch)
        batched.append(len(chunks))
        for (Z, y, C, gamma, _), got in zip(capped, models, strict=True):
            want, _ = _reference_smo(Z, y, C, gamma, max_updates=cap)
            np.testing.assert_array_equal(got.support_vectors, want.support_vectors)
            np.testing.assert_array_equal(got.dual_coef, want.dual_coef)
            assert got.b == want.b
            assert got.converged == want.converged
        # the update count is the sum of the problems solved one at a time
        alone = [_lockstep([p])[1] for p in batch]
        assert updates == sum(alone)
        assert (alone == [5]) == (cap == 5)
    assert (batched == [1, 1, 1]) == (chunk_bytes is None)


def test_cross_validate_many_matches_per_fold_training():
    rng = np.random.default_rng(18)
    Z, labels = blobs(rng, [(0, 0), (1.2, 0), (0, 1.2)], 9, spread=0.7)
    points = [(0.5, 0.25), (8.0, 2.0), (100.0, 0.05)]
    scores, updates = cross_validate(Z, labels, points, 3, 4)
    lab = np.array(labels)
    fold_of = stratified_folds(labels, 3, 4)
    for (C, gamma), score in zip(points, scores):
        accs = []
        for f in range(3):
            test = fold_of == f
            model = ovo_train(Z[~test], lab[~test], C, gamma)
            accs.append(float(np.mean(ovo_predict_batch(model, Z[test]) == lab[test])))
        assert score == float(np.mean(accs))
    assert updates > 0


def test_cross_validate_predicts_before_the_last_chunk_is_trained(monkeypatch):
    # each point is scored as soon as its models exist, not after every
    # (point, fold, pair) model of the batch is held at once
    rng = np.random.default_rng(18)
    Z, labels = blobs(rng, [(0, 0), (1.2, 0), (0, 1.2)], 9, spread=0.7)
    points = [(0.5, 0.25), (8.0, 2.0), (100.0, 0.05)]
    want = cross_validate(Z, labels, points, 3, 4)
    monkeypatch.setattr(classify, "SMO_CHUNK_BYTES", 4 * 18 * 18 * 8)
    calls = []
    run_chunk, predict = classify._smo_chunk, classify.ovo_predict_batch

    def logged_chunk(batch):
        calls.append("chunk")
        return run_chunk(batch)

    def logged_predict(model, Z):
        calls.append("predict")
        return predict(model, Z)

    monkeypatch.setattr(classify, "_smo_chunk", logged_chunk)
    monkeypatch.setattr(classify, "ovo_predict_batch", logged_predict)
    assert cross_validate(Z, labels, points, 3, 4) == want
    assert calls.count("chunk") > 1
    assert calls.index("predict") < len(calls) - 1 - calls[::-1].index("chunk")


def test_svm_predict_zero_maps_to_positive():
    model = BinarySvmModel(support_vectors=np.zeros((0, 2)),
                           dual_coef=np.zeros(0), b=0.0, gamma=1.0, C=1.0)
    z = np.array([5.0, -1.0])
    assert svm_decision(model, z)[0] == 0.0
    # the pair (0, 1) trains class 0 as +1, so f = 0 votes for class 0
    ovo = OvoModel(classes=["pos", "neg"], models={(0, 1): model})
    assert ovo_predict_batch(ovo, z) == ["pos"]


def test_svm_free_support_vectors_on_margin():
    rng = np.random.default_rng(4)
    Z, labels = blobs(rng, [(0, 0), (1.5, 1.5)], 25, spread=0.45)
    y = np.where(np.array(labels) == "c0", 1.0, -1.0)
    C = 2.0
    model = smo_train(Z, y, C=C, gamma=1.0)
    free = np.abs(model.dual_coef) < C - 1e-9
    assert np.any(free)
    f = svm_decision(model, model.support_vectors[free])
    margins = np.abs(f)
    assert np.all(margins >= 1 - 1e-3) and np.all(margins <= 1 + 1e-3)


def test_svm_decision_smoothness():
    rng = np.random.default_rng(5)
    Z, labels = blobs(rng, [(0, 0), (2, 2)], 10)
    y = np.where(np.array(labels) == "c0", 1.0, -1.0)
    model = smo_train(Z, y, C=1.0, gamma=1.5)
    z = rng.standard_normal(2)
    f1 = svm_decision(model, z[None, :])[0]
    f2 = svm_decision(model, (z + 1e-9)[None, :])[0]
    assert abs(f1 - f2) < 1e-6


# --- one-vs-one -----------------------------------------------------------------

def test_ovo_model_counts():
    rng = np.random.default_rng(6)
    Z2, l2 = blobs(rng, [(0, 0), (3, 3)], 10)
    assert len(ovo_train(Z2, l2, 1.0, 1.0).models) == 1
    Z6, l6 = blobs(rng, [(i, i % 2) for i in range(6)], 8)
    assert len(ovo_train(Z6, l6, 1.0, 1.0).models) == 15


def test_ovo_train_batch_matches_smo_train_per_pair():
    # every pair of one ovo_train call trains in one lockstep batch, and each
    # pair's model is the one smo_train gives that pair alone
    rng = np.random.default_rng(19)
    Z3, l3 = blobs(rng, [(0, 0), (1, 0.5), (0.5, 1)], 12, spread=0.6)
    Z6, l6 = blobs(rng, [(i, i % 2) for i in range(6)], 8, spread=0.8)
    Zs, ys, Cs, gs = _random_smo_problem(184)  # its one pair ends unconverged
    cases = [(Z3, l3, 10.0, 2.0), (Z6, l6, 28.66, 0.413), (Z6, l6, 8.0, 1.0),
             (Zs, np.where(ys > 0, "a", "b"), Cs, gs)]
    for Z, labels, C, gamma in cases:
        model = ovo_train(Z, labels, C, gamma)
        lab = np.array(labels)
        for (ia, ib), got in model.models.items():
            mask = (lab == model.classes[ia]) | (lab == model.classes[ib])
            y = np.where(lab[mask] == model.classes[ia], 1.0, -1.0)
            want = smo_train(Z[mask], y, C, gamma)
            np.testing.assert_array_equal(got.support_vectors, want.support_vectors)
            np.testing.assert_array_equal(got.dual_coef, want.dual_coef)
            assert got.b == want.b
            assert got.converged == want.converged
    assert not model.models[(0, 1)].converged


def test_ovo_two_class_reduces_to_binary():
    rng = np.random.default_rng(7)
    Z, labels = blobs(rng, [(0, 0), (3, 3)], 15)
    model = ovo_train(Z, labels, C=5.0, gamma=1.0)
    preds = ovo_predict_batch(model, Z)
    assert preds == labels


def test_ovo_three_blobs_accuracy():
    rng = np.random.default_rng(8)
    Ztr, ltr = blobs(rng, [(0, 0), (3, 0), (0, 3)], 40)
    Zte, lte = blobs(rng, [(0, 0), (3, 0), (0, 3)], 40)
    model = ovo_train(Ztr, ltr, C=10.0, gamma=1.0)
    acc = np.mean(np.array(ovo_predict_batch(model, Zte)) == np.array(lte))
    assert acc >= 0.95


def test_ovo_prediction_invariant_to_training_order():
    rng = np.random.default_rng(9)
    Z, labels = blobs(rng, [(0, 0), (3, 0), (0, 3)], 20)
    labels = np.array(labels)
    perm = rng.permutation(len(labels))
    m1 = ovo_train(Z, labels, C=10.0, gamma=1.0)
    m2 = ovo_train(Z[perm], labels[perm], C=10.0, gamma=1.0)
    probes = rng.normal(1.0, 1.2, (50, 2))
    assert ovo_predict_batch(m1, probes) == ovo_predict_batch(m2, probes)


def test_ovo_single_class_rejected():
    with pytest.raises(SingleClassError):
        ovo_train(np.zeros((4, 2)), ["N"] * 4, 1.0, 1.0)


def test_ovo_vote_ties_go_to_larger_magnitude():
    # constant decision functions (no support vectors): every class wins
    # one vote; the summed |f| breaks the tie, then the lower class index
    def pair(b):
        return BinarySvmModel(support_vectors=np.zeros((0, 1)), dual_coef=np.zeros(0),
                              b=b, gamma=1.0, C=1.0)

    z = np.zeros((2, 1))
    ovo = OvoModel(classes=["x", "y", "z"],
                   models={(0, 1): pair(0.5), (0, 2): pair(-0.25), (1, 2): pair(2.0)})
    assert ovo_predict_batch(ovo, z) == ["y", "y"]
    ovo.models = {(0, 1): pair(1.0), (0, 2): pair(-1.0), (1, 2): pair(1.0)}
    assert ovo_predict_batch(ovo, z) == ["x", "x"]


def test_ovo_predict_single_vector():
    rng = np.random.default_rng(10)
    Z, labels = blobs(rng, [(0, 0), (4, 4)], 10)
    model = ovo_train(Z, labels, C=5.0, gamma=1.0)
    assert ovo_predict_batch(model, np.array([0.1, -0.1])) == ["c0"]
    assert ovo_predict_batch(model, np.array([4.1, 3.9])) == ["c1"]


# --- cross-validation --------------------------------------------------------------

def test_stratified_folds_coverage_and_determinism():
    labels = ["a"] * 10 + ["b"] * 15
    f1 = stratified_folds(labels, 5, seed=3)
    f2 = stratified_folds(labels, 5, seed=3)
    np.testing.assert_array_equal(f1, f2)
    lab = np.array(labels)
    for cls, size in (("a", 10), ("b", 15)):
        counts = np.bincount(f1[lab == cls], minlength=5)
        assert counts.sum() == size
        assert counts.max() - counts.min() <= 1


def test_stratified_folds_too_few():
    with pytest.raises(TooFewPerClassError):
        stratified_folds(["a"] * 3 + ["b"] * 9, 4, seed=0)


def test_cross_validate_separable():
    rng = np.random.default_rng(11)
    Z, labels = blobs(rng, [(0, 0), (4, 4)], 25)
    assert cross_validate(Z, labels, [(10.0, 1.0)], folds=5, seed=0)[0][0] == 1.0


def test_cross_validate_chance_level_on_shuffled_labels():
    rng = np.random.default_rng(12)
    Z = rng.standard_normal((120, 4))
    labels = ["a", "b"] * 60
    acc = cross_validate(Z, labels, [(1.0, 0.5)], folds=5, seed=1)[0][0]
    assert 0.35 <= acc <= 0.65


def test_cross_validate_deterministic():
    rng = np.random.default_rng(13)
    Z, labels = blobs(rng, [(0, 0), (2, 2)], 20, spread=0.8)
    a1 = cross_validate(Z, labels, [(2.0, 1.0)], folds=4, seed=9)[0][0]
    a2 = cross_validate(Z, labels, [(2.0, 1.0)], folds=4, seed=9)[0][0]
    assert a1 == a2


# --- PSO ----------------------------------------------------------------------------

def test_pso_degenerate_swarm_stays_put():
    # a lone particle is its own personal and global best: no pull moves it
    seen = []

    def fitness(X):
        seen.append(X.copy())
        return [-float(np.sum(x ** 2)) for x in X]

    best, fit, _ = pso_optimize(fitness, [(-5, 5), (-5, 5)], swarm_size=1,
                                iterations=10, seed=0)
    assert len(seen) == 11
    for X in seen:
        np.testing.assert_array_equal(X, seen[0])
    np.testing.assert_array_equal(best, seen[0][0])
    assert fit == -float(np.sum(seen[0][0] ** 2))


def test_pso_quadratic_surrogate():
    best, _, history = pso_optimize(
        lambda X: [-((x[0] - 3.0) ** 2 + (x[1] + 2.0) ** 2) for x in X],
        [(-5.0, 15.0), (-15.0, 3.0)], swarm_size=20, iterations=50, seed=0)
    assert np.linalg.norm(best - np.array([3.0, -2.0])) <= 0.1
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_pso_clamps_to_bounds():
    # optimum far outside the box: incumbent must stay inside it
    best, _, _ = pso_optimize(
        lambda X: [float(x[0] + x[1]) for x in X], [(-1.0, 1.0), (-2.0, 0.5)],
        swarm_size=8, iterations=20, seed=2)
    assert -1.0 <= best[0] <= 1.0
    assert -2.0 <= best[1] <= 0.5


def test_pso_search_scores_each_point_once(monkeypatch):
    rng = np.random.default_rng(17)
    Z, labels = blobs(rng, [(0, 0), (1.5, 0), (0, 1.5)], 8, spread=0.6)
    swarm, iters, folds, seed = 4, 4, 3, 2
    calls = []

    def counting_cv(Z, labels, points, folds, seed):
        calls.extend((float(C), float(gamma)) for C, gamma in points)
        return cross_validate(Z, labels, points, folds, seed)

    monkeypatch.setattr(classify, "cross_validate", counting_cv)
    C, gamma, fit, counts = pso_search(Z, labels, swarm, iters, folds, seed)
    monkeypatch.undo()
    assert len(calls) == len(set(calls))
    # the global-best particle never moves, so the swarm revisits points
    assert len(calls) < swarm * (iters + 1)

    best, want_fit, _ = pso_optimize(
        lambda X: [cross_validate(Z, labels, [(2.0 ** x[0], 2.0 ** x[1])],
                                  folds=folds, seed=seed)[0][0] for x in X],
        PSO_BOUNDS, swarm_size=swarm, iterations=iters, seed=seed)
    assert (C, gamma, fit) == (2.0 ** best[0], 2.0 ** best[1], want_fit)


def test_pso_config_validation():
    rng = np.random.default_rng(17)
    Z, labels = blobs(rng, [(0, 0), (1.5, 0)], 6)
    with pytest.raises(BadConfigError):
        pso_search(Z, labels, swarm_size=0)
    with pytest.raises(BadConfigError):
        pso_search(Z, labels, iterations=0)
    with pytest.raises(BadConfigError):
        pso_search(Z, labels, swarm_size=2, iterations=1, folds=1)


# --- persistence -------------------------------------------------------------------

def test_model_json_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    Z, labels = blobs(rng, [(0, 0), (3, 0), (0, 3)], 15)
    model = ovo_train(Z, labels, C=4.0, gamma=1.0)
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.classes == model.classes
    probes = rng.standard_normal((30, 2)) * 2
    assert ovo_predict_batch(loaded, probes) == ovo_predict_batch(model, probes)


def test_save_model_writes_json_dumps_of_the_document(tmp_path):
    # written pair by pair, the file is still json.dumps of the whole model
    rng = np.random.default_rng(16)
    Z, labels = blobs(rng, [(0, 0), (3, 0), (0, 3)], 12)
    model = ovo_train(Z, labels, C=4.0, gamma=1.0)
    model.models[(0, 2)] = ovo_train(Z, labels, C=1e-13, gamma=1.0).models[(0, 2)]
    assert len(model.models) == 3 and model.models[(0, 2)].support_vectors.size == 0
    doc = {"classes": model.classes,
           "pairs": [{"a": ia, "b": ib, "support_vectors": m.support_vectors.tolist(),
                      "dual_coef": m.dual_coef.tolist(), "bias": m.b, "gamma": m.gamma,
                      "C": m.C, "converged": m.converged}
                     for (ia, ib), m in sorted(model.models.items())]}
    path = tmp_path / "model.json"
    save_model(path, model)
    assert path.read_bytes() == json.dumps(doc).encode()
    save_model(path, OvoModel(classes=["a", "b"]))
    assert path.read_bytes() == json.dumps({"classes": ["a", "b"], "pairs": []}).encode()


def test_load_model_rejects_malformed(tmp_path):
    rng = np.random.default_rng(15)
    Z, labels = blobs(rng, [(0, 0), (3, 0), (0, 3)], 10)
    path = tmp_path / "model.json"
    save_model(path, ovo_train(Z, labels, C=4.0, gamma=1.0))
    text = path.read_text()
    doc = json.loads(text)
    pair = doc["pairs"][0]
    broken = [
        text[:len(text) // 2],                                      # truncated
        json.dumps({"classes": doc["classes"]}),                    # no pairs
        json.dumps({**doc, "pairs": []}),
        json.dumps({**doc, "pairs": [{**pair, "a": 0, "b": 3}]}),   # no class 3
        json.dumps({**doc, "pairs": [{**pair, "dual_coef": pair["dual_coef"][1:]}]}),
        json.dumps({**doc, "pairs": [{**pair, "support_vectors": [[0.0], [1.0, 2.0]]}]}),
        json.dumps({**doc, "pairs": [{**pair, "bias": float("nan")}]}),
        json.dumps({**doc, "pairs": [{k: v for k, v in pair.items() if k != "gamma"}]}),
        json.dumps({**doc, "pairs": [{**pair, "gamma": -pair["gamma"]}]}),
        json.dumps({**doc, "pairs": [{**pair, "gamma": -50.0}]}),
        json.dumps({**doc, "pairs": [{**pair, "C": -1.0}]}),
        json.dumps({**doc, "pairs": [{**pair, "C": 0.0}]}),
        json.dumps({**doc, "pairs": [{**pair, "converged": "no"}]}),   # bool("no") is True
        json.dumps({**doc, "pairs": [{**pair, "bias": "1"}]}),
        json.dumps({**doc, "pairs": [{**pair, "gamma": "2.5"}]}),
        json.dumps({**doc, "pairs": [{**pair, "C": True}]}),
        json.dumps([1, 2]),
    ]
    for bad in broken:
        path.write_text(bad)
        with pytest.raises(CorruptFileError):
            load_model(path)
