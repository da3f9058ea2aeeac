"""Acceptance gate: nine numbered end-to-end criteria.

Each test prints one `ACCEPTANCE <n> PASS/FAIL` line with the measured
quantities (visible even under capture, via capsys.disabled) and then
asserts, so a red criterion is both loud and failing.  Tolerances are
pinned here and documented in the README.
"""

import time

import numpy as np

from ecgsparse import wavelet
from ecgsparse.classify import (
    kernel_matrix,
    ovo_predict_batch,
    ovo_train,
    pso_optimize,
    svm_decision,
)
from ecgsparse.codec import (
    SparseCode,
    compress,
    cr_metric,
    decompress,
    err_metric,
    parse_codes,
    reconstruct_beat,
)
from ecgsparse.dictionary import (
    kmeans_vq,
    load_dictionary,
    nearest_atoms,
    save_dictionary,
    train_online,
)
from ecgsparse.features import bow_feature, tpm_feature, unit
from ecgsparse.ingest import decode_212
from ecgsparse.sparse_coding import default_lambda, encode_all
from ecgsparse.synthetic import amplitude_varying_beats, shifted_trio_beats
from ecgsparse.cli import split_dataset
from verification import (
    CodingProblem,
    check_optimality,
    feature_sign,
    lasso_objective,
    make_sparse_synthesis,
    oracle_solve,
    serialize_codes,
    smo_train,
)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def test_acceptance_1_solver_correctness(capsys):
    # 200 seeded random problems (d=8, k=12, lambda=0.1): subgradient
    # optimality within 1e-7 and objective within 1e-6 of the
    # coordinate-descent oracle, in under 5 seconds.
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_opt, worst_gap = 0.0, 0.0
    for _ in range(200):
        D = rng.standard_normal((8, 12))
        D /= np.linalg.norm(D, axis=0, keepdims=True)
        p = CodingProblem(dictionary=D, target=rng.standard_normal(8), lam=0.1)
        x = feature_sign(p)
        worst_opt = max(worst_opt, check_optimality(p, x))
        gap = abs(lasso_objective(p, x) - lasso_objective(p, oracle_solve(p)))
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    ok = worst_opt <= 1e-7 and worst_gap <= 1e-6 and elapsed < 5.0
    report(capsys, 1, ok,
           f"solver optimality max {worst_opt:.2e} (tol 1e-7), oracle gap max "
           f"{worst_gap:.2e} (tol 1e-6), {elapsed:.1f}s (limit 5s)")
    assert worst_opt <= 1e-7
    assert worst_gap <= 1e-6
    assert elapsed < 5.0


def test_acceptance_2_dictionary_recovery(capsys):
    # Synthetic D*.X* data (d=10, k=20, 5-sparse, 2000 columns); after
    # online training (batch 64, 10 epochs) the learned dictionary encodes
    # the data back to within 1% mean relative error, in under 60 seconds.
    t0 = time.perf_counter()
    _, _, Y = make_sparse_synthesis(10, 20, 2000, 5, seed=11)
    D, _ = train_online(Y, 20, 0.05, batch_size=64, epochs=10, seed=11)
    X = encode_all(D, Y, lam=0.002)
    resid = Y - D @ X
    rel = np.linalg.norm(resid, axis=0) / np.linalg.norm(Y, axis=0)
    mean_rel = float(np.mean(rel))
    elapsed = time.perf_counter() - t0
    ok = mean_rel <= 0.01 and elapsed < 60.0
    report(capsys, 2, ok,
           f"mean relative reconstruction error {100 * mean_rel:.3f}% "
           f"(limit 1%), {elapsed:.1f}s (limit 60s)")
    assert mean_rel <= 0.01
    assert elapsed < 60.0


def test_acceptance_3_sparse_beats_vq(capsys):
    # Sparse codec vs 1-sparse VQ codec with equal k on the same beat set:
    # sparse Err <= 1% at the default lambda and VQ Err at least 10x larger.
    beats = amplitude_varying_beats(270, seed=9)
    fb = wavelet.filter_bank("haar")
    w, s, wl = 300, 1, 4  # whole-beat windows
    lam = default_lambda(wavelet.feature_dimension(fb, w, wl))
    windows = [wavelet.extract_windows(b, fb, w, s, wl).columns for b in beats]
    Y = np.hstack(windows)

    D, _ = train_online(Y, 310, lam, batch_size=64, epochs=3, seed=9)
    geometry = (w, s, fb, wl)
    recons = [reconstruct_beat(decompress(D, code), geometry)
              for code in compress(D, windows, lam)]
    originals = [b.values for b in beats]
    err_sparse = err_metric(recons, originals)

    centroids, _ = kmeans_vq(Y, 310, seed=9, iters=40)
    nearest, _ = nearest_atoms(centroids, Y)
    vq_recons = [reconstruct_beat(centroids[:, [j]], geometry) for j in nearest]
    err_vq = err_metric(vq_recons, originals)

    ratio = err_vq / err_sparse
    ok = err_sparse <= 0.01 and ratio >= 10.0
    report(capsys, 3, ok,
           f"sparse Err {100 * err_sparse:.3f}% (limit 1%), VQ Err "
           f"{100 * err_vq:.3f}%, ratio {ratio:.1f}x (need >= 10x)")
    assert err_sparse <= 0.01
    assert ratio >= 10.0


def test_acceptance_4_metric_exactness(capsys):
    # Hand-computed Err and Cr values reproduced to 1e-12; 135 stored
    # coefficients out of 300 samples gives Cr = 0.55 exactly.
    N = np.zeros(300)
    N[0], N[1] = 3.0, 4.0
    M = N.copy()
    M[1] = 4.5
    err = err_metric([M], [N])
    i = np.arange(135)
    code135 = SparseCode(k=600, omega=11, rows=i % 600, cols=i % 11,
                         vals=1.0 + i)
    cr = cr_metric([code135])
    ok = abs(err - 0.10) <= 1e-12 and abs(cr - 0.55) <= 1e-12
    report(capsys, 4, ok,
           f"err_metric {err:.15f} (want 0.10), cr_metric {cr:.15f} "
           f"(want 0.55), both to 1e-12")
    assert abs(err - 0.10) <= 1e-12
    assert abs(cr - 0.55) <= 1e-12


def test_acceptance_5_tpm_beats_bow(capsys):
    # Three classes, two of which differ only by the temporal position of a
    # shared morphology: pyramid features must reach 95% OVO-SVM accuracy
    # and beat the time-blind BOW histogram by >= 10 points, under 120 s.
    t0 = time.perf_counter()
    beats = shifted_trio_beats(500, seed=3)
    train, test = split_dataset(beats, train_frac=0.5, seed=3)
    fb = wavelet.filter_bank("bior2.6")
    w, s, wl = 50, 25, 2
    lam = default_lambda(wavelet.feature_dimension(fb, w, wl))

    def windows(group):
        return [wavelet.extract_windows(b, fb, w, s, wl) for b in group]

    mats_train, mats_test = windows(train), windows(test)
    Y = np.hstack([fm.columns for fm in mats_train])
    rng = np.random.default_rng(3)
    Y = Y[:, rng.choice(Y.shape[1], size=3000, replace=False)]
    D, _ = train_online(Y, 150, lam, batch_size=64, epochs=2, seed=3)

    def codes(group, mats):  # one beat per call: the per-beat path is timed here
        return [next(compress(D, [fm.columns], lam, [b.label]))
                for b, fm in zip(group, mats)]

    codes_train = codes(train, mats_train)
    codes_test = codes(test, mats_test)

    def tpm_matrix(cs):
        return np.vstack([unit(tpm_feature(c, 2, "expectation", 3)) for c in cs])

    def bow_matrix(cs):
        return np.vstack([unit(bow_feature(c)) for c in cs])

    labels_train = [c.label for c in codes_train]
    labels_test = np.array([c.label for c in codes_test])
    accs = {}
    for name, mk in (("tpm", tpm_matrix), ("bow", bow_matrix)):
        model = ovo_train(mk(codes_train), labels_train, C=8.0, gamma=1.0)
        pred = np.array(ovo_predict_batch(model, mk(codes_test)))
        accs[name] = float(np.mean(pred == labels_test))
    elapsed = time.perf_counter() - t0
    gap = accs["tpm"] - accs["bow"]
    ok = accs["tpm"] >= 0.95 and gap >= 0.10 and elapsed < 120.0
    report(capsys, 5, ok,
           f"TPM accuracy {100 * accs['tpm']:.2f}% (need >= 95%), BOW "
           f"{100 * accs['bow']:.2f}%, gap {100 * gap:.1f} points "
           f"(need >= 10), {elapsed:.0f}s (limit 120s)")
    assert accs["tpm"] >= 0.95
    assert gap >= 0.10
    assert elapsed < 120.0


def test_acceptance_6_svm_kkt(capsys):
    # Every converged model on random 50-point sets satisfies the KKT
    # conditions at tol=1e-3 with sum(alpha_i y_i) ~ 0, and the RBF kernel
    # matrices are PSD within -1e-8.
    rng = np.random.default_rng(66)
    worst_kkt, worst_bal, worst_eig = 0.0, 0.0, 0.0
    for C, gamma in ((1.0, 0.5), (10.0, 2.0)):
        for _ in range(5):
            Z = rng.standard_normal((50, 4))
            direction = rng.standard_normal(4)
            y = np.where(Z @ direction >= 0, 1.0, -1.0)
            if abs(y.sum()) == len(y):  # single class, resample
                y[0] = -y[0]
            model = smo_train(Z, y, C, gamma)
            assert model.converged
            worst_bal = max(worst_bal, abs(float(np.sum(model.dual_coef))))
            worst_eig = max(worst_eig,
                            -float(np.min(np.linalg.eigvalsh(
                                kernel_matrix(Z, Z, gamma)))))
            # recover alpha per training point and check the margin cases
            f = svm_decision(model, Z)
            margins = y * f
            alpha = np.zeros(len(y))
            for sv, coef in zip(model.support_vectors, model.dual_coef):
                match = np.flatnonzero((Z == sv).all(axis=1))
                alpha[match[0]] += abs(coef)
            tol = 1e-3
            for a, m in zip(alpha, margins):
                if a <= 1e-9:
                    worst_kkt = max(worst_kkt, (1.0 - tol) - m)
                elif a >= C - 1e-9:
                    worst_kkt = max(worst_kkt, m - (1.0 + tol))
                else:
                    worst_kkt = max(worst_kkt, abs(m - 1.0) - tol)
    ok = worst_kkt <= 0.0 and worst_bal <= 1e-6 and worst_eig <= 1e-8
    report(capsys, 6, ok,
           f"worst KKT slack {worst_kkt:.2e} (<= 0 at tol 1e-3), "
           f"|sum alpha*y| {worst_bal:.2e} (tol 1e-6), kernel min eig "
           f">= -{worst_eig:.2e} (floor -1e-8)")
    assert worst_kkt <= 0.0
    assert worst_bal <= 1e-6
    assert worst_eig <= 1e-8


def test_acceptance_7_pso_sanity(capsys):
    # On a quadratic surrogate the swarm incumbent lands within 0.1 of the
    # optimum in 50 iterations, and its fitness never decreases.
    target = np.array([3.0, -2.0])
    f = lambda x: -((x[0] - 3.0) ** 2 + (x[1] + 2.0) ** 2)
    fitness = lambda X: [f(x) for x in X]
    bounds = [(-5.0, 15.0), (-15.0, 3.0)]
    best, _, history = pso_optimize(fitness, bounds, swarm_size=20,
                                    iterations=50, seed=0)
    dist = float(np.linalg.norm(best - target))
    monotone = True
    for seed in range(5):
        _, _, hist = pso_optimize(fitness, bounds, swarm_size=20,
                                  iterations=50, seed=seed)
        monotone = monotone and all(b >= a for a, b in zip(hist, hist[1:]))
    ok = dist <= 0.1 and monotone
    report(capsys, 7, ok,
           f"gbest distance to optimum {dist:.4f} (limit 0.1), incumbent "
           f"history non-decreasing over 5 seeds: {monotone}")
    assert dist <= 0.1
    assert monotone


def test_acceptance_8_bit_exact_io(capsys, tmp_path):
    # Packed 212 worked examples decode exactly; 100 random artifacts
    # (50 dictionaries, 50 code files) round-trip byte-identically.
    exact = (decode_212(bytes([0x01, 0x00, 0x02]), 2).tolist() == [1, 2]
             and decode_212(bytes([0x00, 0xF0, 0xFF]), 2).tolist() == [0, -1]
             and decode_212(bytes([0xFF, 0x07, 0x00]), 2).tolist() == [2047, 0])

    rng = np.random.default_rng(88)
    dict_ok = 0
    for i in range(50):
        d = int(rng.integers(4, 40))
        k = int(rng.integers(d + 1, d + 30))
        D = rng.standard_normal((d, k))
        p1, p2 = tmp_path / f"a{i}.sbd", tmp_path / f"b{i}.sbd"
        save_dictionary(p1, D)
        save_dictionary(p2, load_dictionary(p1))
        dict_ok += p1.read_bytes() == p2.read_bytes()
    code_ok = 0
    for i in range(50):
        k = int(rng.integers(3, 50))
        omega = int(rng.integers(1, 12))
        X = rng.standard_normal((k, omega))
        X[rng.random((k, omega)) < 0.7] = 0.0
        X = X.astype(np.float32).astype(float)  # stored as f32 on disk
        code = SparseCode.from_dense(X, label="N", source_id=str(i))
        blob = serialize_codes([code])
        code_ok += serialize_codes(parse_codes(blob)) == blob
    ok = exact and dict_ok == 50 and code_ok == 50
    report(capsys, 8, ok,
           f"decode_212 worked examples exact: {exact}; byte-identical "
           f"round-trips {dict_ok}/50 dictionaries, {code_ok}/50 code files")
    assert exact
    assert dict_ok == 50
    assert code_ok == 50


def test_acceptance_9_wavelet_integrity(capsys):
    # Perfect reconstruction within 1e-8 on 1000 random signals across the
    # three filter banks, and denoise removes >= 95% of a baseline
    # sinusoid's energy.
    rng = np.random.default_rng(99)
    worst = 0.0
    counts = (334, 333, 333)
    for name, count in zip(("haar", "db4", "bior2.6"), counts):
        fb = wavelet.filter_bank(name)
        for _ in range(count):
            n = 2 * int(rng.integers(32, 257))
            levels = int(rng.integers(1, 4))
            x = rng.standard_normal(n)
            xr = wavelet.idwt(wavelet.dwt(x, fb, levels), fb, n, levels)
            worst = max(worst, float(np.max(np.abs(xr - x))))

    fs = 360.0
    t = np.arange(4096) / fs
    drift = np.sin(2 * np.pi * 0.1 * t)
    out = wavelet.denoise(drift, wavelet.filter_bank("bior2.6"), levels=8)
    reduction = 1.0 - float(np.sum(out ** 2) / np.sum(drift ** 2))
    ok = worst <= 1e-8 and reduction >= 0.95
    report(capsys, 9, ok,
           f"max reconstruction error {worst:.2e} over 1000 signals "
           f"(limit 1e-8), baseline energy reduction {100 * reduction:.2f}% "
           f"(need >= 95%)")
    assert worst <= 1e-8
    assert reduction >= 0.95
