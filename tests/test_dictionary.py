"""Online dictionary learning, the k-means baseline, and SBD1 persistence."""

import numpy as np
import pytest

from ecgsparse.errors import (
    BadConfigError,
    CorruptFileError,
    NotEnoughDataError,
)
from ecgsparse.dictionary import (
    OnlineStats,
    TrainConfig,
    init_dictionary,
    kmeans_vq,
    load_dictionary,
    save_dictionary,
    surrogate,
    train_online,
    update_atoms,
    update_stats,
    vq_inertia,
)
from ecgsparse.synthetic import make_sparse_synthesis


# --- initialization ----------------------------------------------------------

def test_init_unit_norms_and_determinism():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((6, 40))
    D1 = init_dictionary(Y, k=12, seed=7)
    D2 = init_dictionary(Y, k=12, seed=7)
    np.testing.assert_array_equal(D1, D2)
    np.testing.assert_allclose(np.linalg.norm(D1, axis=0), np.ones(12),
                               atol=1e-12)
    D3 = init_dictionary(Y, k=12, seed=8)
    assert np.max(np.abs(D3 - D1)) > 1e-6


def test_init_not_enough_columns():
    with pytest.raises(NotEnoughDataError):
        init_dictionary(np.zeros((4, 5)), k=6, seed=0)


def test_init_replaces_zero_columns():
    Y = np.zeros((4, 8))
    D = init_dictionary(Y, k=3, seed=1)
    np.testing.assert_allclose(np.linalg.norm(D, axis=0), np.ones(3), atol=1e-12)


# --- sufficient statistics -----------------------------------------------------

def test_update_stats_zero_codes():
    stats = OnlineStats.empty(d=3, k=4)
    out = update_stats(stats, np.zeros((4, 5)), np.random.default_rng(0).standard_normal((3, 5)))
    np.testing.assert_array_equal(out.A, np.zeros((4, 4)))
    np.testing.assert_array_equal(out.B, np.zeros((3, 4)))
    assert out.t == 1
    assert stats.t == 0  # input untouched


def test_update_stats_outer_product():
    stats = OnlineStats.empty(d=3, k=4)
    x = np.zeros((4, 1))
    x[1, 0] = 1.0
    y = np.array([[2.0], [3.0], [4.0]])
    out = update_stats(stats, x, y)
    expect_a = np.zeros((4, 4))
    expect_a[1, 1] = 1.0
    np.testing.assert_array_equal(out.A, expect_a)
    expect_b = np.zeros((3, 4))
    expect_b[:, 1] = [2, 3, 4]
    np.testing.assert_array_equal(out.B, expect_b)


def test_update_stats_additivity():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 6))
    Y = rng.standard_normal((3, 6))
    whole = update_stats(OnlineStats.empty(3, 4), X, Y)
    split = update_stats(update_stats(OnlineStats.empty(3, 4),
                                      X[:, :2], Y[:, :2]), X[:, 2:], Y[:, 2:])
    np.testing.assert_allclose(split.A, whole.A, atol=1e-9)
    np.testing.assert_allclose(split.B, whole.B, atol=1e-9)
    assert split.t == 2 and whole.t == 1


# --- atom updates ---------------------------------------------------------------

def _unit_dict(rng, d, k):
    D = rng.standard_normal((d, k))
    return D / np.linalg.norm(D, axis=0, keepdims=True)


def test_update_atoms_fixed_point():
    rng = np.random.default_rng(3)
    D = _unit_dict(rng, 5, 8)
    stats = OnlineStats(A=np.eye(8), B=D.copy(), t=1)
    out = update_atoms(D.copy(), stats)
    np.testing.assert_allclose(out, D, atol=1e-12)


def test_update_atoms_ball_projection():
    rng = np.random.default_rng(4)
    D = _unit_dict(rng, 5, 8)
    stats = OnlineStats(A=np.eye(8), B=2.0 * D, t=1)
    out = update_atoms(D.copy(), stats)
    # u_j = 2 d_j projects straight back onto the unit sphere
    np.testing.assert_allclose(out, D, atol=1e-12)


def test_update_atoms_surrogate_non_increasing():
    rng = np.random.default_rng(5)
    D = _unit_dict(rng, 6, 10)
    X = rng.standard_normal((10, 30)) * (rng.random((10, 30)) < 0.3)
    Y = _unit_dict(rng, 6, 10) @ X + 0.01 * rng.standard_normal((6, 30))
    stats = update_stats(OnlineStats.empty(6, 10), X, Y)
    before = surrogate(D, stats)
    out = update_atoms(D.copy(), stats, passes=3)
    assert surrogate(out, stats) <= before + 1e-12
    assert np.all(np.linalg.norm(out, axis=0) <= 1.0 + 1e-9)


def test_update_atoms_reseeds_dead_atoms():
    rng = np.random.default_rng(6)
    D = _unit_dict(rng, 5, 4)
    dead = D[:, 2].copy()
    A = np.eye(4)
    A[2, 2] = 0.0  # atom 2 never used
    B = D.copy()
    B[:, 2] = 0.0
    Yb = rng.standard_normal((5, 7))
    Xb = np.zeros((4, 7))
    out = update_atoms(D.copy(), OnlineStats(A=A, B=B, t=1), Yb=Yb, Xb=Xb)
    assert np.max(np.abs(out[:, 2] - dead)) > 1e-6
    assert np.linalg.norm(out[:, 2]) == pytest.approx(1.0, abs=1e-9)


# --- full training ---------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(BadConfigError):
        TrainConfig(k=10, lam=0.1, epochs=0)
    with pytest.raises(BadConfigError):
        TrainConfig(k=10, lam=-0.1)
    with pytest.raises(BadConfigError):
        TrainConfig(k=10, lam=0.1, batch_size=0)


def test_train_online_deterministic():
    _, _, Y = make_sparse_synthesis(d=8, k=12, n=200, sparsity=3, seed=0)
    cfg = TrainConfig(k=12, lam=0.1, batch_size=32, epochs=2, seed=5)
    D1 = train_online(Y, cfg).dictionary
    D2 = train_online(Y, cfg).dictionary
    np.testing.assert_array_equal(D1, D2)


def test_train_online_objective_improves():
    _, _, Y = make_sparse_synthesis(d=8, k=12, n=400, sparsity=3, seed=1)
    cfg = TrainConfig(k=12, lam=0.1, batch_size=32, epochs=3, seed=0)
    result = train_online(Y, cfg)
    log = result.objective_log
    per_epoch = len(log) // 3
    assert np.mean(log[-per_epoch:]) <= np.mean(log[:per_epoch])
    assert np.all(np.linalg.norm(result.dictionary, axis=0) > 0)


# --- k-means baseline ---------------------------------------------------------

def test_kmeans_two_blobs():
    rng = np.random.default_rng(7)
    blob1 = rng.normal(0.0, 0.05, (3, 50)) + np.array([[1.0], [0.0], [0.0]])
    blob2 = rng.normal(0.0, 0.05, (3, 50)) + np.array([[-1.0], [0.0], [0.0]])
    Y = np.hstack([blob1, blob2])
    C, assign = kmeans_vq(Y, k=2, seed=0)
    means = sorted(C[0])
    assert abs(means[0] - (-1.0)) < 0.1
    assert abs(means[1] - 1.0) < 0.1
    assert set(assign.tolist()) == {0, 1}


def test_kmeans_identical_points():
    Y = np.tile(np.array([[2.0], [1.0]]), (1, 10))
    C, assign = kmeans_vq(Y, k=1, seed=0)
    np.testing.assert_allclose(C[:, 0], [2.0, 1.0], atol=1e-12)
    assert vq_inertia(Y, C, assign) == pytest.approx(0.0, abs=1e-20)


def test_kmeans_inertia_monotone_in_iterations():
    rng = np.random.default_rng(8)
    Y = rng.standard_normal((4, 120))
    inertias = []
    for iters in (0, 1, 2, 5, 10):
        C, assign = kmeans_vq(Y, k=6, seed=3, iters=iters)
        inertias.append(vq_inertia(Y, C, assign))
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


def test_kmeans_not_enough_data():
    with pytest.raises(NotEnoughDataError):
        kmeans_vq(np.zeros((3, 4)), k=5)


# --- SBD1 file format -----------------------------------------------------------

def test_sbd1_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    D = rng.standard_normal((7, 13))
    path = tmp_path / "dict.sbd"
    save_dictionary(path, D)
    out = load_dictionary(path)
    np.testing.assert_array_equal(out, D)
    # a second save of the loaded dictionary is byte-identical
    path2 = tmp_path / "dict2.sbd"
    save_dictionary(path2, out)
    assert path.read_bytes() == path2.read_bytes()


def test_sbd1_bad_magic(tmp_path):
    path = tmp_path / "bad.sbd"
    path.write_bytes(b"XXXX" + bytes(16))
    with pytest.raises(CorruptFileError):
        load_dictionary(path)


def test_sbd1_non_finite(tmp_path):
    D = np.eye(4)
    D[2, 1] = np.nan
    path = tmp_path / "nan.sbd"
    save_dictionary(path, D)
    with pytest.raises(CorruptFileError):
        load_dictionary(path)


def test_sbd1_truncated(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "trunc.sbd"
    save_dictionary(path, rng.standard_normal((4, 6)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CorruptFileError):
        load_dictionary(path)
