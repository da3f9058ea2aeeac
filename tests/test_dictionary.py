"""Online dictionary learning, the k-means baseline, and SBD1 persistence."""

import struct

import numpy as np
import pytest

from ecgsparse.errors import (
    BadConfigError,
    CorruptFileError,
    NotEnoughDataError,
    ShapeMismatchError,
)
from ecgsparse.dictionary import (
    MAX_K,
    init_dictionary,
    kmeans_vq,
    load_dictionary,
    nearest_atoms,
    save_dictionary,
    train_online,
    update_atoms,
    update_stats,
)
from verification import make_sparse_synthesis, surrogate


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

def _empty_stats(d, k):
    return np.zeros((k, k)), np.zeros((d, k))


def test_update_stats_zero_codes():
    A, B = _empty_stats(d=3, k=4)
    A1, B1 = update_stats(A, B, np.zeros((4, 5)),
                          np.random.default_rng(0).standard_normal((3, 5)))
    np.testing.assert_array_equal(A1, np.zeros((4, 4)))
    np.testing.assert_array_equal(B1, np.zeros((3, 4)))
    assert A1 is not A and B1 is not B  # new arrays, inputs untouched


def test_update_stats_outer_product():
    A, B = _empty_stats(d=3, k=4)
    x = np.zeros((4, 1))
    x[1, 0] = 1.0
    y = np.array([[2.0], [3.0], [4.0]])
    A1, B1 = update_stats(A, B, x, y)
    expect_a = np.zeros((4, 4))
    expect_a[1, 1] = 1.0
    np.testing.assert_array_equal(A1, expect_a)
    expect_b = np.zeros((3, 4))
    expect_b[:, 1] = [2, 3, 4]
    np.testing.assert_array_equal(B1, expect_b)
    np.testing.assert_array_equal(A, np.zeros((4, 4)))  # inputs untouched
    np.testing.assert_array_equal(B, np.zeros((3, 4)))


def test_update_stats_additivity():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 6))
    Y = rng.standard_normal((3, 6))
    whole = update_stats(*_empty_stats(3, 4), X, Y)
    split = update_stats(*update_stats(*_empty_stats(3, 4), X[:, :2], Y[:, :2]),
                         X[:, 2:], Y[:, 2:])
    np.testing.assert_allclose(split[0], whole[0], atol=1e-9)
    np.testing.assert_allclose(split[1], whole[1], atol=1e-9)


def test_update_stats_shape_checks():
    A, B = _empty_stats(d=3, k=4)
    with pytest.raises(ShapeMismatchError, match="batch shapes disagree"):
        update_stats(A, B, np.zeros((4, 5)), np.zeros((3, 6)))
    with pytest.raises(ShapeMismatchError, match="do not match the stats"):
        update_stats(A, B, np.zeros((5, 5)), np.zeros((3, 5)))


# --- atom updates ---------------------------------------------------------------

def _unit_dict(rng, d, k):
    D = rng.standard_normal((d, k))
    return D / np.linalg.norm(D, axis=0, keepdims=True)


def test_update_atoms_fixed_point():
    rng = np.random.default_rng(3)
    D = _unit_dict(rng, 5, 8)
    # batch Y = D, X = I
    out = update_atoms(D.copy(), np.eye(8), D.copy(), D.copy(), np.eye(8))
    np.testing.assert_allclose(out, D, atol=1e-12)


def test_update_atoms_ball_projection():
    rng = np.random.default_rng(4)
    D = _unit_dict(rng, 5, 8)
    # batch Y = 2D, X = I
    out = update_atoms(D.copy(), np.eye(8), 2.0 * D, 2.0 * D, np.eye(8))
    # u_j = 2 d_j projects straight back onto the unit sphere
    np.testing.assert_allclose(out, D, atol=1e-12)


def test_update_atoms_surrogate_non_increasing():
    rng = np.random.default_rng(5)
    D = _unit_dict(rng, 6, 10)
    X = rng.standard_normal((10, 30)) * (rng.random((10, 30)) < 0.3)
    Y = _unit_dict(rng, 6, 10) @ X + 0.01 * rng.standard_normal((6, 30))
    A, B = update_stats(*_empty_stats(6, 10), X, Y)
    before = surrogate(D, A, B)
    out = D.copy()
    for _ in range(3):
        out = update_atoms(out, A, B, Y, X)
    assert surrogate(out, A, B) <= before + 1e-12
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
    counts = {"reseeds": 2}
    out = update_atoms(D.copy(), A, B, Yb=Yb, Xb=Xb, counts=counts)
    assert np.max(np.abs(out[:, 2] - dead)) > 1e-6
    assert np.linalg.norm(out[:, 2]) == pytest.approx(1.0, abs=1e-9)
    assert counts == {"reseeds": 3}  # one atom re-seeded, added to the tally


# --- full training ---------------------------------------------------------------

def test_train_config_validation():
    # the checks run before Y is read, k first, then lambda, batch size, epochs
    Y = np.zeros((8, 20))
    with pytest.raises(BadConfigError, match="epochs must be >= 1"):
        train_online(Y, 10, 0.1, batch_size=64, epochs=0, seed=0)
    with pytest.raises(BadConfigError, match="lambda must be finite and positive"):
        train_online(Y, 10, -0.1, batch_size=64, epochs=0, seed=0)
    with pytest.raises(BadConfigError, match="batch_size must be >= 1"):
        train_online(Y, 10, 0.1, batch_size=0, epochs=0, seed=0)
    with pytest.raises(BadConfigError, match=r"k must be in \[1, 65536\]"):
        train_online(Y, MAX_K + 1, float("nan"), batch_size=0, epochs=0, seed=0)
    with pytest.raises(BadConfigError, match="overcomplete"):
        train_online(Y, 8, 0.1, batch_size=64, epochs=1, seed=0)


def test_train_online_deterministic():
    _, _, Y = make_sparse_synthesis(d=8, k=12, n=200, sparsity=3, seed=0)
    D1, _ = train_online(Y, 12, 0.1, batch_size=32, epochs=2, seed=5)
    D2, _ = train_online(Y, 12, 0.1, batch_size=32, epochs=2, seed=5)
    np.testing.assert_array_equal(D1, D2)


def test_train_online_objective_improves():
    _, _, Y = make_sparse_synthesis(d=8, k=12, n=400, sparsity=3, seed=1)
    D, log = train_online(Y, 12, 0.1, batch_size=32, epochs=3, seed=0)
    per_epoch = len(log) // 3
    assert np.mean(log[-per_epoch:]) <= np.mean(log[:per_epoch])
    assert np.all(np.linalg.norm(D, axis=0) > 0)


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
    assert np.sum((Y - C[:, assign]) ** 2) == pytest.approx(0.0, abs=1e-20)


def test_kmeans_inertia_monotone_in_iterations():
    rng = np.random.default_rng(8)
    Y = rng.standard_normal((4, 120))
    # before the first iteration: every point at its nearest seed column
    seeds = Y[:, np.random.default_rng(3).choice(120, size=6, replace=False)]
    inertias = [np.sum(np.min(np.sum((Y[:, :, None] - seeds[:, None, :]) ** 2, axis=0),
                              axis=1))]
    for iters in (1, 2, 5, 10):
        C, assign = kmeans_vq(Y, k=6, seed=3, iters=iters)
        inertias.append(np.sum((Y - C[:, assign]) ** 2))
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))
    for bad in ({"iters": 0}, {"iters": -1}, {"k": 0}):
        with pytest.raises(BadConfigError):
            kmeans_vq(Y, **{"k": 6, **bad})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nearest_atoms_matches_direct_distances():
    rng = np.random.default_rng(10)
    C = rng.standard_normal((5, 7))
    Y = rng.standard_normal((5, 40))
    direct = np.sum((Y[:, :, None] - C[:, None, :]) ** 2, axis=0)
    index, d2 = nearest_atoms(C, Y)
    np.testing.assert_array_equal(index, np.argmin(direct, axis=1))
    np.testing.assert_allclose(d2, direct.min(axis=1), atol=1e-12)
    # a distance too large for a float reads inf, without a warning
    index, d2 = nearest_atoms(C, np.full((5, 2), 1e200))
    assert np.isinf(d2).all() and index.shape == (2,)


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


def test_sbd1_bounds_k(tmp_path):
    path = tmp_path / "wide.sbd"
    with pytest.raises(ShapeMismatchError, match="exceeds"):
        save_dictionary(path, np.ones((1, MAX_K + 1)))
    assert not path.exists()
    save_dictionary(path, np.ones((1, MAX_K)))
    assert load_dictionary(path).shape == (1, MAX_K)
    # a header claiming one atom more, with the bytes to match, is refused
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + struct.pack("<I", MAX_K + 1) + blob[12:] + bytes(8))
    with pytest.raises(CorruptFileError, match="exceeds"):
        load_dictionary(path)


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
